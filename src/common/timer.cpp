#include "common/timer.hpp"

#include <cmath>
#include <cstdio>

namespace gpf {

std::string format_duration(double seconds) {
  // Simulator edge cases can produce NaN/negative durations; render them
  // explicitly instead of misformatting ("nanms", garbage minute counts).
  if (std::isnan(seconds)) return "nan";
  if (std::isinf(seconds)) return seconds < 0.0 ? "-inf" : "inf";
  // append, not "-" + string: GCC 12 flags the inlined insert with a false
  // -Wrestrict (GCC bug 105329), which breaks -Werror Release builds.
  if (seconds < 0.0) return std::string("-").append(format_duration(-seconds));
  char buf[64];
  if (seconds < 1.0) {
    std::snprintf(buf, sizeof buf, "%.0fms", seconds * 1e3);
  } else if (seconds < 60.0) {
    std::snprintf(buf, sizeof buf, "%.2fs", seconds);
  } else if (seconds < 3600.0) {
    const int minutes = static_cast<int>(seconds / 60.0);
    std::snprintf(buf, sizeof buf, "%dm%04.1fs", minutes,
                  seconds - 60.0 * minutes);
  } else {
    const int hours = static_cast<int>(seconds / 3600.0);
    const double rem = seconds - 3600.0 * hours;
    const int minutes = static_cast<int>(rem / 60.0);
    std::snprintf(buf, sizeof buf, "%dh%02dm%04.1fs", hours, minutes,
                  rem - 60.0 * minutes);
  }
  return buf;
}

std::string format_bytes(std::uint64_t bytes) {
  char buf[64];
  const double b = static_cast<double>(bytes);
  if (b >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.1fGB", b / 1e9);
  } else if (b >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.1fMB", b / 1e6);
  } else if (b >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1fKB", b / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%lluB",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace gpf
