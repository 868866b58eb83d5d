#include "caller/pairhmm.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace gpf::caller {
namespace {

double error_prob(char qual_char) {
  const int q = std::max(1, qual_char - 33);
  return std::pow(10.0, -q / 10.0);
}

/// error_prob for every byte, each computed once by the same call, so a
/// lookup returns exactly the double the per-row std::pow would.
const std::array<double, 256>& error_table() {
  static const std::array<double, 256> table = [] {
    std::array<double, 256> t{};
    for (int c = 0; c < 256; ++c) t[c] = error_prob(static_cast<char>(c));
    return t;
  }();
  return table;
}

double error_of(char qual_char) {
  return error_table()[static_cast<unsigned char>(qual_char)];
}

double emission(char rb, char hb, double e) {
  return (rb == 'N' || hb == 'N') ? 0.25 : (rb == hb ? 1.0 - e : e / 3.0);
}

constexpr double kScaleThreshold = 1e-200;
constexpr double kScaleFactor = 1e200;

// --- lane-batched kernel ----------------------------------------------------
//
// Scores up to kLanes reads against one haplotype at once, one read per
// double lane, with the scalar kernel's recurrence written in the same
// operation order and no FMA (the AVX2 wrapper does not enable it, and the
// build does not contract), so every lane computes exactly the doubles the
// scalar kernel would for its read.  Per lane it keeps the emission row,
// the rescale decision, log10_scale and the row_max == 0 outcome; a lane's
// total is read at its own last row, and rows past it are don't-care.

// Double vectors (GCC/Clang vector extensions), lowered to SSE2 for two
// lanes and, inside the target("avx2") wrapper, to AVX for four.  The row
// buffers are only 8-byte aligned, so the types are unaligned and
// alias-safe.  They are looked up by lane count because GCC drops type
// attributes from a typedef passed as a template argument.
template <std::size_t kLanes>
struct LaneVec;
template <>
struct LaneVec<2> {
  typedef double type __attribute__((vector_size(16), aligned(8), may_alias));
};
template <>
struct LaneVec<4> {
  typedef double type __attribute__((vector_size(32), aligned(8), may_alias));
};

template <std::size_t kLanes>
[[gnu::always_inline]] inline void score_lanes(
    const PairHmmOptions& options, detail::PairHmmBuffers& b,
    const HmmRead* const* lanes, std::string_view haplotype, double* out) {
  using Vec = typename LaneVec<kLanes>::type;
  const std::size_t n = haplotype.size();

  // Haplotype bytes -> dense classes, so each row needs one emission
  // value per (class, lane) instead of one per (column, lane).
  constexpr std::uint16_t kUnseen = 256;
  std::array<std::uint16_t, 256> class_of;
  class_of.fill(kUnseen);
  std::array<char, 256> class_byte{};
  std::size_t classes = 0;
  b.hap_class.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const auto c = static_cast<unsigned char>(haplotype[j]);
    if (class_of[c] == kUnseen) {
      class_of[c] = static_cast<std::uint16_t>(classes);
      class_byte[classes++] = haplotype[j];
    }
    b.hap_class[j] = static_cast<std::uint8_t>(class_of[c]);
  }
  b.emit.resize(classes * kLanes);

  const std::size_t row_len = (n + 1) * kLanes;
  for (auto& row : b.m) row.assign(row_len, 0.0);
  for (auto& row : b.x) row.assign(row_len, 0.0);
  for (auto& row : b.y) row.assign(row_len, 0.0);

  const double mm = 1.0 - 2.0 * options.gap_open;
  const double gm = 1.0 - options.gap_extend;
  const double go = options.gap_open;
  const double ge = options.gap_extend;
  const Vec v_mm = Vec{} + mm;
  const Vec v_gm = Vec{} + gm;
  const Vec v_go = Vec{} + go;
  const Vec v_ge = Vec{} + ge;

  const double init = 1.0 / static_cast<double>(n);
  std::fill(b.y[0].begin(), b.y[0].end(), init);

  std::size_t rows = 0;
  std::array<double, kLanes> log10_scale{};
  std::array<bool, kLanes> live{};
  for (std::size_t l = 0; l < kLanes; ++l) {
    rows = std::max(rows, lanes[l]->bases.size());
    live[l] = true;
  }

  int cur = 0;
  for (std::size_t i = 1; i <= rows; ++i) {
    const int prev = cur;
    cur ^= 1;
    for (std::size_t l = 0; l < kLanes; ++l) {
      const HmmRead& r = *lanes[l];
      // Past its last row a lane's values are never read.
      const bool in_read = i <= r.bases.size();
      const char rb = in_read ? r.bases[i - 1] : 'N';
      const double e = in_read ? error_of(r.quality[i - 1]) : 1.0;
      for (std::size_t c = 0; c < classes; ++c) {
        b.emit[c * kLanes + l] = emission(rb, class_byte[c], e);
      }
    }

    const double* mp = b.m[prev].data();
    const double* xp = b.x[prev].data();
    const double* yp = b.y[prev].data();
    double* mc = b.m[cur].data();
    double* xc = b.x[cur].data();
    double* yc = b.y[cur].data();
    const std::uint8_t* hc = b.hap_class.data();
    const double* emit = b.emit.data();

    const Vec zero{};
    *reinterpret_cast<Vec*>(mc) = zero;
    *reinterpret_cast<Vec*>(xc) = zero;
    *reinterpret_cast<Vec*>(yc) = zero;
    Vec m_diag = *reinterpret_cast<const Vec*>(mp);
    Vec x_diag = *reinterpret_cast<const Vec*>(xp);
    Vec y_diag = *reinterpret_cast<const Vec*>(yp);
    Vec m_left = zero;
    Vec y_left = zero;
    Vec row_max = zero;
    for (std::size_t j = 1; j <= n; ++j) {
      const std::size_t at = j * kLanes;
      const Vec em = *reinterpret_cast<const Vec*>(emit + hc[j - 1] * kLanes);
      const Vec m_up = *reinterpret_cast<const Vec*>(mp + at);
      const Vec x_up = *reinterpret_cast<const Vec*>(xp + at);
      const Vec mv = em * (v_mm * m_diag + v_gm * x_diag + v_gm * y_diag);
      const Vec xv = v_go * m_up + v_ge * x_up;
      const Vec yv = v_go * m_left + v_ge * y_left;
      *reinterpret_cast<Vec*>(mc + at) = mv;
      *reinterpret_cast<Vec*>(xc + at) = xv;
      *reinterpret_cast<Vec*>(yc + at) = yv;
      row_max = row_max > mv ? row_max : mv;
      row_max = row_max > xv ? row_max : xv;
      row_max = row_max > yv ? row_max : yv;
      m_diag = m_up;
      x_diag = x_up;
      y_diag = *reinterpret_cast<const Vec*>(yp + at);
      m_left = mv;
      y_left = yv;
    }

    // Rescale only the lanes that need it; x * 1.0 is exact for the rest.
    Vec factor = zero + 1.0;
    bool rescale = false;
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (live[l] && row_max[l] > 0.0 && row_max[l] < kScaleThreshold) {
        factor[l] = kScaleFactor;
        log10_scale[l] -= std::log10(kScaleFactor);
        rescale = true;
      }
    }
    if (rescale) {
      for (std::size_t at = 0; at < row_len; at += kLanes) {
        *reinterpret_cast<Vec*>(mc + at) *= factor;
        *reinterpret_cast<Vec*>(xc + at) *= factor;
        *reinterpret_cast<Vec*>(yc + at) *= factor;
      }
    }

    bool any_live = false;
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (!live[l]) continue;
      if (row_max[l] == 0.0) {
        out[l] = -300.0;  // underflow: effectively impossible
        live[l] = false;
        continue;
      }
      if (i == lanes[l]->bases.size()) {
        double total = 0.0;
        for (std::size_t j = 1; j <= n; ++j) {
          total += mc[j * kLanes + l] + xc[j * kLanes + l];
        }
        out[l] = total <= 0.0 ? -300.0 : std::log10(total) + log10_scale[l];
        live[l] = false;
        continue;
      }
      any_live = true;
    }
    if (!any_live) break;
  }
}

#if defined(GPF_SIMD_X86)
void score_sse(const PairHmmOptions& options, detail::PairHmmBuffers& b,
               const HmmRead* const* lanes, std::string_view haplotype,
               double* out) {
  score_lanes<2>(options, b, lanes, haplotype, out);
}

__attribute__((target("avx2"))) void score_avx2(
    const PairHmmOptions& options, detail::PairHmmBuffers& b,
    const HmmRead* const* lanes, std::string_view haplotype, double* out) {
  score_lanes<4>(options, b, lanes, haplotype, out);
}
#endif

}  // namespace

PairHmm::PairHmm(PairHmmOptions options) : options_(options) {}

double PairHmm::log10_likelihood(std::string_view read,
                                 std::string_view quality,
                                 std::string_view haplotype) {
  if (read.size() != quality.size()) {
    throw std::invalid_argument("pairhmm: read/quality length mismatch");
  }
  if (read.empty() || haplotype.empty()) return -300.0;

  auto& m_ = buf_.m;
  auto& x_ = buf_.x;
  auto& y_ = buf_.y;
  const std::size_t n = haplotype.size();
  for (auto& row : m_) row.assign(n + 1, 0.0);
  for (auto& row : x_) row.assign(n + 1, 0.0);
  for (auto& row : y_) row.assign(n + 1, 0.0);

  // Transition probabilities.
  const double mm = 1.0 - 2.0 * options_.gap_open;
  const double gm = 1.0 - options_.gap_extend;
  const double go = options_.gap_open;
  const double ge = options_.gap_extend;

  // Free start anywhere along the haplotype: initial mass in the D (Y)
  // state spread uniformly.
  const double init = 1.0 / static_cast<double>(n);
  for (std::size_t j = 0; j <= n; ++j) y_[0][j] = init;

  double log10_scale = 0.0;
  int cur = 0;
  for (std::size_t i = 1; i <= read.size(); ++i) {
    const int prev = cur;
    cur ^= 1;
    const char rb = read[i - 1];
    const double e = error_of(quality[i - 1]);
    m_[cur][0] = 0.0;
    x_[cur][0] = 0.0;
    y_[cur][0] = 0.0;
    double row_max = 0.0;
    for (std::size_t j = 1; j <= n; ++j) {
      const double emit = emission(rb, haplotype[j - 1], e);
      m_[cur][j] = emit * (mm * m_[prev][j - 1] + gm * x_[prev][j - 1] +
                           gm * y_[prev][j - 1]);
      x_[cur][j] = go * m_[prev][j] + ge * x_[prev][j];
      y_[cur][j] = go * m_[cur][j - 1] + ge * y_[cur][j - 1];
      row_max = std::max({row_max, m_[cur][j], x_[cur][j], y_[cur][j]});
    }
    if (row_max > 0.0 && row_max < kScaleThreshold) {
      for (std::size_t j = 0; j <= n; ++j) {
        m_[cur][j] *= kScaleFactor;
        x_[cur][j] *= kScaleFactor;
        y_[cur][j] *= kScaleFactor;
      }
      log10_scale -= std::log10(kScaleFactor);
    }
    if (row_max == 0.0) return -300.0;  // underflow: effectively impossible
  }

  // Free end anywhere along the haplotype.
  double total = 0.0;
  for (std::size_t j = 1; j <= n; ++j) total += m_[cur][j] + x_[cur][j];
  if (total <= 0.0) return -300.0;
  return std::log10(total) + log10_scale;
}

void PairHmm::log10_likelihoods(std::span<const HmmRead> reads,
                                std::string_view haplotype,
                                std::span<double> out) {
  log10_likelihoods_at(simd::active_level(), reads, haplotype, out);
}

void PairHmm::log10_likelihoods_at(simd::Level level,
                                   std::span<const HmmRead> reads,
                                   std::string_view haplotype,
                                   std::span<double> out) {
  if (out.size() != reads.size()) {
    throw std::invalid_argument("pairhmm: output size mismatch");
  }
  for (const HmmRead& r : reads) {
    if (r.bases.size() != r.quality.size()) {
      throw std::invalid_argument("pairhmm: read/quality length mismatch");
    }
  }
  using Kernel = void (*)(const PairHmmOptions&, detail::PairHmmBuffers&,
                          const HmmRead* const*, std::string_view, double*);
  Kernel kernel = nullptr;
  std::size_t lanes = 1;
#if defined(GPF_SIMD_X86)
  if (level >= simd::Level::kAvx2) {
    kernel = score_avx2;
    lanes = 4;
  } else if (level >= simd::Level::kSse4) {
    kernel = score_sse;
    lanes = 2;
  }
#endif
  if (kernel == nullptr || haplotype.empty()) {
    for (std::size_t r = 0; r < reads.size(); ++r) {
      out[r] = log10_likelihood(reads[r].bases, reads[r].quality, haplotype);
    }
    return;
  }

  // Longest reads first, so the lanes of one batch end on nearby rows.
  std::vector<std::size_t> order;
  order.reserve(reads.size());
  for (std::size_t r = 0; r < reads.size(); ++r) {
    if (reads[r].bases.empty()) {
      out[r] = -300.0;
    } else {
      order.push_back(r);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&reads](std::size_t a, std::size_t b) {
                     return reads[a].bases.size() > reads[b].bases.size();
                   });
  // A short final batch repeats its first read in the spare lanes.
  std::array<const HmmRead*, 4> batch{};
  std::array<double, 4> scores{};
  for (std::size_t first = 0; first < order.size(); first += lanes) {
    const std::size_t count = std::min(lanes, order.size() - first);
    for (std::size_t l = 0; l < lanes; ++l) {
      batch[l] = &reads[order[first + (l < count ? l : 0)]];
    }
    kernel(options_, buf_, batch.data(), haplotype, scores.data());
    for (std::size_t l = 0; l < count; ++l) out[order[first + l]] = scores[l];
  }
}

}  // namespace gpf::caller
