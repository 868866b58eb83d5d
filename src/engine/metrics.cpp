#include "engine/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/histogram.hpp"

namespace gpf::engine {

double StageMetrics::total_compute_seconds() const {
  return std::accumulate(task_seconds.begin(), task_seconds.end(), 0.0);
}

double StageMetrics::max_task_seconds() const {
  if (task_seconds.empty()) return 0.0;
  return *std::max_element(task_seconds.begin(), task_seconds.end());
}

void StageMetrics::finalize_task_stats() {
  if (task_seconds.empty()) {
    task_p50_ms = task_p95_ms = task_p99_ms = 0.0;
    return;
  }
  Histogram h;
  for (const double s : task_seconds) h.add(std::llround(s * 1e5));
  task_p50_ms = static_cast<double>(h.percentile(0.50)) / 100.0;
  task_p95_ms = static_cast<double>(h.percentile(0.95)) / 100.0;
  task_p99_ms = static_cast<double>(h.percentile(0.99)) / 100.0;
}

std::size_t EngineMetrics::add_stage(StageMetrics stage) {
  std::lock_guard lock(mu_);
  stages_.push_back(std::move(stage));
  return stages_.size() - 1;
}

std::uint64_t EngineMetrics::total_shuffle_bytes() const {
  std::lock_guard lock(mu_);
  std::uint64_t total = 0;
  for (const auto& s : stages_) total += s.shuffle_write_bytes;
  return total;
}

std::uint64_t EngineMetrics::total_shuffle_records() const {
  std::lock_guard lock(mu_);
  std::uint64_t total = 0;
  for (const auto& s : stages_) total += s.shuffle_records;
  return total;
}

double EngineMetrics::total_serialization_seconds() const {
  std::lock_guard lock(mu_);
  double total = 0.0;
  for (const auto& s : stages_) total += s.serialization_seconds;
  return total;
}

double EngineMetrics::total_compute_seconds() const {
  std::lock_guard lock(mu_);
  double total = 0.0;
  for (const auto& s : stages_) total += s.total_compute_seconds();
  return total;
}

double EngineMetrics::total_wall_seconds() const {
  std::lock_guard lock(mu_);
  double total = 0.0;
  for (const auto& s : stages_) total += s.wall_seconds;
  return total;
}

std::size_t EngineMetrics::total_failed_attempts() const {
  std::lock_guard lock(mu_);
  std::size_t total = 0;
  for (const auto& s : stages_) total += s.failed_attempts;
  return total;
}

std::size_t EngineMetrics::total_speculative_launches() const {
  std::lock_guard lock(mu_);
  std::size_t total = 0;
  for (const auto& s : stages_) total += s.speculative_launches;
  return total;
}

std::size_t EngineMetrics::total_speculative_wins() const {
  std::lock_guard lock(mu_);
  std::size_t total = 0;
  for (const auto& s : stages_) total += s.speculative_wins;
  return total;
}

std::size_t EngineMetrics::total_injected_faults() const {
  std::lock_guard lock(mu_);
  std::size_t total = 0;
  for (const auto& s : stages_) total += s.injected_faults;
  return total;
}

void EngineMetrics::reset() {
  std::lock_guard lock(mu_);
  stages_.clear();
}

}  // namespace gpf::engine
