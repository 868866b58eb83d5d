// Per-stage task cost estimation from observed executions.
//
// Every finished stage feeds its per-task (seconds, records) pairs back
// here; the model keeps a decayed per-record cost per stage name, so a
// stage that runs again (iterative jobs, repeated pipelines, cohort
// loops) is predicted from its own history.  A stage never seen before
// falls back to a uniform default per-record cost — ratios between
// partitions then reduce to record-count ratios, which is exactly the
// signal skew-aware splitting needs on a cold start.  The default's
// absolute value means nothing, so nothing that weighs predicted seconds
// against the per-task overhead (merging) may use it: see observed().
#pragma once

#include <cstddef>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>

namespace gpf::sched {

class CostModel {
 public:
  struct Params {
    /// Weight of the newest observation in the decayed average.
    double decay = 0.4;
    /// Per-record cost assumed for stages with no history.
    double default_per_record_seconds = 1e-6;
    /// Fixed per-task scheduling overhead added to every prediction (what
    /// keeps the planner from shattering partitions into confetti).
    double task_overhead_seconds = 20e-6;
  };

  // (Defaulting `params` in-class trips GCC's complete-class rule for
  // nested NSDMIs, hence the separate default constructor below.)
  CostModel() = default;
  explicit CostModel(Params params) : params_(params) {}

  /// Folds one finished stage execution into the model.  `task_seconds`
  /// and `task_records` are parallel per-task arrays; tasks with zero
  /// records still count toward the stage total.
  void observe_stage(const std::string& stage,
                     std::span<const double> task_seconds,
                     std::span<const std::size_t> task_records);

  /// Decayed per-record cost for `stage` (the default when unobserved).
  double per_record_seconds(const std::string& stage) const;

  /// Predicted compute seconds of one task over `records` records,
  /// excluding the per-task overhead (the planner adds it per task).
  double predict_seconds(const std::string& stage, std::size_t records) const;

  /// Predicted LPT makespan of one task per entry of `task_records` on
  /// `slots` slots, including per-task overhead.
  double predict_makespan(const std::string& stage,
                          std::span<const std::size_t> task_records,
                          std::size_t slots) const;

  /// True once `stage` has been folded in at least once, i.e. its
  /// per-record cost is measured rather than the default placeholder.
  bool observed(const std::string& stage) const;

  const Params& params() const { return params_; }
  std::size_t observed_stage_count() const;

 private:
  struct StageCost {
    double per_record_seconds = 0.0;
    std::size_t executions = 0;
  };

  Params params_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, StageCost> stages_;
};

}  // namespace gpf::sched
