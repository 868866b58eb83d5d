// The trace-driven adaptive scheduler: ties the cost model and the
// repartition planner together behind the one handle the engine holds.
//
// Attach one to an Engine (Engine::set_scheduler) and every element-wise
// stage consults it before submitting tasks: the scheduler predicts
// per-partition costs from observed history (or record counts on a cold
// start), rewrites skewed layouts via plan_stage(), and ingests the
// finished stage's per-task timings afterwards.  A cold stage may only be
// split: merging needs measured seconds to weigh against task overhead.
// core::ExecutionBackend installs one for the duration of a plan when
// PipelineConfig::adaptive_scheduling is set, so all three backends
// inherit the same rewrite.  Outputs are bit-identical with and without
// a scheduler — only task granularity changes.
#pragma once

#include <cstddef>
#include <mutex>
#include <span>
#include <string>

#include "sched/cost_model.hpp"
#include "sched/repartition.hpp"

namespace gpf::sched {

class AdaptiveScheduler {
 public:
  explicit AdaptiveScheduler(RepartitionPolicy policy = RepartitionPolicy(),
                             CostModel::Params model_params =
                                 CostModel::Params())
      : policy_(policy), model_(model_params) {}

  AdaptiveScheduler(const AdaptiveScheduler&) = delete;
  AdaptiveScheduler& operator=(const AdaptiveScheduler&) = delete;

  /// Plans the task layout for an upcoming stage over partitions of the
  /// given record counts.  `splittable` must only be true when the stage's
  /// task function is element-wise (range outputs concatenate to the
  /// whole-partition output); partition-consuming stages may merge only.
  /// Stages the cost model has not observed yet are never merged.
  StagePlan plan_stage(const std::string& stage,
                       std::span<const std::size_t> partition_records,
                       std::size_t slots, bool splittable);

  /// Feeds one finished stage execution back into the cost model.
  void observe_stage(const std::string& stage,
                     std::span<const double> task_seconds,
                     std::span<const std::size_t> task_records);

  /// Cumulative planning outcomes (for reports and tests).
  struct Stats {
    std::size_t stages_planned = 0;
    std::size_t stages_rewritten = 0;
    std::size_t partitions_split = 0;
    std::size_t tasks_merged = 0;
  };
  Stats stats() const;

  const RepartitionPolicy& policy() const { return policy_; }
  CostModel& model() { return model_; }

 private:
  RepartitionPolicy policy_;
  CostModel model_;
  mutable std::mutex mu_;
  Stats stats_;
};

}  // namespace gpf::sched
