#include "sched/scheduler.hpp"

#include <vector>

namespace gpf::sched {

StagePlan AdaptiveScheduler::plan_stage(
    const std::string& stage, std::span<const std::size_t> partition_records,
    std::size_t slots, bool splittable) {
  std::vector<double> costs;
  costs.reserve(partition_records.size());
  for (const std::size_t records : partition_records) {
    costs.push_back(model_.predict_seconds(stage, records));
  }
  // Splitting compares cost ratios only, so record counts are enough.
  // Merging weighs predicted seconds against the per-task overhead; on a
  // cold stage those seconds are the default placeholder, which prices a
  // one-record partition (a whole region bundle, say) at 1 µs and bundles
  // hot spots together.  Merge only stages with a measured cost.
  RepartitionPolicy policy = policy_;
  if (!model_.observed(stage)) policy.merge_fraction = 0.0;
  StagePlan plan =
      gpf::sched::plan_stage(policy, costs, partition_records, slots,
                             splittable, model_.params().task_overhead_seconds);
  std::lock_guard lock(mu_);
  ++stats_.stages_planned;
  if (plan.adopted) {
    ++stats_.stages_rewritten;
    stats_.partitions_split += plan.partitions_split;
    stats_.tasks_merged += plan.tasks_merged;
  }
  return plan;
}

void AdaptiveScheduler::observe_stage(
    const std::string& stage, std::span<const double> task_seconds,
    std::span<const std::size_t> task_records) {
  model_.observe_stage(stage, task_seconds, task_records);
}

AdaptiveScheduler::Stats AdaptiveScheduler::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace gpf::sched
