#include "sched/cost_model.hpp"

#include <vector>

#include "sched/lpt.hpp"

namespace gpf::sched {

void CostModel::observe_stage(const std::string& stage,
                              std::span<const double> task_seconds,
                              std::span<const std::size_t> task_records) {
  double seconds = 0.0;
  std::size_t records = 0;
  const std::size_t n = std::min(task_seconds.size(), task_records.size());
  for (std::size_t i = 0; i < n; ++i) {
    seconds += task_seconds[i];
    records += task_records[i];
  }
  if (records == 0 || seconds <= 0.0) return;
  const double observed = seconds / static_cast<double>(records);
  std::lock_guard lock(mu_);
  StageCost& cost = stages_[stage];
  if (cost.executions == 0) {
    cost.per_record_seconds = observed;
  } else {
    cost.per_record_seconds = (1.0 - params_.decay) * cost.per_record_seconds +
                              params_.decay * observed;
  }
  ++cost.executions;
}

double CostModel::per_record_seconds(const std::string& stage) const {
  std::lock_guard lock(mu_);
  const auto it = stages_.find(stage);
  if (it == stages_.end() || it->second.executions == 0) {
    return params_.default_per_record_seconds;
  }
  return it->second.per_record_seconds;
}

bool CostModel::observed(const std::string& stage) const {
  std::lock_guard lock(mu_);
  const auto it = stages_.find(stage);
  return it != stages_.end() && it->second.executions > 0;
}

double CostModel::predict_seconds(const std::string& stage,
                                  std::size_t records) const {
  return per_record_seconds(stage) * static_cast<double>(records);
}

double CostModel::predict_makespan(const std::string& stage,
                                   std::span<const std::size_t> task_records,
                                   std::size_t slots) const {
  const double per_record = per_record_seconds(stage);
  std::vector<double> costs;
  costs.reserve(task_records.size());
  for (const std::size_t records : task_records) {
    costs.push_back(per_record * static_cast<double>(records) +
                    params_.task_overhead_seconds);
  }
  return lpt_makespan(costs, slots);
}

std::size_t CostModel::observed_stage_count() const {
  std::lock_guard lock(mu_);
  return stages_.size();
}

}  // namespace gpf::sched
