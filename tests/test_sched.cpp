// Adaptive-scheduling tests: the LPT heap, the cost model, the
// deterministic plan rewrite, the engine's adaptive record-range path
// (bit-identical to the static layout under heavy skew), and the
// observational quantile speculation rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "engine/dataset.hpp"
#include "sched/cost_model.hpp"
#include "sched/lpt.hpp"
#include "sched/repartition.hpp"
#include "sched/scheduler.hpp"

namespace gpf {
namespace {

// --- LPT --------------------------------------------------------------------

TEST(Lpt, MakespanSingleSlotIsSum) {
  const std::vector<double> costs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(sched::lpt_makespan(costs, 1), 6.0);
}

TEST(Lpt, BalancesAcrossSlots) {
  // LPT on {4,3,3,2} over 2 slots: 4+2 vs 3+3 -> makespan 6.
  const std::vector<double> costs = {3.0, 4.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(sched::lpt_makespan(costs, 2), 6.0);
}

TEST(Lpt, EmptyAndZeroSlots) {
  EXPECT_DOUBLE_EQ(sched::lpt_makespan({}, 4), 0.0);
  const std::vector<double> costs = {1.0};
  EXPECT_DOUBLE_EQ(sched::lpt_makespan(costs, 0), 0.0);
}

TEST(Lpt, PlacementsCoverEveryTaskDeterministically) {
  const std::vector<double> costs = {5.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  std::vector<int> seen(costs.size(), 0);
  std::vector<std::size_t> slots_used;
  const double end = sched::lpt_schedule(
      costs, 2, 10.0, [&](std::size_t idx, double t0, double dur,
                          std::size_t slot) {
        ++seen[idx];
        EXPECT_GE(t0, 10.0);
        EXPECT_DOUBLE_EQ(dur, costs[idx]);
        slots_used.push_back(slot);
      });
  for (const int s : seen) EXPECT_EQ(s, 1);
  // 5 on one slot; five 1s pack onto the other: end = 10 + 5.
  EXPECT_DOUBLE_EQ(end, 15.0);
  EXPECT_LE(*std::max_element(slots_used.begin(), slots_used.end()), 1u);
}

// --- CostModel --------------------------------------------------------------

TEST(CostModel, DefaultsWhenUnobserved) {
  sched::CostModel model;
  EXPECT_DOUBLE_EQ(model.per_record_seconds("never_seen"),
                   model.params().default_per_record_seconds);
  EXPECT_EQ(model.observed_stage_count(), 0u);
}

TEST(CostModel, FirstObservationTakenVerbatimThenDecayed) {
  sched::CostModel model;
  const std::vector<double> secs = {2.0};
  const std::vector<std::size_t> recs = {1000};
  model.observe_stage("s", secs, recs);
  EXPECT_DOUBLE_EQ(model.per_record_seconds("s"), 2e-3);

  // Second execution at 4 ms/record: decayed toward it by `decay`.
  const std::vector<double> secs2 = {4.0};
  model.observe_stage("s", secs2, recs);
  const double d = model.params().decay;
  EXPECT_NEAR(model.per_record_seconds("s"), (1 - d) * 2e-3 + d * 4e-3,
              1e-12);
  EXPECT_EQ(model.observed_stage_count(), 1u);
}

TEST(CostModel, PredictsMakespanWithOverhead) {
  sched::CostModel model;
  const std::vector<double> secs = {1.0};
  const std::vector<std::size_t> recs = {1000};
  model.observe_stage("s", secs, recs);
  const std::vector<std::size_t> layout = {1000, 1000};
  const double expect =
      1.0 + model.params().task_overhead_seconds;  // one per slot
  EXPECT_NEAR(model.predict_makespan("s", layout, 2), expect, 1e-9);
}

// --- plan_stage -------------------------------------------------------------

sched::StagePlan plan_of(const std::vector<double>& costs,
                         const std::vector<std::size_t>& records,
                         std::size_t slots, bool splittable = true) {
  sched::RepartitionPolicy policy;
  return sched::plan_stage(policy, costs, records, slots, splittable,
                           /*task_overhead_seconds=*/20e-6);
}

/// Every record of every partition is covered exactly once, in order.
void expect_tiles(const sched::StagePlan& plan,
                  const std::vector<std::size_t>& records) {
  std::vector<std::size_t> next(records.size(), 0);
  for (const auto& task : plan.tasks) {
    for (const auto& sp : task.spans) {
      ASSERT_LT(sp.partition, records.size());
      EXPECT_EQ(sp.begin, next[sp.partition])
          << "span out of order in partition " << sp.partition;
      EXPECT_LE(sp.end, records[sp.partition]);
      next[sp.partition] = sp.end;
    }
  }
  for (std::size_t p = 0; p < records.size(); ++p) {
    EXPECT_EQ(next[p], records[p]) << "partition " << p << " not covered";
  }
}

TEST(PlanStage, UniformLayoutNotAdopted) {
  const std::vector<double> costs(8, 1.0);
  const std::vector<std::size_t> records(8, 1000);
  const auto plan = plan_of(costs, records, 4);
  EXPECT_FALSE(plan.adopted);
}

TEST(PlanStage, HeavyPartitionIsSplit) {
  // One partition predicted 100x the others.
  std::vector<double> costs(16, 0.01);
  std::vector<std::size_t> records(16, 100);
  costs[3] = 1.0;
  records[3] = 10'000;
  const auto plan = plan_of(costs, records, 8);
  ASSERT_TRUE(plan.adopted);
  EXPECT_GE(plan.partitions_split, 1u);
  EXPECT_LT(plan.adaptive_makespan, plan.static_makespan);
  expect_tiles(plan, records);
  // The heavy partition became multiple spans.
  std::size_t heavy_spans = 0;
  for (const auto& task : plan.tasks) {
    for (const auto& sp : task.spans) {
      if (sp.partition == 3) ++heavy_spans;
    }
  }
  EXPECT_GT(heavy_spans, 1u);
}

TEST(PlanStage, MicroPartitionsAreMerged) {
  // 64 partitions of one record each: per-task overhead dominates, so the
  // planner bundles them (but never below min_tasks_per_slot * slots).
  const std::vector<double> costs(64, 5e-6);
  const std::vector<std::size_t> records(64, 1);
  sched::RepartitionPolicy policy;
  const auto plan =
      sched::plan_stage(policy, costs, records, 4, true, 20e-6);
  ASSERT_TRUE(plan.adopted);
  EXPECT_GE(plan.tasks_merged, 1u);
  EXPECT_LT(plan.tasks.size(), records.size());
  EXPECT_GE(plan.tasks.size(), policy.min_tasks_per_slot * 4);
  expect_tiles(plan, records);
}

TEST(PlanStage, NotSplittableOnlyMerges) {
  std::vector<double> costs(16, 1e-5);
  std::vector<std::size_t> records(16, 1);
  costs[0] = 1.0;
  records[0] = 10'000;
  const auto plan = plan_of(costs, records, 4, /*splittable=*/false);
  for (const auto& task : plan.tasks) {
    for (const auto& sp : task.spans) {
      EXPECT_EQ(sp.begin, 0u);
      EXPECT_EQ(sp.end, records[sp.partition]);
    }
  }
  if (plan.adopted) expect_tiles(plan, records);
}

TEST(PlanStage, DeterministicAcrossCalls) {
  std::vector<double> costs(16, 0.01);
  std::vector<std::size_t> records(16, 100);
  costs[7] = 0.9;
  records[7] = 9'000;
  const auto a = plan_of(costs, records, 8);
  const auto b = plan_of(costs, records, 8);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t t = 0; t < a.tasks.size(); ++t) {
    ASSERT_EQ(a.tasks[t].spans.size(), b.tasks[t].spans.size());
    for (std::size_t s = 0; s < a.tasks[t].spans.size(); ++s) {
      EXPECT_EQ(a.tasks[t].spans[s].partition, b.tasks[t].spans[s].partition);
      EXPECT_EQ(a.tasks[t].spans[s].begin, b.tasks[t].spans[s].begin);
      EXPECT_EQ(a.tasks[t].spans[s].end, b.tasks[t].spans[s].end);
    }
  }
}

TEST(PlanStage, EmptyPartitionsAreTiled) {
  std::vector<double> costs = {1.0, 0.0, 0.01, 0.0};
  std::vector<std::size_t> records = {10'000, 0, 100, 0};
  const auto plan = plan_of(costs, records, 4);
  if (plan.adopted) expect_tiles(plan, records);
}

// --- engine integration -----------------------------------------------------

/// Partition layout with one partition ~100x heavier than the rest.
std::vector<std::vector<int>> skewed_partitions() {
  std::vector<std::vector<int>> parts(16);
  int v = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const std::size_t n = p == 5 ? 20'000 : 200;
    for (std::size_t k = 0; k < n; ++k) parts[p].push_back(v++);
  }
  return parts;
}

/// Zipf-ish layout: partition p holds ~N/(p+1) records.
std::vector<std::vector<int>> zipf_partitions() {
  std::vector<std::vector<int>> parts(12);
  int v = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const std::size_t n = 12'000 / (p + 1);
    for (std::size_t k = 0; k < n; ++k) parts[p].push_back(v++);
  }
  return parts;
}

TEST(AdaptiveEngine, MapBitIdenticalUnderSkew) {
  engine::Engine plain({.worker_threads = 4});
  engine::Engine adaptive({.worker_threads = 4});
  adaptive.set_scheduler(std::make_shared<sched::AdaptiveScheduler>());

  auto parts = skewed_partitions();
  auto want = plain.make_dataset(parts)
                  .map("square", [](const int& x) { return x * x; })
                  .partitions();
  auto got = adaptive.make_dataset(parts)
                 .map("square", [](const int& x) { return x * x; })
                 .partitions();
  EXPECT_EQ(got, want);

  // The heavy partition was actually split (merged micro-partitions may
  // cancel the split's effect on task_count, so assert the counters).
  const auto& stage = adaptive.metrics().stages().back();
  EXPECT_GE(stage.adaptive_splits, 1u);
  EXPECT_GE(adaptive.scheduler()->stats().partitions_split, 1u);
  EXPECT_GE(adaptive.scheduler()->stats().stages_rewritten, 1u);
}

TEST(AdaptiveEngine, FlatMapAndFilterBitIdenticalUnderSkew) {
  engine::Engine plain({.worker_threads = 4});
  engine::Engine adaptive({.worker_threads = 4});
  adaptive.set_scheduler(std::make_shared<sched::AdaptiveScheduler>());

  auto parts = skewed_partitions();
  auto run = [&](engine::Engine& e) {
    return e.make_dataset(parts)
        .flat_map("dup",
                  [](const int& x) { return std::vector<int>{x, -x}; })
        .filter("odd", [](const int& x) { return (x & 1) != 0; })
        .partitions();
  };
  EXPECT_EQ(run(adaptive), run(plain));
}

TEST(AdaptiveEngine, ZipfSkewBitIdenticalAndMergesTail) {
  engine::Engine plain({.worker_threads = 4});
  engine::Engine adaptive({.worker_threads = 4});
  adaptive.set_scheduler(std::make_shared<sched::AdaptiveScheduler>());

  auto parts = zipf_partitions();
  auto run = [&](engine::Engine& e) {
    return e.make_dataset(parts)
        .map("inc", [](const int& x) { return x + 1; })
        .partitions();
  };
  EXPECT_EQ(run(adaptive), run(plain));
}

TEST(AdaptiveEngine, WarmModelStillBitIdentical) {
  // Run the same stage name repeatedly so the cost model is warm (decayed
  // real timings, not cold record-count ratios) and keeps rewriting.
  engine::Engine plain({.worker_threads = 4});
  engine::Engine adaptive({.worker_threads = 4});
  adaptive.set_scheduler(std::make_shared<sched::AdaptiveScheduler>());
  auto parts = skewed_partitions();
  for (int round = 0; round < 3; ++round) {
    auto run = [&](engine::Engine& e) {
      return e.make_dataset(parts)
          .map("warm", [](const int& x) { return x * 3; })
          .partitions();
    };
    EXPECT_EQ(run(adaptive), run(plain));
  }
  EXPECT_GT(adaptive.scheduler()->model().observed_stage_count(), 0u);
}

TEST(AdaptiveEngine, UniformLayoutFallsBackToStaticTaskCount) {
  engine::Engine adaptive({.worker_threads = 4});
  adaptive.set_scheduler(std::make_shared<sched::AdaptiveScheduler>());
  auto ds = adaptive.parallelize(std::vector<int>(8000, 1), 8)
                .map("flat", [](const int& x) { return x + 1; });
  EXPECT_EQ(ds.partitions().size(), 8u);
  const auto& stage = adaptive.metrics().stages().back();
  EXPECT_EQ(stage.task_count, 8u);
  EXPECT_EQ(stage.adaptive_splits, 0u);
}

TEST(AdaptiveEngine, PercentilesRecordedOnStages) {
  engine::Engine e({.worker_threads = 4});
  auto ds = e.parallelize(std::vector<int>(4000, 2), 8)
                .map("p", [](const int& x) { return x; });
  (void)ds;
  const auto& stage = e.metrics().stages().back();
  EXPECT_GE(stage.task_p95_ms, stage.task_p50_ms);
  EXPECT_GE(stage.task_p99_ms, stage.task_p95_ms);
}

// --- cold-model merges and CPU-bound stragglers -----------------------------

/// Deterministic CPU-bound busywork: `iters` rounds of xorshift-multiply.
std::uint64_t spin(std::uint64_t iters) {
  std::uint64_t x = iters | 1;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x = x * 0x9e3779b97f4a7c15ULL + 1;
  }
  return x;
}

/// Bundle-shaped layout: `n` one-record partitions whose record is its own
/// spin count, partition `hot` carrying `factor`× the base work.
std::vector<std::vector<std::uint64_t>> bundle_partitions(
    std::size_t n, std::size_t hot, std::uint64_t base, std::uint64_t factor) {
  std::vector<std::vector<std::uint64_t>> parts(n);
  for (std::size_t p = 0; p < n; ++p) {
    parts[p] = {p == hot ? base * factor : base + p};
  }
  return parts;
}

TEST(AdaptiveEngine, ColdBundleStageKeepsStaticLayout) {
  // One record per partition (like one RegionBundle per region
  // partition): a record cannot be split, and on a cold model the
  // placeholder per-record cost would price every partition far below
  // the per-task overhead and bundle the hot one with its neighbours.
  // Cold stages never merge, so the layout stays static; the hot task is
  // busy computing, so the quantile rule launches no copy of it either.
  engine::Engine plain({.worker_threads = 4});
  engine::Engine adaptive({.worker_threads = 4});
  adaptive.set_scheduler(std::make_shared<sched::AdaptiveScheduler>());
  const auto parts = bundle_partitions(20, 19, 1'000'000, 20);
  auto run = [&](engine::Engine& e) {
    return e.make_dataset(parts)
        .map("bundle", [](const std::uint64_t& x) { return spin(x); })
        .partitions();
  };
  EXPECT_EQ(run(adaptive), run(plain));
  const auto& stage = adaptive.metrics().stages().back();
  EXPECT_EQ(stage.task_count, 20u);
  EXPECT_EQ(stage.adaptive_merges, 0u);
  EXPECT_EQ(stage.speculative_launches, 0u);
  EXPECT_EQ(adaptive.scheduler()->stats().stages_rewritten, 0u);
}

TEST(AdaptiveEngine, WarmBundleStageStillMerges) {
  // Once the stage has a measured per-record cost, micro-partitions are
  // bundled again: the merge path stays live through the engine.  The
  // modeled task overhead is set far above any per-record time a loaded
  // host can measure for this sub-microsecond work, so the merged layout
  // wins the makespan comparison however the timings fall.
  engine::Engine plain({.worker_threads = 4});
  engine::Engine adaptive({.worker_threads = 4});
  sched::CostModel::Params model;
  model.task_overhead_seconds = 0.01;
  adaptive.set_scheduler(std::make_shared<sched::AdaptiveScheduler>(
      sched::RepartitionPolicy(), model));
  std::vector<std::vector<std::uint64_t>> parts(64);
  for (std::size_t p = 0; p < parts.size(); ++p) parts[p] = {100 + p};
  auto run = [&](engine::Engine& e) {
    return e.make_dataset(parts)
        .map("micro", [](const std::uint64_t& x) { return spin(x); })
        .partitions();
  };
  const auto want = run(plain);
  EXPECT_EQ(run(adaptive), want);  // cold: observed, not merged
  EXPECT_EQ(adaptive.metrics().stages().back().task_count, 64u);
  EXPECT_EQ(adaptive.metrics().stages().back().adaptive_merges, 0u);
  ASSERT_TRUE(adaptive.scheduler()->model().observed("micro"));

  EXPECT_EQ(run(adaptive), want);  // warm: merged, still bit-identical
  const auto& stage = adaptive.metrics().stages().back();
  EXPECT_GE(stage.adaptive_merges, 1u);
  EXPECT_LT(stage.task_count, 64u);
  EXPECT_GE(adaptive.scheduler()->stats().tasks_merged, 1u);
}

// --- quantile speculation ---------------------------------------------------

TEST(QuantileSpeculation, LaunchesCopyForObservedStraggler) {
  engine::Engine e({.worker_threads = 4});
  // Attaching a scheduler arms the observational quantile rule (no
  // injector here, so the static rule cannot fire).
  e.set_scheduler(std::make_shared<sched::AdaptiveScheduler>());

  // 8 one-record partitions; record 0 sleeps ~400 ms, the rest ~2 ms.
  // The running median finishes near 2 ms, so the straggler crosses
  // quantile_factor x median long before it completes, and its
  // speculative copy (also slow) loses or ties -- either way results are
  // the claim winner's, which is byte-identical.
  std::vector<std::vector<int>> parts(8);
  for (int p = 0; p < 8; ++p) parts[static_cast<std::size_t>(p)] = {p};
  auto out = e.make_dataset(parts)
                 .map_partitions<int>(
                     "straggle",
                     [](const std::vector<int>& part) {
                       const bool slow = part[0] == 0;
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(slow ? 400 : 2));
                       return std::vector<int>{part[0] + 100};
                     })
                 .collect();
  std::sort(out.begin(), out.end());
  const std::vector<int> want = {100, 101, 102, 103, 104, 105, 106, 107};
  EXPECT_EQ(out, want);
  const auto& stage = e.metrics().stages().back();
  EXPECT_GE(stage.speculative_launches, 1u);
}

TEST(QuantileSpeculation, NoCopyForCpuBoundStraggler) {
  // Same shape as the sleeping straggler above, but record 0 computes for
  // ~20x the others instead of sleeping: its pool thread is busy, so a
  // copy on the same pool could not finish first and none is launched.
  engine::Engine e({.worker_threads = 4});
  e.set_scheduler(std::make_shared<sched::AdaptiveScheduler>());
  std::vector<std::vector<std::uint64_t>> parts(8);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    parts[p] = {p == 0 ? 20 * 1'000'000 : 1'000'000 + p};
  }
  auto out = e.make_dataset(parts)
                 .map_partitions<std::uint64_t>(
                     "busy",
                     [](const std::vector<std::uint64_t>& part) {
                       return std::vector<std::uint64_t>{spin(part[0])};
                     })
                 .collect();
  std::vector<std::uint64_t> want;
  for (const auto& p : parts) want.push_back(spin(p[0]));
  EXPECT_EQ(out, want);
  const auto& stage = e.metrics().stages().back();
  EXPECT_EQ(stage.speculative_launches, 0u);
  EXPECT_EQ(stage.speculative_wins, 0u);
}

TEST(QuantileSpeculation, WinningCopyIsCounted) {
  // The primary of task 0 blocks (sleeps) where its copy does not, so the
  // copy claims the task.
  engine::Engine e({.worker_threads = 4});
  e.set_scheduler(std::make_shared<sched::AdaptiveScheduler>());
  std::vector<std::vector<int>> parts(8);
  for (int p = 0; p < 8; ++p) parts[static_cast<std::size_t>(p)] = {p};
  auto out = e.make_dataset(parts)
                 .map_partitions_ctx<int>(
                     "blocked",
                     [](const engine::TaskContext& ctx,
                        const std::vector<int>& part) {
                       const bool blocked = part[0] == 0 && ctx.attempt >= 0;
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(blocked ? 300 : 2));
                       return std::vector<int>{part[0] + 100};
                     })
                 .collect();
  std::sort(out.begin(), out.end());
  const std::vector<int> want = {100, 101, 102, 103, 104, 105, 106, 107};
  EXPECT_EQ(out, want);
  // Task 0's copy must win; under CPU contention a 2 ms sleeper can also
  // overstay the threshold and get a copy, so count at least, not exactly.
  const auto& stage = e.metrics().stages().back();
  EXPECT_GE(stage.speculative_launches, 1u);
  EXPECT_GE(stage.speculative_wins, 1u);
  EXPECT_LE(stage.speculative_wins, stage.speculative_launches);
  EXPECT_EQ(e.metrics().total_speculative_wins(), stage.speculative_wins);
}

TEST(QuantileSpeculation, OffByDefaultWithoutScheduler) {
  engine::Engine e({.worker_threads = 4});
  const engine::StageExecPolicy policy = e.exec_policy();
  EXPECT_FALSE(policy.speculation.quantile);
  e.set_scheduler(std::make_shared<sched::AdaptiveScheduler>());
  EXPECT_TRUE(e.exec_policy().speculation.quantile);
}

// --- work stealing ----------------------------------------------------------

TEST(WorkStealing, SkewedSubmissionDrainsAcrossWorkers) {
  // All heavy tasks land on one deque via round-robin bursts; idle
  // workers must steal them for the batch to finish promptly.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 64; ++i) {
    futs.push_back(pool.submit([&ran] {
      ran.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(ran.load(), 64);
}

TEST(WorkStealing, WorkerLocalSubmissionsVisibleToThieves) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  // A worker task fans out subtasks onto its own deque; other workers
  // must be able to steal them.
  pool.submit([&] {
      std::vector<std::future<void>> inner;
      for (int i = 0; i < 32; ++i) {
        inner.push_back(pool.submit([&ran] {
          ran.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }));
      }
      for (auto& f : inner) f.get();
    }).get();
  EXPECT_EQ(ran.load(), 32);
}

}  // namespace
}  // namespace gpf
