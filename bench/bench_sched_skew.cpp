// Adaptive-scheduling skew bench: the same element-wise stage over a
// skewed partition layout (one partition ~100x heavier than the rest),
// static one-task-per-partition vs the AdaptiveScheduler's rewritten
// layout.
//
// Methodology (same trace-replay scheme the simulator benches use): the
// stage runs once sequentially to record clean per-task compute times;
// those measured times seed the cost model, and both layouts are
// replayed through the shared LPT scheduler (sched/lpt.hpp) at a fixed
// slot count — so the reported speedup is the makespan ratio of real
// measured work and does not depend on the bench machine's core count.
// The engine then executes both layouts for real (8 workers) to verify
// bit-identical outputs, and a uniform layout bounds the adaptive
// planner's overhead on the path where it must change nothing (min of 21
// rounds per side, the two sides alternating).
//
// The replay prices a warm model only.  A bundle-shaped real run covers
// the cold case the pipeline hits: one record per partition (one region
// bundle each), uneven CPU-bound work, a fresh AdaptiveScheduler.  There
// the scheduler must keep the static layout — a cold model's placeholder
// cost cannot justify a merge — and launch no speculative copy of busy
// work.  Its counts are gated; wall ratios are not (they do not port
// across runners).
//
//   bench_sched_skew [--json[=path]]
//
// --json writes a machine-readable report (default BENCH_sched.json) and
// exits 2 when any adaptive output differs from its static twin — CI
// gates on the skewed speedup, the uniform overhead, the bundle case's
// task/merge/copy counts, and outputs_match.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "engine/dataset.hpp"
#include "sched/cost_model.hpp"
#include "sched/repartition.hpp"
#include "sched/scheduler.hpp"

namespace {

using namespace gpf;

constexpr std::size_t kReplaySlots = 8;

/// Deterministic per-record busywork, heavy enough that a partition's
/// cost is proportional to its record count (like per-read alignment).
/// The bundle case passes a record's own value as `rounds`, so one record
/// carries a whole bundle's worth of work.
std::uint64_t churn(std::uint64_t x, std::uint64_t rounds = 600) {
  for (std::uint64_t i = 0; i < rounds; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x = x * 0x9e3779b97f4a7c15ULL + 1;
  }
  return x;
}

std::vector<std::vector<std::uint64_t>> make_partitions(
    const std::vector<std::size_t>& sizes) {
  std::vector<std::vector<std::uint64_t>> parts(sizes.size());
  std::uint64_t v = 1;
  for (std::size_t p = 0; p < sizes.size(); ++p) {
    parts[p].reserve(sizes[p]);
    for (std::size_t k = 0; k < sizes[p]; ++k) parts[p].push_back(v++);
  }
  return parts;
}

std::vector<std::vector<std::uint64_t>> run_map(
    engine::Engine& engine,
    const std::vector<std::vector<std::uint64_t>>& parts) {
  return engine.make_dataset(parts)
      .map("churn", [](const std::uint64_t& x) { return churn(x); })
      .partitions();
}

double wall_seconds(engine::Engine& engine,
                    const std::vector<std::vector<std::uint64_t>>& parts) {
  Timer t;
  (void)run_map(engine, parts);
  return t.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = "BENCH_sched.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }

  bench::banner("Adaptive scheduling under partition skew",
                "skew-aware repartitioning (paper Sec 4.4 regime)");

  // Skewed layout: one partition carries ~100x the records.
  std::vector<std::size_t> skewed(16, 2'000);
  skewed[5] = 200'000;
  const auto skew_parts = make_partitions(skewed);

  // --- 1. Trace: clean sequential per-task times -------------------------
  engine::Engine tracer({.worker_threads = 1});
  (void)run_map(tracer, skew_parts);  // warm-up
  (void)run_map(tracer, skew_parts);
  const auto& traced = tracer.metrics().stages().back();
  std::vector<std::size_t> records(skew_parts.size());
  for (std::size_t p = 0; p < skew_parts.size(); ++p) {
    records[p] = skew_parts[p].size();
  }

  // --- 2. Replay both layouts through the shared LPT scheduler -----------
  sched::CostModel model;
  model.observe_stage("churn", traced.task_seconds, records);
  std::vector<double> costs(records.size());
  for (std::size_t p = 0; p < records.size(); ++p) {
    costs[p] = model.predict_seconds("churn", records[p]);
  }
  sched::RepartitionPolicy policy;
  const sched::StagePlan plan =
      sched::plan_stage(policy, costs, records, kReplaySlots,
                        /*splittable=*/true,
                        model.params().task_overhead_seconds);
  const double speedup = plan.adaptive_makespan > 0
                             ? plan.static_makespan / plan.adaptive_makespan
                             : 0.0;

  std::printf("\nskewed layout (16 partitions, one 100x), measured trace "
              "replayed at %zu slots:\n",
              kReplaySlots);
  std::printf("  %-10s %12s %6s\n", "mode", "makespan", "tasks");
  std::printf("  %-10s %11.3fs %6zu\n", "static", plan.static_makespan,
              records.size());
  std::printf("  %-10s %11.3fs %6zu  (%zu split, %zu merged)\n", "adaptive",
              plan.adaptive_makespan, plan.tasks.size(),
              plan.partitions_split, plan.tasks_merged);
  std::printf("  adopted %s, speedup %.2fx\n", plan.adopted ? "yes" : "NO",
              speedup);

  // --- 3. Real execution: outputs must be bit-identical ------------------
  engine::Engine static_engine({.worker_threads = 8});
  engine::Engine adaptive_engine({.worker_threads = 8});
  adaptive_engine.set_scheduler(std::make_shared<sched::AdaptiveScheduler>());
  const auto want = run_map(static_engine, skew_parts);
  const auto got = run_map(adaptive_engine, skew_parts);
  const bool skew_match = want == got;
  const auto& astage = adaptive_engine.metrics().stages().back();
  std::printf("  real run: %zu adaptive tasks (%zu split, %zu merged), "
              "outputs %s\n",
              astage.task_count, astage.adaptive_splits,
              astage.adaptive_merges, skew_match ? "match" : "MISMATCH");

  // --- 4. Bundle-shaped cold run: static layout, no copies -------------
  // 20 one-record partitions with uneven work (1-3 units), two adjacent
  // hot spots at 20 units, like a coverage hot spot's region bundles.
  std::vector<std::vector<std::uint64_t>> bundle_parts(20);
  for (std::size_t p = 0; p < bundle_parts.size(); ++p) {
    const std::uint64_t units = p == 5 || p == 6 ? 20 : 1 + p % 3;
    bundle_parts[p] = {units * 200'000};
  }
  auto run_bundles = [&](engine::Engine& engine) {
    return engine.make_dataset(bundle_parts)
        .map("bundle", [](const std::uint64_t& x) { return churn(x, x); })
        .partitions();
  };
  engine::Engine b_static({.worker_threads = 4});
  engine::Engine b_adapt({.worker_threads = 4});
  b_adapt.set_scheduler(std::make_shared<sched::AdaptiveScheduler>());
  const bool bundle_match = run_bundles(b_static) == run_bundles(b_adapt);
  const auto& bstage = b_adapt.metrics().stages().back();
  std::printf("\nbundle layout (20 one-record partitions, cold scheduler):\n"
              "  static %zu tasks, adaptive %zu tasks (%zu merged), %zu "
              "speculative copies, outputs %s\n",
              bundle_parts.size(), bstage.task_count, bstage.adaptive_merges,
              bstage.speculative_launches,
              bundle_match ? "match" : "MISMATCH");

  // --- 5. Uniform layout: adaptive must fall back, near-zero overhead ----
  const auto uniform_parts =
      make_partitions(std::vector<std::size_t>(16, 14'000));
  engine::Engine u_static({.worker_threads = 8});
  engine::Engine u_adapt({.worker_threads = 8});
  u_adapt.set_scheduler(std::make_shared<sched::AdaptiveScheduler>());
  const bool uniform_match =
      run_map(u_static, uniform_parts) == run_map(u_adapt, uniform_parts);
  // Rounds alternate between the layouts, and which one goes first, so a
  // burst of host load hits both sides; each side keeps its minimum.
  const int kRounds = 21;
  double static_wall = std::numeric_limits<double>::infinity();
  double adapt_wall = std::numeric_limits<double>::infinity();
  auto round = [&](engine::Engine& engine, double& best) {
    best = std::min(best, wall_seconds(engine, uniform_parts));
  };
  for (int r = 0; r < kRounds; ++r) {
    if (r % 2 == 0) {
      round(u_static, static_wall);
      round(u_adapt, adapt_wall);
    } else {
      round(u_adapt, adapt_wall);
      round(u_static, static_wall);
    }
  }
  const double overhead_percent =
      static_wall > 0 ? (adapt_wall / static_wall - 1.0) * 100.0 : 0.0;
  const std::size_t u_tasks = u_adapt.metrics().stages().back().task_count;
  std::printf("\nuniform layout (16 equal partitions, min of %d alternating "
              "rounds per side):\n",
              kRounds);
  std::printf("  static %.3fs, adaptive %.3fs (%zu tasks), overhead "
              "%+.1f%%, outputs %s\n",
              static_wall, adapt_wall, u_tasks, overhead_percent,
              uniform_match ? "match" : "MISMATCH");

  const bool outputs_match = skew_match && bundle_match && uniform_match;
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "{\n"
        "  \"replay_slots\": %zu,\n"
        "  \"skewed\": {\"static_makespan\": %.4f, "
        "\"adaptive_makespan\": %.4f,\n"
        "    \"speedup\": %.3f, \"adopted\": %s, \"static_tasks\": %zu,\n"
        "    \"adaptive_tasks\": %zu, \"splits\": %zu, \"merges\": %zu},\n"
        "  \"bundle\": {\"static_tasks\": %zu, \"adaptive_tasks\": %zu, "
        "\"merges\": %zu,\n"
        "    \"speculative_launches\": %zu},\n"
        "  \"uniform\": {\"static_seconds\": %.4f, \"adaptive_seconds\": "
        "%.4f,\n"
        "    \"overhead_percent\": %.2f, \"adaptive_tasks\": %zu},\n"
        "  \"outputs_match\": %s\n"
        "}\n",
        kReplaySlots, plan.static_makespan, plan.adaptive_makespan, speedup,
        plan.adopted ? "true" : "false", records.size(), plan.tasks.size(),
        plan.partitions_split, plan.tasks_merged, bundle_parts.size(),
        bstage.task_count, bstage.adaptive_merges, bstage.speculative_launches,
        static_wall, adapt_wall,
        overhead_percent, u_tasks, outputs_match ? "true" : "false");
    out << buf;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return outputs_match ? 0 : 2;
}
