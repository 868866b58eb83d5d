// Shared speculative-execution policy (paper Sec 4.4 / Spark's
// spark.speculation), consumed by EngineConfig and the stage executor.
//
// Two rules coexist:
//  * Static rule: a task whose first attempt carries an injected straggler
//    delay at or above `delay_threshold_ms` gets a speculative copy at
//    submission time.  Keyed on the FaultInjector's planned delays (pure
//    hashes of the chaos seed), so the speculative_launches counter is
//    deterministic under a fixed GPF_CHAOS_SEED.
//  * Quantile rule: launch a copy when a running task's wall-clock age
//    exceeds `quantile_factor`× the running median of finished tasks in
//    its stage.  Observational by nature, so it only arms when no
//    injector is attached — chaos runs always use the static rule.
//    CPU-progress guard: the copy runs the same deterministic function on
//    the same pool, so it can only finish first when the primary is not
//    computing — asleep, or blocked on I/O or a transport.  A primary
//    that has spent at least kQuantileMaxCpuFraction of its wall age on
//    its thread's CPU clock is working, slow only because its input is
//    big, and never gets a copy (one would just take a second thread and
//    hold the stage open until it, too, finished).
#pragma once

#include <cstddef>

namespace gpf::sched {

/// Quantile rule: a straggler is copied only while its thread CPU time is
/// below this fraction of its wall age (see the CPU-progress guard above).
/// Measured on a shared 4-vCPU host: sleeping primaries used under 0.2% of
/// their age, while computing ones fell to 9-30% whenever other threads or
/// neighbours held the CPUs (100% when idle).  A cut at half copied busy
/// work under that contention; 2% sits between the two populations.
inline constexpr double kQuantileMaxCpuFraction = 0.02;

/// Speculation knobs shared by the engine configuration and the stage
/// executor (one home for what used to be two copies of the same pair).
struct SpeculationPolicy {
  /// Master switch for both rules.
  bool enabled = true;
  /// Static rule: injected first-attempt delays at or above this launch a
  /// speculative copy immediately.
  double delay_threshold_ms = 20.0;
  /// Quantile rule: observational straggler detection against the running
  /// median of finished task durations.  Off by default so static runs
  /// stay span-for-span identical; attaching an AdaptiveScheduler to the
  /// engine raises it (Engine::exec_policy).
  bool quantile = false;
  /// Launch a copy when a task's age exceeds factor × running median.
  double quantile_factor = 3.0;
  /// Finished tasks required before the median is trusted.
  std::size_t quantile_min_completed = 3;
  /// Fraction of the stage's tasks that must have finished before the
  /// rule arms (Spark's spark.speculation.quantile).  Early finishers are
  /// biased cheap — a median over just the first few would mark every
  /// ordinary task in a heavier tier a straggler and duplicate real work.
  double quantile_fraction = 0.75;
  /// Never speculate tasks younger than this, whatever the median says.
  double min_task_ms = 5.0;
};

}  // namespace gpf::sched
