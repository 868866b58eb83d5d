// The Pipeline runtime: resource-pool DAG scheduling (paper Algorithm 1)
// plus the redundancy-elimination pass (paper Fig 7) that fuses chains of
// partition Processes into bundle-passing form.
//
// Since the backend split, run() no longer executes Processes itself: it
// lowers the logical DAG to a PhysicalPlan (core/backend.hpp) and submits
// that to an ExecutionBackend, which decides where shuffle blocks live —
// driver memory (default), chunk files under a residency budget, or a
// worker-process fleet.  Constructing a Pipeline from a bare Engine keeps
// the historical behavior: an owned in-process backend wrapping it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/process.hpp"
#include "core/resource.hpp"

namespace gpf::core {

class ExecutionBackend;
class PhysicalPlan;

/// Transport/residency counters a backend accumulates while executing;
/// the driver loop diffs snapshots to attribute overhead per Process.
struct BackendStageStats {
  std::uint64_t blocks_put = 0;
  std::uint64_t blocks_fetched = 0;
  std::uint64_t bytes_put = 0;
  std::uint64_t bytes_fetched = 0;
  std::uint64_t bytes_spilled = 0;
  std::uint64_t lineage_recoveries = 0;
  std::uint64_t residency_hits = 0;
  std::uint64_t residency_misses = 0;
  std::uint64_t residency_evictions = 0;
  /// Snapshot (not a delta): engine BufferPool bytes parked at stage end.
  std::uint64_t pooled_bytes = 0;
};

/// Summary of one pipeline run, feeding the Table 4 metrics.
struct PipelineReport {
  struct ProcessTiming {
    std::string name;
    double wall_seconds = 0.0;
    /// Engine stages this Process executed.
    std::size_t engine_stages = 0;
    /// Shuffle traffic attributed to this Process's stages.
    std::uint64_t shuffle_write_bytes = 0;
    std::uint64_t shuffle_read_bytes = 0;
    std::uint64_t shuffle_records = 0;
    /// Task-time percentiles across all engine tasks this Process ran
    /// (10 µs resolution; 0 when the Process ran no engine stages).
    double task_p50_ms = 0.0;
    double task_p95_ms = 0.0;
    double task_p99_ms = 0.0;
    /// Speculative copies launched by this Process's stages, and how many
    /// of them claimed their task first.
    std::size_t speculative_launches = 0;
    std::size_t speculative_wins = 0;
    /// Backend-side work (spill/fetch/residency) during this Process.
    BackendStageStats backend;
  };
  std::vector<ProcessTiming> timings;
  double total_wall_seconds = 0.0;
  std::size_t fused_chains = 0;
  std::size_t processes_fused = 0;
  /// Which ExecutionBackend ran the plan ("inprocess"/"spill"/...).
  std::string backend;
};

/// Owns resources and processes and executes them in dependency order.
class Pipeline {
 public:
  /// Historical constructor: runs on an owned in-process backend wrapping
  /// `engine` — behavior-identical to the pre-backend Pipeline.
  Pipeline(std::string name, engine::Engine& engine,
           const Reference& reference, PipelineConfig config = {});

  /// Runs on `backend` (not owned; must outlive the pipeline).
  Pipeline(std::string name, ExecutionBackend& backend,
           const Reference& reference, PipelineConfig config = {});

  ~Pipeline();

  const std::string& name() const { return name_; }
  PipelineContext& context() { return context_; }
  ExecutionBackend& backend() { return *backend_; }

  /// Registers a Resource; the pipeline owns it.  Returns a raw pointer
  /// for wiring into Processes.
  template <typename R>
  R* add_resource(std::unique_ptr<R> resource) {
    R* raw = resource.get();
    resources_.push_back(std::move(resource));
    return raw;
  }

  /// Adds a Process to the execution DAG (paper: `pipeline.addProcess`).
  template <typename P>
  P* add_process(std::unique_ptr<P> process) {
    P* raw = process.get();
    processes_.push_back(std::move(process));
    return raw;
  }

  /// Lowers the current DAG to its physical plan WITHOUT executing it
  /// (fusion decisions reflect the config; run() re-plans itself).
  /// Throws std::runtime_error on circular dependencies.
  PhysicalPlan plan() const;

  /// Parses, optimizes and executes all Processes (paper: `run()`):
  /// redundancy elimination, then plan(), then backend submission.
  /// Throws std::runtime_error on circular dependencies.
  PipelineReport run();

 private:
  /// The Fig 7 pass: finds linear chains of partition Processes and wires
  /// bundle handoffs.
  void eliminate_redundancy(PipelineReport& report);

  std::string name_;
  /// Set by the Engine& constructor; backend_ points into it then.
  std::unique_ptr<ExecutionBackend> owned_backend_;
  ExecutionBackend* backend_ = nullptr;
  PipelineContext context_;
  std::vector<std::unique_ptr<Resource>> resources_;
  std::vector<std::unique_ptr<Process>> processes_;
};

}  // namespace gpf::core
