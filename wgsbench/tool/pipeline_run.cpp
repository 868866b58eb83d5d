// `wgsbench run`: one repetition of the WGS pipeline, the way a user runs
// it — parse the input files, build the execution backend, run
// core::run_wgs_pipeline, write the VCF — in a fresh process, so the
// FM-index build, pool warm-up and worker spawn are paid every time.
// The set-up alone is repeated a few times in the process (see
// kSetupRepeats) so that setup_s is the best of several, not one 30 ms
// sample.
//
// Everything is measured from outside src/ through public APIs: the
// PipelineReport, the engine's StageMetrics, the per-Process
// BackendStageStats and getrusage.  With --trace the global
// TraceRecorder is on and the tool adds "bench.*" spans around each of
// its own calls; the Chrome trace is written after the run.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_io.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "core/backend.hpp"
#include "core/file_io.hpp"
#include "core/wgs_pipeline.hpp"
#include "exec/backend_factory.hpp"

namespace wgsbench {
namespace {

using namespace gpf;

double cpu_seconds(const rusage& u) {
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double fastest(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

/// Set-ups per process.  One set-up takes 20-50 ms, short enough for the
/// host's other load to add half again to a single sample, most of all to
/// the worker spawn.  setup_s and the formats and fleet-spawn times are
/// the fastest of these.
constexpr int kSetupRepeats = 5;

/// One set-up as a user pays it: input parsing plus backend construction
/// (worker-fleet spawn and handshake on the distributed backend).
struct SetUp {
  Reference reference;
  std::vector<FastqPair> pairs;
  VcfFile known;
  std::unique_ptr<core::ExecutionBackend> backend;
  double fasta_s = 0.0, fastq_s = 0.0, vcf_s = 0.0, backend_s = 0.0;
  double total_s = 0.0;
};

SetUp set_up(const std::filesystem::path& dir, const exec::BackendSpec& spec) {
  SetUp s;
  const Timer total;
  {
    const trace::ScopedSpan span("bench.load_fasta_file",
                                 trace::SpanKind::kParse);
    const Timer t;
    s.reference = core::load_fasta_file((dir / kRefFile).string());
    s.fasta_s = t.seconds();
  }
  {
    const trace::ScopedSpan span("bench.load_fastq_pair_files",
                                 trace::SpanKind::kParse);
    const Timer t;
    s.pairs = core::load_fastq_pair_files((dir / kReads1File).string(),
                                          (dir / kReads2File).string());
    s.fastq_s = t.seconds();
  }
  {
    const trace::ScopedSpan span("bench.load_vcf_file",
                                 trace::SpanKind::kParse);
    const Timer t;
    s.known = core::load_vcf_file((dir / kKnownFile).string());
    s.vcf_s = t.seconds();
  }
  {
    const trace::ScopedSpan span("bench.make_backend",
                                 trace::SpanKind::kProcess);
    const Timer t;
    s.backend = exec::make_backend(spec);
    s.backend_s = t.seconds();
  }
  s.total_s = total.seconds();
  return s;
}

/// Max over mean of the task times of every stage named `stage`.
double max_over_mean(const std::vector<engine::StageMetrics>& stages,
                     const std::string& stage) {
  double sum = 0.0, max = 0.0;
  std::size_t n = 0;
  for (const auto& s : stages) {
    if (s.name != stage) continue;
    for (const double t : s.task_seconds) {
      sum += t;
      max = std::max(max, t);
      ++n;
    }
  }
  return n == 0 ? 0.0 : ratio(max, sum / static_cast<double>(n));
}

void add_engine_metrics(const engine::EngineMetrics& engine,
                        std::size_t threads, Metrics& m) {
  const auto& stages = engine.stages();
  double busy = 0.0, stage_wall = 0.0;
  std::size_t tasks = 0, retries = 0, splits = 0, merges = 0,
              caller_tasks = 0;
  std::uint64_t shuffle_w = 0, shuffle_r = 0;
  for (const auto& s : stages) {
    for (const double t : s.task_seconds) busy += t;
    stage_wall += s.wall_seconds;
    tasks += s.task_count;
    retries += s.task_retries;
    splits += s.adaptive_splits;
    merges += s.adaptive_merges;
    shuffle_w += s.shuffle_write_bytes;
    shuffle_r += s.shuffle_read_bytes;
    if (s.name == "caller.hc.call") caller_tasks += s.task_count;
  }
  m.set("engine.stages", static_cast<double>(stages.size()));
  m.set("engine.tasks", static_cast<double>(tasks));
  m.set("engine.task_retries", static_cast<double>(retries));
  m.set("engine.speculative_launches",
        static_cast<double>(engine.total_speculative_launches()));
  m.set("engine.task_busy_s", busy);
  m.set("engine.pool_idle_frac",
        1.0 - ratio(busy, stage_wall * static_cast<double>(threads)));
  m.set("engine.serialization_s", engine.total_serialization_seconds());
  m.set("engine.shuffle_write_bytes", static_cast<double>(shuffle_w));
  m.set("engine.shuffle_read_bytes", static_cast<double>(shuffle_r));
  m.set("engine.realign.max_mean",
        max_over_mean(stages, "cleaner.indel.realign"));
  m.set("engine.caller.max_mean", max_over_mean(stages, "caller.hc.call"));
  m.set("engine.threads", static_cast<double>(threads));
  m.set("sched.adaptive_splits", static_cast<double>(splits));
  m.set("sched.adaptive_merges", static_cast<double>(merges));
  m.set("sched.caller.tasks", static_cast<double>(caller_tasks));
}

void add_report_metrics(const core::PipelineReport& report, bool distributed,
                        Metrics& m) {
  core::BackendStageStats sum;
  for (const auto& t : report.timings) {
    m.set("core." + t.name + ".wall_s", t.wall_seconds);
    const core::BackendStageStats& b = t.backend;
    sum.blocks_put += b.blocks_put;
    sum.blocks_fetched += b.blocks_fetched;
    sum.bytes_put += b.bytes_put;
    sum.bytes_fetched += b.bytes_fetched;
    sum.bytes_spilled += b.bytes_spilled;
    sum.lineage_recoveries += b.lineage_recoveries;
    sum.residency_hits += b.residency_hits;
    sum.residency_misses += b.residency_misses;
    sum.residency_evictions += b.residency_evictions;
    sum.pooled_bytes = std::max(sum.pooled_bytes, b.pooled_bytes);
  }
  m.set("core.fused_chains", static_cast<double>(report.fused_chains));
  m.set("exec.bytes_put", static_cast<double>(sum.bytes_put));
  m.set("exec.bytes_fetched", static_cast<double>(sum.bytes_fetched));
  m.set("store.bytes_spilled", static_cast<double>(sum.bytes_spilled));
  m.set("store.residency_hit_ratio",
        ratio(static_cast<double>(sum.residency_hits),
              static_cast<double>(sum.residency_hits +
                                  sum.residency_misses)));
  m.set("store.residency_evictions",
        static_cast<double>(sum.residency_evictions));
  m.set("common.pooled_bytes", static_cast<double>(sum.pooled_bytes));
  // The runtime layer is the distributed backend's transport; on the
  // other backends it is bypassed and reads zero.
  const double on = distributed ? 1.0 : 0.0;
  m.set("runtime.blocks_put", on * static_cast<double>(sum.blocks_put));
  m.set("runtime.bytes_put", on * static_cast<double>(sum.bytes_put));
  m.set("runtime.bytes_fetched", on * static_cast<double>(sum.bytes_fetched));
  m.set("runtime.lineage_recoveries",
        on * static_cast<double>(sum.lineage_recoveries));
}

}  // namespace

int cmd_run(int argc, char** argv) {
  const std::string in = flag_value(argc, argv, "--in");
  const std::string out_vcf = flag_value(argc, argv, "--out");
  const std::string metrics_path = flag_value(argc, argv, "--metrics");
  const std::string trace_path = flag_value(argc, argv, "--trace");
  if (in.empty() || out_vcf.empty() || metrics_path.empty()) {
    std::fprintf(stderr,
                 "usage: wgsbench run --in DIR --out OUT.vcf --metrics "
                 "M.json [--backend B] [--store-budget N] [--workers N] "
                 "[--spill-dir DIR] [--adaptive] [--trace T.json]\n");
    return 2;
  }
  exec::BackendSpec spec;
  spec.kind = exec::parse_backend_kind(
      flag_value(argc, argv, "--backend", "inprocess"));
  spec.store_budget =
      std::stoull(flag_value(argc, argv, "--store-budget", "0"));
  spec.workers = std::stoi(flag_value(argc, argv, "--workers", "2"));
  spec.spill_directory = flag_value(argc, argv, "--spill-dir");
  spec.worker_binary = GPF_WORKER_BIN;
  const bool distributed = spec.kind == exec::BackendKind::kDistributed;

  const std::filesystem::path dir(in);
  Metrics m;

  // Set-up runs kSetupRepeats times in this process; the last one feeds
  // the pipeline and the earlier ones are torn down (worker fleets
  // included) before it starts.  CPU time and the trace start after the
  // discarded set-ups, so they cover one set-up plus the pipeline.
  std::vector<double> setup_times, load_times, fastq_times, backend_times;
  auto record = [&](const SetUp& s) {
    setup_times.push_back(s.total_s);
    load_times.push_back(s.fasta_s + s.fastq_s + s.vcf_s);
    fastq_times.push_back(s.fastq_s);
    backend_times.push_back(s.backend_s);
  };
  for (int k = 1; k < kSetupRepeats; ++k) record(set_up(dir, spec));
  rusage self_before{}, children_before{};
  getrusage(RUSAGE_SELF, &self_before);
  getrusage(RUSAGE_CHILDREN, &children_before);
  trace::TraceRecorder& recorder = trace::TraceRecorder::global();
  if (!trace_path.empty()) {
    recorder.clear();
    recorder.enable();
  }
  SetUp setup = set_up(dir, spec);
  record(setup);
  const Reference& reference = setup.reference;
  std::unique_ptr<core::ExecutionBackend>& backend = setup.backend;

  // As `gpf_tool pipeline` configures it: defaults but the partition
  // length.
  core::PipelineConfig config;
  config.adaptive_scheduling = has_flag(argc, argv, "--adaptive");
  config.partition_length = partition_length_for(reference);

  // Wall: from the first Process starting to the VCF being on disk.
  const Timer wall;
  core::WgsResult result;
  double vcf_write_s = 0.0;
  {
    const trace::ScopedSpan root("bench.pipeline", trace::SpanKind::kProcess);
    {
      const trace::ScopedSpan span("bench.run_wgs_pipeline",
                                   trace::SpanKind::kProcess);
      result = core::run_wgs_pipeline(*backend, reference,
                                      std::move(setup.pairs),
                                      std::move(setup.known.records), config);
    }
    const trace::ScopedSpan span("bench.save_vcf_file",
                                 trace::SpanKind::kProcess);
    const Timer t;
    core::save_vcf_file(out_vcf, vcf_header_for(reference), result.variants);
    vcf_write_s = t.seconds();
  }
  const double wall_s = wall.seconds();

  if (!trace_path.empty()) {
    recorder.disable();
    const std::vector<trace::Span> spans = recorder.drain();
    if (!trace::write_chrome_trace_file(trace_path, spans)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }

  const std::uint64_t fastq_bytes =
      std::filesystem::file_size(dir / kReads1File) +
      std::filesystem::file_size(dir / kReads2File);
  m.set("wall_s", wall_s);
  m.set("setup_s", fastest(setup_times));
  m.set("formats.load_s", fastest(load_times));
  m.set("formats.fastq_mb_per_s",
        ratio(static_cast<double>(fastq_bytes) / 1e6, fastest(fastq_times)));
  m.set("formats.vcf_write_s", vcf_write_s);
  m.set("runtime.fleet_spawn_s", distributed ? fastest(backend_times) : 0.0);
  add_report_metrics(result.report, distributed, m);
  add_engine_metrics(backend->engine().metrics(),
                     backend->engine().pool().size(), m);

  // Destroying the backend stops and reaps the worker fleet, so its CPU
  // shows up in RUSAGE_CHILDREN.
  backend.reset();
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  m.set("cpu_s", cpu_seconds(self) - cpu_seconds(self_before) +
                    cpu_seconds(children) - cpu_seconds(children_before));
  m.set("peak_rss_mb", static_cast<double>(self.ru_maxrss) / 1024.0);
  if (!m.write_json(metrics_path)) {
    std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace wgsbench
