// `wgsbench replay`: the single-threaded layer replay.  It calls each
// layer's public functions on inputs derived from the workload's files
// and records a time next to a work count for each, so the kernel share
// of the pipeline is visible without a profiler, and a plain one-thread
// baseline exists for every layer.
//
// Read names carry their truth origin ("sim:<contig>:<refpos>:<serial>",
// mate 1 forward at refpos), which gives the Smith-Waterman calls their
// reference windows without touching aligner internals.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "align/bwamem.hpp"
#include "align/fm_index.hpp"
#include "align/smith_waterman.hpp"
#include "bench_io.hpp"
#include "caller/active_region.hpp"
#include "caller/assembler.hpp"
#include "caller/haplotype_caller.hpp"
#include "caller/pairhmm.hpp"
#include "cleaner/bqsr.hpp"
#include "cleaner/indel_realign.hpp"
#include "cleaner/markdup.hpp"
#include "cleaner/sorter.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "compress/record_codec.hpp"
#include "core/file_io.hpp"

namespace wgsbench {
namespace {

using namespace gpf;

constexpr int kSeedLength = 19;
constexpr int kSeedStride = 11;
constexpr int kBand = 16;
constexpr int kFlank = 24;

/// DP cells the banded kernels fill for an m-base query against an
/// n-base reference: row i covers columns max(1, i - lo) .. min(n, i + hi),
/// with the band widened on one side by the length difference so that a
/// global path always fits (align/smith_waterman.cpp).
std::uint64_t band_cells(std::size_t m, std::size_t n, int band) {
  const auto diff = static_cast<std::int64_t>(n) - static_cast<std::int64_t>(m);
  const std::int64_t lo = band + std::max<std::int64_t>(0, -diff);
  const std::int64_t hi = band + std::max<std::int64_t>(0, diff);
  std::uint64_t cells = 0;
  for (std::int64_t i = 1; i <= static_cast<std::int64_t>(m); ++i) {
    const std::int64_t first = std::max<std::int64_t>(1, i - lo);
    const std::int64_t last =
        std::min<std::int64_t>(static_cast<std::int64_t>(n), i + hi);
    if (last >= first) cells += static_cast<std::uint64_t>(last - first + 1);
  }
  return cells;
}
/// Per-region caps for the pair-HMM replay, as the caller downsamples
/// deep regions.
constexpr std::size_t kHmmReadsPerRegion = 64;
/// Codec loops repeat until this much time has passed, so their rates
/// are not single sub-millisecond samples.
constexpr double kCodecLoopSeconds = 0.2;

double per_second(double work, double seconds) {
  return seconds > 0.0 ? work / seconds : 0.0;
}

/// (contig id, reference position) of mate 1, from its simulated name.
std::optional<std::pair<std::int32_t, std::int64_t>> truth_origin(
    const Reference& reference, std::string_view name) {
  if (name.substr(0, 4) != "sim:") return std::nullopt;
  name.remove_prefix(4);
  const std::size_t c = name.find(':');
  if (c == std::string_view::npos) return std::nullopt;
  const auto contig = reference.find_contig(name.substr(0, c));
  if (!contig) return std::nullopt;
  name.remove_prefix(c + 1);
  std::int64_t pos = 0;
  std::size_t i = 0;
  for (; i < name.size() && name[i] >= '0' && name[i] <= '9'; ++i) {
    pos = pos * 10 + (name[i] - '0');
  }
  if (i == 0) return std::nullopt;
  return std::make_pair(*contig, pos);
}

void replay_align(const Reference& reference,
                  const std::vector<FastqPair>& pairs,
                  std::vector<SamRecord>& aligned, Metrics& m) {
  std::unique_ptr<align::FmIndex> index;
  {
    const trace::ScopedSpan span("bench.replay.align.FmIndex",
                                 trace::SpanKind::kProcess);
    const Timer t;
    index = std::make_unique<align::FmIndex>(reference);
    m.set("align.index_build_s", t.seconds());
  }
  {
    // Seeds as the aligner samples them: every kSeedStride bases.
    const trace::ScopedSpan span("bench.replay.align.FmIndex::search",
                                 trace::SpanKind::kProcess);
    std::uint64_t calls = 0, hits = 0;
    const Timer t;
    for (const FastqPair& p : pairs) {
      for (const FastqRecord* r : {&p.first, &p.second}) {
        const std::string_view seq = r->sequence;
        for (std::size_t off = 0; off + kSeedLength <= seq.size();
             off += kSeedStride) {
          hits += index->search(seq.substr(off, kSeedLength)).size();
          ++calls;
        }
      }
    }
    const double s = t.seconds();
    m.set("align.fm_search_per_s", per_second(static_cast<double>(calls), s));
    m.set("align.fm_search_calls", static_cast<double>(calls));
    m.set("align.fm_search_hits", static_cast<double>(hits));
  }
  {
    // Mate 1 against its truth window: banded global over the exact span,
    // glocal over the span plus the aligner's reference flank.  Cells
    // are the cells the kernel fills (band_cells).
    const trace::ScopedSpan span("bench.replay.align.smith_waterman",
                                 trace::SpanKind::kProcess);
    const align::ScoringScheme scoring;
    std::uint64_t calls = 0, cells = 0;
    const Timer t;
    for (const FastqPair& p : pairs) {
      const auto origin = truth_origin(reference, p.first.name);
      if (!origin) continue;
      const auto [contig, pos] = *origin;
      const std::string& q = p.first.sequence;
      const auto len = static_cast<std::int64_t>(q.size());
      const std::string_view exact = reference.slice(contig, pos, len);
      const std::int64_t lo = std::max<std::int64_t>(0, pos - kFlank);
      const std::string_view window =
          reference.slice(contig, lo, len + 2 * kFlank);
      align::banded_global(q, exact, scoring, kBand);
      align::glocal(q, window, scoring, kBand);
      calls += 2;
      cells += band_cells(q.size(), exact.size(), kBand) +
               band_cells(q.size(), window.size(), kBand);
    }
    const double s = t.seconds();
    m.set("align.sw_mcells_per_s",
          per_second(static_cast<double>(cells) / 1e6, s));
    m.set("align.sw_calls", static_cast<double>(calls));
  }
  {
    const trace::ScopedSpan span("bench.replay.align.ReadAligner::align_pair",
                                 trace::SpanKind::kProcess);
    const align::ReadAligner aligner(*index);
    aligned.reserve(pairs.size() * 2);
    const Timer t;
    for (const FastqPair& p : pairs) {
      auto [r1, r2] = aligner.align_pair(p);
      aligned.push_back(std::move(r1));
      aligned.push_back(std::move(r2));
    }
    m.set("align.pairs_per_s",
          per_second(static_cast<double>(pairs.size()), t.seconds()));
  }
}

void replay_cleaner(const Reference& reference,
                    const std::vector<VcfRecord>& known,
                    std::vector<SamRecord>& records, Metrics& m) {
  {
    const trace::ScopedSpan span("bench.replay.cleaner.coordinate_sort",
                                 trace::SpanKind::kProcess);
    const Timer t;
    cleaner::coordinate_sort(records);
    m.set("cleaner.sort_s", t.seconds());
  }
  {
    const trace::ScopedSpan span("bench.replay.cleaner.mark_duplicates",
                                 trace::SpanKind::kProcess);
    const Timer t;
    const auto stats = cleaner::mark_duplicates(records);
    m.set("cleaner.markdup_s", t.seconds());
    m.set("cleaner.duplicates", static_cast<double>(stats.duplicates_marked));
  }
  {
    const trace::ScopedSpan span("bench.replay.cleaner.realign_reads",
                                 trace::SpanKind::kProcess);
    const cleaner::RealignOptions options;
    const Timer t;
    const auto targets =
        cleaner::find_realign_targets(records, known, options);
    const auto stats =
        cleaner::realign_reads(records, reference, targets, options);
    m.set("cleaner.realign_s", t.seconds());
    m.set("cleaner.realign_targets", static_cast<double>(stats.targets));
    m.set("cleaner.reads_realigned",
          static_cast<double>(stats.reads_realigned));
  }
  // Realignment may move reads; the caller needs coordinate order back.
  cleaner::coordinate_sort(records);
  {
    const trace::ScopedSpan span("bench.replay.cleaner.bqsr",
                                 trace::SpanKind::kProcess);
    const cleaner::KnownSites sites(known);
    const Timer t;
    const cleaner::RecalTable table =
        cleaner::collect_covariates(records, reference, sites);
    const auto stats = cleaner::apply_recalibration(records, table);
    m.set("cleaner.bqsr_s", t.seconds());
    m.set("cleaner.bqsr_bases", static_cast<double>(stats.bases_seen));
  }
}

void replay_caller(const Reference& reference,
                   const std::vector<SamRecord>& sorted, Metrics& m) {
  {
    const trace::ScopedSpan span("bench.replay.caller.call_variants",
                                 trace::SpanKind::kProcess);
    caller::CallStats stats;
    const Timer t;
    const auto variants = caller::call_variants(sorted, reference, {}, &stats);
    const double s = t.seconds();
    m.set("caller.regions_per_s",
          per_second(static_cast<double>(stats.regions), s));
    m.set("caller.call_variants_s", s);
    m.set("caller.regions", static_cast<double>(stats.regions));
    m.set("caller.variants", static_cast<double>(variants.size()));
  }
  const auto regions = caller::find_active_regions(sorted, reference);
  std::vector<std::vector<std::string>> haplotypes(regions.size());
  {
    const trace::ScopedSpan span("bench.replay.caller.assemble_haplotypes",
                                 trace::SpanKind::kProcess);
    std::uint64_t total = 0;
    const Timer t;
    for (std::size_t r = 0; r < regions.size(); ++r) {
      const caller::ActiveRegion& region = regions[r];
      std::vector<std::string_view> reads;
      reads.reserve(region.read_indices.size());
      for (const std::size_t i : region.read_indices) {
        reads.push_back(sorted[i].sequence);
      }
      const std::string_view window =
          reference.slice(region.contig_id, region.start, region.size());
      haplotypes[r] = caller::assemble_haplotypes(reads, window).haplotypes;
      total += haplotypes[r].size();
    }
    m.set("caller.assemble_s", t.seconds());
    m.set("caller.haplotypes", static_cast<double>(total));
  }
  {
    const trace::ScopedSpan span("bench.replay.caller.PairHmm",
                                 trace::SpanKind::kProcess);
    caller::PairHmm hmm;
    std::uint64_t calls = 0, cells = 0;
    const Timer t;
    for (std::size_t r = 0; r < regions.size(); ++r) {
      const auto& indices = regions[r].read_indices;
      const std::size_t n = std::min(indices.size(), kHmmReadsPerRegion);
      for (std::size_t k = 0; k < n; ++k) {
        const SamRecord& read = sorted[indices[k]];
        for (const std::string& hap : haplotypes[r]) {
          hmm.log10_likelihood(read.sequence, read.quality, hap);
          ++calls;
          cells += read.sequence.size() * hap.size();
        }
      }
    }
    const double s = t.seconds();
    m.set("caller.pairhmm_mcells_per_s",
          per_second(static_cast<double>(cells) / 1e6, s));
    m.set("caller.pairhmm_calls", static_cast<double>(calls));
  }
}

/// Returns false when decode(encode(records)) does not reproduce them.
bool replay_compress(const Reference& reference,
                     const std::vector<SamRecord>& records, Metrics& m) {
  const trace::ScopedSpan span("bench.replay.compress.sam_codec",
                               trace::SpanKind::kProcess);
  SamHeader header;
  for (const auto& c : reference.contigs()) {
    header.contigs.push_back(
        {c.name, static_cast<std::int64_t>(c.sequence.size())});
  }
  const std::string text = write_sam(header, records);
  const double mb = static_cast<double>(text.size()) / 1e6;

  std::vector<std::uint8_t> encoded;
  std::size_t rounds = 0;
  Timer t;
  do {
    encoded = encode_sam_batch(records, Codec::kGpf);
    ++rounds;
  } while (t.seconds() < kCodecLoopSeconds);
  m.set("compress.sam_encode_mb_per_s",
        per_second(mb * static_cast<double>(rounds), t.seconds()));

  std::vector<SamRecord> decoded;
  rounds = 0;
  t.reset();
  do {
    decoded = decode_sam_batch(encoded, Codec::kGpf);
    ++rounds;
  } while (t.seconds() < kCodecLoopSeconds);
  m.set("compress.sam_decode_mb_per_s",
        per_second(mb * static_cast<double>(rounds), t.seconds()));
  m.set("compress.sam_ratio",
        per_second(static_cast<double>(text.size()),
                   static_cast<double>(encoded.size())));
  m.set("compress.sam_text_bytes", static_cast<double>(text.size()));
  return write_sam(header, decoded) == text;
}

}  // namespace

int cmd_replay(int argc, char** argv) {
  const std::string in = flag_value(argc, argv, "--in");
  const std::string metrics_path = flag_value(argc, argv, "--metrics");
  const std::string trace_path = flag_value(argc, argv, "--trace");
  if (in.empty() || metrics_path.empty()) {
    std::fprintf(stderr, "usage: wgsbench replay --in DIR --metrics M.json "
                         "[--trace T.json]\n");
    return 2;
  }
  const std::filesystem::path dir(in);
  const Reference reference = core::load_fasta_file((dir / kRefFile).string());
  // The replay covers the reads simulated from the first contig: the
  // full depth of a contiguous stretch of genome, so regions, duplicates
  // and pileups look as they do in the pipeline, at a fraction of its
  // single-threaded cost.
  std::vector<FastqPair> pairs;
  for (FastqPair& p : core::load_fastq_pair_files(
           (dir / kReads1File).string(), (dir / kReads2File).string())) {
    const auto origin = truth_origin(reference, p.first.name);
    if (origin && origin->first == 0) pairs.push_back(std::move(p));
  }
  const VcfFile known = core::load_vcf_file((dir / kKnownFile).string());

  trace::TraceRecorder& recorder = trace::TraceRecorder::global();
  if (!trace_path.empty()) {
    recorder.clear();
    recorder.enable();
  }
  Metrics m;
  std::vector<SamRecord> records;
  replay_align(reference, pairs, records, m);
  replay_cleaner(reference, known.records, records, m);
  replay_caller(reference, records, m);
  const bool codec_ok = replay_compress(reference, records, m);
  m.set("compress.roundtrip_ok", codec_ok ? 1.0 : 0.0);

  if (!trace_path.empty()) {
    recorder.disable();
    const std::vector<trace::Span> spans = recorder.drain();
    if (!trace::write_chrome_trace_file(trace_path, spans)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  if (!m.write_json(metrics_path)) {
    std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
    return 1;
  }
  if (!codec_ok) {
    std::fprintf(stderr, "SAM codec round trip changed the records\n");
    return 1;
  }
  return 0;
}

}  // namespace wgsbench
