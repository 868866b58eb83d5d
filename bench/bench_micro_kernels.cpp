// Micro-benchmarks (google-benchmark) for the compute kernels behind the
// pipeline stages: FM-index search, Smith-Waterman extension, pair-HMM,
// the genomic codecs, and duplicate marking.
//
// Two modes:
//  * default — the usual google-benchmark CLI (filters, repetitions, ...).
//  * --json[=path] — the perf-regression harness: times each hot kernel on
//    its scalar/reference implementation and on the dispatched fast path,
//    checks the two produce identical output, and writes a machine-readable
//    report (default BENCH_kernels.json).  Exit code 2 if any kernel's fast
//    path disagrees with its reference, so CI can use it as a smoke test.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string_view>

#include "align/bwamem.hpp"
#include "align/fm_index.hpp"
#include "align/smith_waterman.hpp"
#include "align/suffix_array.hpp"
#include "caller/pairhmm.hpp"
#include "cleaner/markdup.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "compress/bitio.hpp"
#include "compress/qual_codec.hpp"
#include "compress/record_codec.hpp"
#include "compress/seq_codec.hpp"
#include "formats/fastq.hpp"
#include "formats/sam.hpp"
#include "formats/scan.hpp"
#include "formats/vcf.hpp"
#include "simdata/quality_model.hpp"
#include "simdata/read_sim.hpp"
#include "simdata/reference_gen.hpp"

using namespace gpf;

namespace {

const Reference& bench_reference() {
  static Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::genome(200'000, 2, 777));
  return ref;
}

const align::FmIndex& bench_index() {
  static align::FmIndex index(bench_reference());
  return index;
}

std::vector<FastqRecord> bench_reads(std::size_t n) {
  const auto& ref = bench_reference();
  Rng rng(778);
  std::vector<FastqRecord> reads;
  while (reads.size() < n) {
    const auto cid = static_cast<std::int32_t>(rng.below(2));
    const auto& seq = ref.contig(cid).sequence;
    const std::size_t pos = rng.below(seq.size() - 120);
    std::string s = seq.substr(pos, 100);
    if (s.find('N') != std::string::npos) continue;
    reads.push_back({"r" + std::to_string(reads.size()), std::move(s),
                     std::string(100, 'I')});
  }
  return reads;
}

void BM_FmIndexSearch(benchmark::State& state) {
  const auto& index = bench_index();
  const auto reads = bench_reads(256);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& r = reads[i++ % reads.size()];
    benchmark::DoNotOptimize(
        index.search(std::string_view(r.sequence).substr(0, 19)));
  }
}
BENCHMARK(BM_FmIndexSearch);

void BM_BandedGlobal(benchmark::State& state) {
  const auto& ref = bench_reference();
  const std::string query(ref.slice(0, 1000, 100));
  const std::string target(ref.slice(0, 995, 110));
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::banded_global(query, target, {}, 16));
  }
}
BENCHMARK(BM_BandedGlobal);

void BM_GlocalExtension(benchmark::State& state) {
  const auto& ref = bench_reference();
  const std::string query(ref.slice(0, 2000, 100));
  const std::string target(ref.slice(0, 1976, 148));
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::glocal(query, target, {}, 16));
  }
}
BENCHMARK(BM_GlocalExtension);

void BM_AlignPairedRead(benchmark::State& state) {
  const align::ReadAligner aligner(bench_index());
  const auto& ref = bench_reference();
  const std::string frag(ref.slice(0, 40'000, 350));
  FastqPair pair;
  pair.first = {"p/1", frag.substr(0, 100), std::string(100, 'I')};
  pair.second = {"p/2", simdata::reverse_complement(frag.substr(250, 100)),
                 std::string(100, 'I')};
  for (auto _ : state) {
    benchmark::DoNotOptimize(aligner.align_pair(pair));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_AlignPairedRead);

void BM_PairHmm(benchmark::State& state) {
  const auto& ref = bench_reference();
  const std::string hap(ref.slice(0, 5000, 300));
  const std::string read(ref.slice(0, 5050, 100));
  const std::string qual(100, 'I');
  caller::PairHmm hmm;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmm.log10_likelihood(read, qual, hap));
  }
}
BENCHMARK(BM_PairHmm);

void BM_EncodeFastq(benchmark::State& state) {
  const auto codec = static_cast<Codec>(state.range(0));
  const auto reads = bench_reads(512);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto out = encode_fastq_batch(reads, codec);
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes));
  state.SetLabel(codec_name(codec));
}
BENCHMARK(BM_EncodeFastq)->Arg(0)->Arg(1)->Arg(2);

void BM_DecodeFastq(benchmark::State& state) {
  const auto codec = static_cast<Codec>(state.range(0));
  const auto bytes = encode_fastq_batch(bench_reads(512), codec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_fastq_batch(bytes, codec));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes.size()));
  state.SetLabel(codec_name(codec));
}
BENCHMARK(BM_DecodeFastq)->Arg(0)->Arg(1)->Arg(2);

void BM_MarkDuplicates(benchmark::State& state) {
  const auto reads = bench_reads(1024);
  Rng rng(779);
  std::vector<SamRecord> records;
  for (const auto& r : reads) {
    SamRecord rec;
    rec.qname = r.name;
    rec.contig_id = 0;
    rec.pos = static_cast<std::int64_t>(rng.below(10'000));  // many dups
    rec.cigar = {{CigarOp::kMatch, 100}};
    rec.sequence = r.sequence;
    rec.quality = r.quality;
    records.push_back(std::move(rec));
  }
  for (auto _ : state) {
    std::vector<SamRecord> work = records;
    benchmark::DoNotOptimize(cleaner::mark_duplicates(work));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * records.size()));
}
BENCHMARK(BM_MarkDuplicates);

// --- perf-regression harness (--json mode) ---------------------------------

/// Seconds per call of a reference and a fast implementation, timed
/// interleaved: every repetition times one block of each back to back
/// (alternating which goes first) and each side keeps its minimum over the
/// repetitions.  A burst of host noise then hits both sides of a ratio
/// alike, instead of only the side that had the whole machine to itself
/// or not.  Each side's iteration count is grown until one block lasts at
/// least ~20 ms.
struct CallSeconds {
  double base = 0.0;
  double fast = 0.0;
};

template <typename Base, typename Fast>
CallSeconds seconds_per_call(Base&& base, Fast&& fast) {
  constexpr int kRepetitions = 15;
  auto block = [](auto& fn, std::size_t iters) {
    Timer t;
    for (std::size_t i = 0; i < iters; ++i) fn();
    return t.seconds() / static_cast<double>(iters);
  };
  auto calibrate = [&](auto& fn) {
    fn();  // warm-up (touches caches, trains the branch predictors)
    std::size_t iters = 1;
    while (block(fn, iters) * static_cast<double>(iters) < 0.02) iters *= 4;
    return iters;
  };
  const std::size_t base_iters = calibrate(base);
  const std::size_t fast_iters = calibrate(fast);
  CallSeconds best{std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::infinity()};
  for (int rep = 0; rep < kRepetitions; ++rep) {
    if (rep % 2 == 0) {
      best.base = std::min(best.base, block(base, base_iters));
      best.fast = std::min(best.fast, block(fast, fast_iters));
    } else {
      best.fast = std::min(best.fast, block(fast, fast_iters));
      best.base = std::min(best.base, block(base, base_iters));
    }
  }
  return best;
}

/// Clean ACGT reads with varied lengths (crossing the 4/8/32-base stride
/// boundaries); with_specials additionally injects N runs, an empty read,
/// and an all-N read to exercise the escape fallback.
std::vector<std::string> harness_sequences(bool with_specials) {
  const auto& ref = bench_reference();
  Rng rng(991);
  std::vector<std::string> seqs;
  while (seqs.size() < 512) {
    const auto& contig =
        ref.contig(static_cast<std::int32_t>(rng.below(2))).sequence;
    const std::size_t len = 120 + rng.below(64);
    const std::size_t pos = rng.below(contig.size() - len - 1);
    std::string s = contig.substr(pos, len);
    for (auto& c : s) {
      if (c != 'A' && c != 'C' && c != 'G' && c != 'T') c = 'A';
    }
    if (with_specials && rng.below(4) == 0) {
      const std::size_t at = rng.below(s.size() - 4);
      const std::size_t run = 1 + rng.below(4);
      for (std::size_t i = at; i < at + run; ++i) s[i] = 'N';
    }
    seqs.push_back(std::move(s));
  }
  if (with_specials) {
    seqs.push_back("");
    seqs.push_back(std::string(31, 'N'));
    seqs.push_back("ACGTN");
  }
  return seqs;
}

/// Correlated quality walks (the delta distribution the codec is built
/// for), one per sequence.
std::vector<std::string> harness_qualities(
    const std::vector<std::string>& seqs) {
  Rng rng(992);
  std::vector<std::string> quals;
  quals.reserve(seqs.size());
  for (const auto& s : seqs) {
    std::string q(s.size(), 'I');
    int cur = 'I';
    for (auto& c : q) {
      cur += static_cast<int>(rng.below(5)) - 2;
      cur = std::clamp(cur, '#' + 0, 'J' + 0);
      c = static_cast<char>(cur);
    }
    quals.push_back(std::move(q));
  }
  return quals;
}

struct SwCase {
  std::string query;
  std::string target;
};

/// Fuzzed query/target pairs: the query is a mutated slice of the target
/// (substitutions plus an occasional 1-base indel).
std::vector<SwCase> harness_sw_cases(std::size_t n, std::size_t qlen,
                                     std::size_t tlen) {
  const auto& ref = bench_reference();
  Rng rng(993);
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  std::vector<SwCase> cases;
  const auto& contig = ref.contig(0).sequence;
  while (cases.size() < n) {
    const std::size_t pos = rng.below(contig.size() - tlen - 1);
    std::string target = contig.substr(pos, tlen);
    if (target.find('N') != std::string::npos) continue;
    std::string query = target.substr((tlen - qlen) / 2, qlen);
    for (int k = 0; k < 5; ++k) {
      query[rng.below(query.size())] = kBases[rng.below(4)];
    }
    if (rng.below(2) == 0) {
      query.erase(rng.below(query.size() - 2), 1);
      query.push_back(kBases[rng.below(4)]);
    }
    cases.push_back({std::move(query), std::move(target)});
  }
  return cases;
}

bool same_alignment(const align::AlignmentResult& a,
                    const align::AlignmentResult& b) {
  return a.score == b.score && a.query_start == b.query_start &&
         a.query_end == b.query_end && a.ref_start == b.ref_start &&
         a.ref_end == b.ref_end && a.mismatches == b.mismatches &&
         cigar_to_string(a.cigar) == cigar_to_string(b.cigar);
}

struct KernelReport {
  std::string name;
  std::string unit;
  double baseline = 0.0;   // reference / scalar implementation
  double optimized = 0.0;  // dispatched fast path
  bool outputs_match = false;
};

/// Seed-lookup shape: the aligner's 19-base seeds every 11 bases of 256
/// reads, every fourth read with one substitution so that absent seeds
/// occur too.  The baseline finds each seed's SA interval by binary search
/// over the suffix array and text, with no rank structure at all.
KernelReport report_fm_search() {
  const auto& ref = bench_reference();
  const auto& index = bench_index();
  std::vector<std::uint8_t> text;
  for (std::size_t cid = 0; cid < ref.contig_count(); ++cid) {
    for (const char b : ref.contig(static_cast<std::int32_t>(cid)).sequence) {
      text.push_back(b == 'C' ? 2 : b == 'G' ? 3 : b == 'T' ? 4 : 1);
    }
    text.push_back(0);
  }
  const auto sa = align::build_suffix_array(text);

  std::vector<std::string> seeds;
  const auto reads = bench_reads(256);
  for (std::size_t r = 0; r < reads.size(); ++r) {
    std::string seq = reads[r].sequence;
    char& mid = seq[seq.size() / 2];
    if (r % 4 == 0) mid = mid == 'A' ? 'C' : 'A';
    for (std::size_t off = 0; off + 19 <= seq.size(); off += 11) {
      seeds.push_back(seq.substr(off, 19));
    }
  }
  auto binary_search = [&](std::string_view seed) {
    // Sign of (suffix at pos) vs seed, over the seed's length.
    auto cmp = [&](std::uint32_t pos) {
      for (std::size_t k = 0; k < seed.size(); ++k) {
        const char b = seed[k];
        const std::uint8_t c = b == 'A' ? 1 : b == 'C' ? 2 : b == 'G' ? 3 : 4;
        if (pos + k >= text.size() || text[pos + k] < c) return -1;
        if (text[pos + k] > c) return 1;
      }
      return 0;
    };
    const auto lo = std::partition_point(
        sa.begin(), sa.end(), [&](std::uint32_t p) { return cmp(p) < 0; });
    const auto hi = std::partition_point(
        lo, sa.end(), [&](std::uint32_t p) { return cmp(p) <= 0; });
    return align::SaInterval{static_cast<std::uint32_t>(lo - sa.begin()),
                             static_cast<std::uint32_t>(hi - sa.begin())};
  };

  KernelReport r{"fm_search", "searches/s"};
  const auto [base_s, fast_s] = seconds_per_call(
      [&] {
        for (const auto& s : seeds) benchmark::DoNotOptimize(binary_search(s));
      },
      [&] {
        for (const auto& s : seeds) benchmark::DoNotOptimize(index.search(s));
      });
  r.baseline = static_cast<double>(seeds.size()) / base_s;
  r.optimized = static_cast<double>(seeds.size()) / fast_s;

  r.outputs_match = true;
  for (const auto& s : seeds) {
    const align::SaInterval want = binary_search(s);
    const align::SaInterval got = index.search(s);
    const bool same = want.empty()
                          ? got.empty()
                          : got.lo == want.lo && got.hi == want.hi;
    if (!same) r.outputs_match = false;
  }
  return r;
}

KernelReport report_seq_pack(const simd::Level fast) {
  const auto seqs = harness_sequences(/*with_specials=*/false);
  const auto quals = harness_qualities(seqs);
  double bases = 0;
  for (const auto& s : seqs) bases += static_cast<double>(s.size());

  auto pack_all = [&](simd::Level level) {
    // Clean reads leave the quality untouched, so the persistent strings
    // can be passed straight through.
    auto q = quals;
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      benchmark::DoNotOptimize(
          gpf::detail::compress_sequence_at(level, seqs[i], q[i]));
    }
  };
  KernelReport r{"seq_pack", "MB/s"};
  const auto [base_s, fast_s] = seconds_per_call(
      [&] { pack_all(simd::Level::kScalar); }, [&] { pack_all(fast); });
  r.baseline = bases / base_s / 1e6;
  r.optimized = bases / fast_s / 1e6;

  // Equivalence over the special-laden set: packed bytes and the rewritten
  // quality must be byte-identical.
  r.outputs_match = true;
  const auto mixed = harness_sequences(/*with_specials=*/true);
  const auto mixed_quals = harness_qualities(mixed);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    std::string qa = mixed_quals[i];
    std::string qb = mixed_quals[i];
    const auto ca =
        gpf::detail::compress_sequence_at(simd::Level::kScalar, mixed[i], qa);
    const auto cb = gpf::detail::compress_sequence_at(fast, mixed[i], qb);
    if (ca.packed != cb.packed || ca.length != cb.length || qa != qb) {
      r.outputs_match = false;
    }
  }
  return r;
}

KernelReport report_seq_unpack(const simd::Level fast) {
  const auto seqs = harness_sequences(/*with_specials=*/false);
  auto quals = harness_qualities(seqs);
  std::vector<CompressedSequence> packed;
  packed.reserve(seqs.size());
  double bases = 0;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    packed.push_back(gpf::detail::compress_sequence_at(simd::Level::kScalar,
                                                       seqs[i], quals[i]));
    bases += static_cast<double>(seqs[i].size());
  }

  auto unpack_all = [&](simd::Level level) {
    for (std::size_t i = 0; i < packed.size(); ++i) {
      benchmark::DoNotOptimize(
          gpf::detail::decompress_sequence_at(level, packed[i], quals[i]));
    }
  };
  KernelReport r{"seq_unpack", "MB/s"};
  const auto [base_s, fast_s] = seconds_per_call(
      [&] { unpack_all(simd::Level::kScalar); }, [&] { unpack_all(fast); });
  r.baseline = bases / base_s / 1e6;
  r.optimized = bases / fast_s / 1e6;

  r.outputs_match = true;
  const auto mixed = harness_sequences(/*with_specials=*/true);
  const auto mixed_quals = harness_qualities(mixed);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    std::string enc_q = mixed_quals[i];
    const auto comp = gpf::detail::compress_sequence_at(simd::Level::kScalar,
                                                        mixed[i], enc_q);
    std::string qa = enc_q;
    std::string qb = enc_q;
    const std::string sa =
        gpf::detail::decompress_sequence_at(simd::Level::kScalar, comp, qa);
    const std::string sb =
        gpf::detail::decompress_sequence_at(fast, comp, qb);
    if (sa != sb || qa != qb) r.outputs_match = false;
  }
  return r;
}

KernelReport report_qual_decode(const simd::Level fast) {
  const auto seqs = harness_sequences(/*with_specials=*/false);
  const auto quals = harness_qualities(seqs);
  const QualityCodec codec = QualityCodec::train(quals);
  BitWriter bw;
  for (const auto& q : quals) codec.encode(q, bw);
  const auto bits = bw.finish();
  double chars = 0;
  for (const auto& q : quals) chars += static_cast<double>(q.size());

  auto decode_all = [&](simd::Level level) {
    BitReader br(std::span(bits.data(), bits.size()));
    for (std::size_t i = 0; i < quals.size(); ++i) {
      benchmark::DoNotOptimize(codec.decode_at(level, br));
    }
  };
  KernelReport r{"qual_decode", "MB/s"};
  const auto [base_s, fast_s] = seconds_per_call(
      [&] { decode_all(simd::Level::kScalar); }, [&] { decode_all(fast); });
  r.baseline = chars / base_s / 1e6;
  r.optimized = chars / fast_s / 1e6;

  r.outputs_match = true;
  BitReader ba(std::span(bits.data(), bits.size()));
  BitReader bb(std::span(bits.data(), bits.size()));
  for (std::size_t i = 0; i < quals.size(); ++i) {
    const std::string da = codec.decode_at(simd::Level::kScalar, ba);
    const std::string db = codec.decode_at(fast, bb);
    if (da != quals[i] || db != quals[i]) r.outputs_match = false;
  }
  return r;
}

KernelReport report_sw(const char* name, bool glocal_mode) {
  const auto cases = glocal_mode ? harness_sw_cases(32, 100, 148)
                                 : harness_sw_cases(32, 100, 110);
  const align::ScoringScheme scoring;
  const int band = 16;

  auto run_fast = [&](const SwCase& c) {
    return glocal_mode ? align::glocal(c.query, c.target, scoring, band)
                       : align::banded_global(c.query, c.target, scoring,
                                              band);
  };
  auto run_ref = [&](const SwCase& c) {
    return glocal_mode
               ? align::detail::glocal_reference(c.query, c.target, scoring,
                                                 band)
               : align::detail::banded_global_reference(c.query, c.target,
                                                        scoring, band);
  };

  KernelReport r{name, "alignments/s"};
  const auto [base_s, fast_s] = seconds_per_call(
      [&] {
        for (const auto& c : cases) benchmark::DoNotOptimize(run_ref(c));
      },
      [&] {
        for (const auto& c : cases) benchmark::DoNotOptimize(run_fast(c));
      });
  r.baseline = static_cast<double>(cases.size()) / base_s;
  r.optimized = static_cast<double>(cases.size()) / fast_s;

  r.outputs_match = true;
  for (const auto& c : cases) {
    if (!same_alignment(run_ref(c), run_fast(c))) r.outputs_match = false;
  }
  return r;
}

/// Read-extension shape: mate-1 reads from the simulator (its quality and
/// error model, so full-length exact matches occur at their real rate)
/// against the aligner's window, the read's truth span plus a 24-base
/// flank on each side, at the aligner's band of 16.  `mismatched_only`
/// keeps the reads that differ from their window's truth span, the ones
/// the perfect-match exit does not answer.
KernelReport report_sw_extend(const char* name, bool mismatched_only) {
  simdata::ReadSimSpec spec;
  spec.coverage = 6.0;
  spec.seed = 994;
  const auto w = simdata::make_workload(60'000, 1, spec);
  constexpr std::int64_t kFlank = 24;
  std::vector<SwCase> cases;
  std::size_t exact = 0;
  for (const auto& p : w.sample.pairs) {
    if (cases.size() == 512) break;
    // Names are "sim:<contig>:<refpos>:<serial>/1".
    const std::string& name = p.first.name;
    const std::size_t a = name.find(':', 4);
    const std::int64_t pos = std::stoll(name.substr(a + 1));
    const auto len = static_cast<std::int64_t>(p.first.sequence.size());
    if (pos < kFlank) continue;
    const std::string_view window =
        w.reference.slice(0, pos - kFlank, len + 2 * kFlank);
    const bool is_exact = window.substr(kFlank, len) == p.first.sequence;
    if (mismatched_only && is_exact) continue;
    exact += is_exact;
    cases.push_back({p.first.sequence, std::string(window)});
  }
  const align::ScoringScheme scoring;
  const int band = 16;

  KernelReport r{name, "alignments/s"};
  const auto [base_s, fast_s] = seconds_per_call(
      [&] {
        for (const auto& c : cases) {
          benchmark::DoNotOptimize(align::detail::glocal_reference(
              c.query, c.target, scoring, band));
        }
      },
      [&] {
        for (const auto& c : cases) {
          benchmark::DoNotOptimize(
              align::glocal(c.query, c.target, scoring, band));
        }
      });
  r.baseline = static_cast<double>(cases.size()) / base_s;
  r.optimized = static_cast<double>(cases.size()) / fast_s;

  r.outputs_match = true;
  for (const auto& c : cases) {
    if (!same_alignment(
            align::detail::glocal_reference(c.query, c.target, scoring, band),
            align::glocal(c.query, c.target, scoring, band))) {
      r.outputs_match = false;
    }
  }
  std::printf("%s: %zu of %zu reads match their window exactly\n", name,
              exact, cases.size());
  return r;
}

/// Active-region shape: per region, four 250-base haplotypes (reference,
/// SNP, deletion, insertion) against 48 simulator-quality 100-base reads
/// drawn from them with a sprinkling of substitutions.  The baseline is one
/// scalar-kernel call per (read, haplotype) pair; the fast path scores each
/// haplotype against the whole batch at the dispatched level.
KernelReport report_pairhmm(const simd::Level fast) {
  const auto& ref = bench_reference();
  const auto profile = simdata::QualityProfile::srr622461();
  Rng rng(995);
  struct Region {
    std::vector<std::string> haps;
    std::vector<std::string> bases, quals;
    std::vector<caller::HmmRead> reads;
  };
  std::vector<Region> regions(8);
  double cells = 0;
  for (std::size_t k = 0; k < regions.size(); ++k) {
    Region& g = regions[k];
    const std::string base(ref.slice(0, 20'000 + 3'000 * k, 250));
    std::string snp = base;
    snp[125] = snp[125] == 'A' ? 'C' : 'A';
    std::string del = base;
    del.erase(120, 3);
    std::string ins = base;
    ins.insert(130, "TTG");
    g.haps = {base, snp, del, ins};
    for (int r = 0; r < 48; ++r) {
      const std::string& src = g.haps[rng.below(g.haps.size())];
      std::string b = src.substr(rng.below(src.size() - 100), 100);
      if (rng.below(3) == 0) b[rng.below(b.size())] = "ACGT"[rng.below(4)];
      g.quals.push_back(profile.sample_read(rng, 100));
      g.bases.push_back(std::move(b));
    }
    for (std::size_t r = 0; r < g.bases.size(); ++r) {
      g.reads.push_back({g.bases[r], g.quals[r]});
    }
    for (const auto& h : g.haps) {
      cells += static_cast<double>(h.size()) * 100.0 * 48.0;
    }
  }

  caller::PairHmm hmm;
  std::vector<double> column;
  auto run_scalar = [&](Region& g, std::vector<double>& out) {
    out.clear();
    for (const auto& h : g.haps) {
      for (const auto& read : g.reads) {
        out.push_back(hmm.log10_likelihood(read.bases, read.quality, h));
      }
    }
  };
  auto run_fast = [&](Region& g, std::vector<double>& out) {
    out.clear();
    column.resize(g.reads.size());
    for (const auto& h : g.haps) {
      hmm.log10_likelihoods_at(fast, g.reads, h, column);
      out.insert(out.end(), column.begin(), column.end());
    }
  };

  std::vector<double> sink;
  KernelReport r{"pairhmm", "Mcells/s"};
  const auto [base_s, fast_s] = seconds_per_call(
      [&] {
        for (auto& g : regions) run_scalar(g, sink);
        benchmark::DoNotOptimize(sink.data());
      },
      [&] {
        for (auto& g : regions) run_fast(g, sink);
        benchmark::DoNotOptimize(sink.data());
      });
  r.baseline = cells / base_s / 1e6;
  r.optimized = cells / fast_s / 1e6;

  // Bit-identical, not merely close.
  r.outputs_match = true;
  std::vector<double> a, b;
  for (auto& g : regions) {
    run_scalar(g, a);
    run_fast(g, b);
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::bit_cast<std::uint64_t>(a[i]) !=
          std::bit_cast<std::uint64_t>(b[i])) {
        r.outputs_match = false;
      }
    }
  }
  return r;
}

// --- text-parsing kernels (block-parallel front-end) -----------------------

/// Parallel-parse threshold that no input reaches: the parser runs its
/// mask kernels on the calling thread only.
constexpr std::size_t kOneThread = std::numeric_limits<std::size_t>::max();

/// Synthetic FASTQ with varied read lengths (crossing 64-byte block and
/// chunk boundaries at all phases).
std::string synth_fastq_text(std::size_t target_bytes) {
  Rng rng(995);
  std::string text;
  text.reserve(target_bytes + 512);
  std::size_t i = 0;
  while (text.size() < target_bytes) {
    const std::size_t len = 80 + rng.below(73);
    text += "@read";
    text += std::to_string(i++);
    text += '\n';
    for (std::size_t k = 0; k < len; ++k) {
      text += "ACGT"[rng.below(4)];
    }
    text += "\n+\n";
    for (std::size_t k = 0; k < len; ++k) {
      text += static_cast<char>('!' + rng.below(70));
    }
    text += '\n';
  }
  return text;
}

KernelReport report_fastq_scan(const simd::Level fast) {
  // Validation-only scan over >=64 MB: the parse front-end (line index,
  // record grouping, structural + byte-range checks) without record
  // materialization.  The reference is the deliberately byte-at-a-time
  // parser; the fast path adds mask kernels.  Both sides run on one thread
  // (kOneThread keeps the chunked ThreadPool driver off), so the ratio
  // measures the kernel rather than the host's free cores.
  const std::string text = synth_fastq_text(std::size_t{64} << 20);
  const double bytes = static_cast<double>(text.size());

  KernelReport r{"fastq_scan", "MB/s"};
  const auto [base_s, fast_s] = seconds_per_call(
      [&] {
        benchmark::DoNotOptimize(gpf::detail::scan_fastq_reference(text));
      },
      [&] {
        benchmark::DoNotOptimize(
            gpf::detail::scan_fastq_at(fast, text, kOneThread));
      });
  r.baseline = bytes / base_s / 1e6;
  r.optimized = bytes / fast_s / 1e6;

  // Both the timed single-thread path and the pipeline's chunked one.
  const auto want = gpf::detail::scan_fastq_reference(text);
  r.outputs_match = want == gpf::detail::scan_fastq_at(fast, text) &&
                    want == gpf::detail::scan_fastq_at(fast, text, kOneThread);
  // Error-outcome agreement on malformed variants of the same blob.
  const std::string bad[] = {
      text + "@tail\nACGT\n+\nII\n",          // length mismatch
      text + "@tail\nACGT\n+\n",              // truncated
      text.substr(0, text.size() / 2 + 1),    // random mid-record cut
      "\n" + text,                            // leading blank line
  };
  for (const auto& b : bad) {
    std::string ref_err;
    std::string fast_err;
    try {
      gpf::detail::scan_fastq_reference(b);
    } catch (const std::invalid_argument& e) {
      ref_err = e.what();
    }
    try {
      gpf::detail::scan_fastq_at(fast, b);
    } catch (const std::invalid_argument& e) {
      fast_err = e.what();
    }
    if (ref_err != fast_err) r.outputs_match = false;
  }
  return r;
}

KernelReport report_sam_fields(const simd::Level fast) {
  // Tab-splitting of SAM record lines: separator masks vs the byte-loop
  // reference splitter.
  Rng rng(996);
  std::vector<std::string> lines;
  double bytes = 0;
  for (int i = 0; i < 40'000; ++i) {
    std::string seq;
    std::string qual;
    const std::size_t len = 60 + rng.below(90);
    for (std::size_t k = 0; k < len; ++k) {
      seq += "ACGT"[rng.below(4)];
      qual += static_cast<char>('!' + rng.below(70));
    }
    std::string line = "q" + std::to_string(i) + "\t99\tchr1\t" +
                       std::to_string(1 + rng.below(1'000'000)) + "\t60\t" +
                       std::to_string(len) + "M\t=\t" +
                       std::to_string(1 + rng.below(1'000'000)) + "\t150\t" +
                       seq + "\t" + qual;
    bytes += static_cast<double>(line.size());
    lines.push_back(std::move(line));
  }

  std::vector<std::string_view> fields;
  KernelReport r{"sam_fields", "MB/s"};
  const auto [base_s, fast_s] = seconds_per_call(
      [&] {
        for (const auto& line : lines) {
          fmt::detail::split_fields_reference(line, '\t', fields);
          benchmark::DoNotOptimize(fields.data());
        }
      },
      [&] {
        for (const auto& line : lines) {
          fmt::split_fields(fast, line, '\t', fields);
          benchmark::DoNotOptimize(fields.data());
        }
      });
  r.baseline = bytes / base_s / 1e6;
  r.optimized = bytes / fast_s / 1e6;

  r.outputs_match = true;
  std::vector<std::string_view> ref_fields;
  for (const auto& line : lines) {
    fmt::detail::split_fields_reference(line, '\t', ref_fields);
    fmt::split_fields(fast, line, '\t', fields);
    if (ref_fields != fields) r.outputs_match = false;
  }
  return r;
}

KernelReport report_vcf_records(const simd::Level fast) {
  // Full VCF parse (field split + strict POS/QUAL + record build), both
  // sides on one thread as in report_fastq_scan.
  Rng rng(997);
  std::string text =
      "##fileformat=VCFv4.2\n##contig=<ID=chr1,length=249000000>\n"
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\n";
  for (int i = 0; i < 120'000; ++i) {
    text += "chr1\t";
    text += std::to_string(1 + rng.below(200'000'000));
    text += rng.below(2) == 0 ? std::string("\t.\t")
                              : "\trs" + std::to_string(i) + "\t";
    text += "ACGT"[rng.below(4)];
    text += '\t';
    text += "ACGT"[rng.below(4)];
    text += '\t';
    text += std::to_string(rng.below(4000));
    text += "\tPASS\t.\tGT\t0/1\n";
  }
  const double bytes = static_cast<double>(text.size());

  KernelReport r{"vcf_records", "MB/s"};
  const auto [base_s, fast_s] = seconds_per_call(
      [&] {
        benchmark::DoNotOptimize(gpf::detail::parse_vcf_reference(text));
      },
      [&] {
        benchmark::DoNotOptimize(
            gpf::detail::parse_vcf_at(fast, text, kOneThread));
      });
  r.baseline = bytes / base_s / 1e6;
  r.optimized = bytes / fast_s / 1e6;

  const VcfFile a = gpf::detail::parse_vcf_reference(text);
  r.outputs_match = a == gpf::detail::parse_vcf_at(fast, text) &&
                    a == gpf::detail::parse_vcf_at(fast, text, kOneThread);
  return r;
}

int run_json_harness(const std::string& path) {
  const simd::Level fast = simd::active_level();
  std::vector<KernelReport> reports;
  reports.push_back(report_fm_search());
  reports.push_back(report_seq_pack(fast));
  reports.push_back(report_seq_unpack(fast));
  reports.push_back(report_qual_decode(fast));
  reports.push_back(report_sw("sw_banded_global", /*glocal_mode=*/false));
  reports.push_back(report_sw("sw_glocal", /*glocal_mode=*/true));
  reports.push_back(report_sw_extend("sw_extend", /*mismatched_only=*/false));
  reports.push_back(
      report_sw_extend("sw_extend_mismatch", /*mismatched_only=*/true));
  reports.push_back(report_pairhmm(fast));
  reports.push_back(report_fastq_scan(fast));
  reports.push_back(report_sam_fields(fast));
  reports.push_back(report_vcf_records(fast));

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  char buf[256];
  out << "{\n  \"simd_level\": \"" << simd::level_name(fast)
      << "\",\n  \"threads\": " << ThreadPool::global().size()
      << ",\n  \"kernels\": [\n";
  bool all_match = true;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const KernelReport& r = reports[i];
    const double speedup = r.baseline > 0 ? r.optimized / r.baseline : 0.0;
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"unit\": \"%s\", "
                  "\"baseline\": %.2f, \"optimized\": %.2f, "
                  "\"speedup\": %.2f, \"outputs_match\": %s}%s\n",
                  r.name.c_str(), r.unit.c_str(), r.baseline, r.optimized,
                  speedup, r.outputs_match ? "true" : "false",
                  i + 1 < reports.size() ? "," : "");
    out << buf;
    std::printf("%-18s %10.2f -> %10.2f %-13s %5.2fx  %s\n", r.name.c_str(),
                r.baseline, r.optimized, r.unit.c_str(), speedup,
                r.outputs_match ? "ok" : "MISMATCH");
    all_match = all_match && r.outputs_match;
  }
  out << "  ]\n}\n";
  std::printf("wrote %s (simd level: %s)\n", path.c_str(),
              simd::level_name(fast));
  return all_match ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") return run_json_harness("BENCH_kernels.json");
    if (arg.rfind("--json=", 0) == 0) {
      return run_json_harness(std::string(arg.substr(7)));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
