// wgsbench: the process-per-repetition side of the end-to-end WGS
// benchmark (wgsbench/run.py drives it).
//
//   wgsbench gen --out DIR --seed N [--shape uniform|skew] [--size full|tiny]
//       simulates a sample and writes DIR/{ref.fa,r1.fastq,r2.fastq,
//       truth.vcf,known.vcf}; known sites are every other truth record
//   wgsbench run --in DIR --out OUT.vcf --metrics M.json
//       [--backend inprocess|spill|distributed] [--store-budget BYTES]
//       [--workers N] [--spill-dir DIR] [--adaptive] [--trace T.json]
//       one pipeline repetition as a user runs it (pipeline_run.cpp)
//   wgsbench replay --in DIR --metrics M.json [--trace T.json]
//       single-threaded calls into each layer's public API (replay.cpp)
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_io.hpp"
#include "core/file_io.hpp"
#include "simdata/read_sim.hpp"
#include "simdata/reference_gen.hpp"
#include "simdata/variant_gen.hpp"

namespace wgsbench {
namespace {

using namespace gpf;

struct Shape {
  std::int64_t genome_length;
  int contigs;
  /// Mean depth over the whole genome.
  double coverage;
  /// > 1: one hot spot, sampled this many times as densely as the rest.
  double hotspot_multiplier;
};

/// Input sizes.  "full" is WorkloadPreset::wgs() (three contigs, 12x)
/// at twice its genome length, so the caller's per-region cost averages
/// over more regions; the skew shape has that preset's hot spot (one
/// 10 kb sampling region at 20x the depth of the rest, about 3% of the
/// genome).  "tiny" is the self-test size.
Shape shape_for(const std::string& shape, const std::string& size) {
  const bool tiny = size == "tiny";
  if (!tiny && size != "full") {
    throw std::invalid_argument("unknown --size '" + size + "'");
  }
  Shape s{300'000, 3, 12.0, 1.0};
  if (tiny) {
    s.genome_length = 30'000;
    s.contigs = 2;
  }
  if (shape == "skew") {
    // On the tiny genome a 20x hot spot would leave the rest at ~1x.
    s.hotspot_multiplier = tiny ? 4.0 : 20.0;
  } else if (shape != "uniform") {
    throw std::invalid_argument("unknown --shape '" + shape + "'");
  }
  return s;
}

/// simdata's sampling-region size: targets select whole regions.
constexpr std::int64_t kSampleRegion = 10'000;

/// The hot spot: a 10 kb sampling region of contig 0 that lies inside one
/// pipeline partition and holds a typical share of the truth variants —
/// the SNP and indel counts closest to the genome-wide mean per region,
/// first region on ties.  A hot spot's cost is set by the variants under
/// it (indels drive realignment, SNPs the caller's regions), so a randomly
/// placed one made wall time swing with where it fell rather than with
/// the code.
BedInterval hotspot_for(const Reference& reference,
                        const std::vector<VcfRecord>& truth) {
  const std::int64_t partition = partition_length_for(reference);
  const auto contig_len =
      static_cast<std::int64_t>(reference.contig(0).sequence.size());
  const double regions =
      static_cast<double>(reference.total_length()) / kSampleRegion;
  double mean_snps = 0.0, mean_indels = 0.0;
  for (const VcfRecord& v : truth) {
    (v.ref.size() == v.alt.size() ? mean_snps : mean_indels) += 1.0 / regions;
  }
  std::int64_t best = 0;
  double best_score = -1.0;
  for (std::int64_t s = 0; s + kSampleRegion <= contig_len;
       s += kSampleRegion) {
    if (s / partition != (s + kSampleRegion - 1) / partition) continue;
    double snps = 0.0, indels = 0.0;
    for (const VcfRecord& v : truth) {
      if (v.contig_id != 0 || v.pos < s || v.pos >= s + kSampleRegion) {
        continue;
      }
      (v.ref.size() == v.alt.size() ? snps : indels) += 1.0;
    }
    // About one indel falls in a region, and each one costs a whole
    // realignment window, so indels weigh more than SNPs.
    const double score = std::abs(snps - mean_snps) +
                         10.0 * std::abs(indels - mean_indels);
    if (best_score < 0.0 || score < best_score) {
      best = s;
      best_score = score;
    }
  }
  return {0, best, best + kSampleRegion, "hotspot"};
}

/// Interleaves `extra` into `pairs` evenly, keeping both orders.
std::vector<FastqPair> interleave(std::vector<FastqPair> pairs,
                                  std::vector<FastqPair> extra) {
  std::vector<FastqPair> out;
  out.reserve(pairs.size() + extra.size());
  std::size_t a = 0, b = 0;
  while (a < pairs.size() || b < extra.size()) {
    const bool take_extra =
        b < extra.size() &&
        (a == pairs.size() || b * pairs.size() <= a * extra.size());
    out.push_back(std::move(take_extra ? extra[b++] : pairs[a++]));
  }
  return out;
}

int cmd_gen(int argc, char** argv) {
  const std::string out = flag_value(argc, argv, "--out");
  const std::string seed_text = flag_value(argc, argv, "--seed");
  if (out.empty() || seed_text.empty()) {
    std::fprintf(stderr, "usage: wgsbench gen --out DIR --seed N "
                         "[--shape uniform|skew] [--size full|tiny]\n");
    return 2;
  }
  const std::uint64_t seed = std::stoull(seed_text);
  const Shape shape = shape_for(flag_value(argc, argv, "--shape", "uniform"),
                                flag_value(argc, argv, "--size", "full"));
  // Reference, truth variants and reads all follow the seed, each from
  // its own stream.
  simdata::VariantSpec variants;
  variants.seed = seed * 40503ULL + 7;
  simdata::Workload w;
  w.reference = simdata::generate_reference(simdata::ReferenceSpec::genome(
      shape.genome_length, shape.contigs, seed * 7919ULL + 3));
  w.truth = simdata::spawn_variants(w.reference, variants);
  const simdata::Donor donor(w.reference, w.truth);

  // A hot spot takes its reads from the background, so every shape has
  // the same read count: background depth d with (m - 1) * d extra over
  // one region averages to `coverage`.
  const double genome = static_cast<double>(w.reference.total_length());
  const double extra_share = (shape.hotspot_multiplier - 1.0) *
                             static_cast<double>(kSampleRegion) / genome;
  simdata::ReadSimSpec spec;
  spec.coverage = shape.coverage / (1.0 + extra_share);
  spec.seed = seed * 2654435761ULL + 17;
  w.sample = simdata::simulate_reads(w.reference, donor, spec);
  if (shape.hotspot_multiplier > 1.0) {
    simdata::ReadSimSpec hot = spec;
    hot.coverage = spec.coverage * extra_share;
    hot.targets = {hotspot_for(w.reference, w.truth)};
    hot.on_target_fraction = 1.0;
    hot.seed = spec.seed + 1;
    simdata::SimulatedSample extra =
        simdata::simulate_reads(w.reference, donor, hot);
    // Keep read names unique across the two samples.
    for (FastqPair& p : extra.pairs) {
      p.first.name.insert(p.first.name.size() - 2, ":hot");
      p.second.name.insert(p.second.name.size() - 2, ":hot");
    }
    w.sample.pairs =
        interleave(std::move(w.sample.pairs), std::move(extra.pairs));
  }

  std::vector<VcfRecord> known;
  for (std::size_t i = 0; i < w.truth.size(); i += 2) {
    known.push_back(w.truth[i]);
  }
  const std::filesystem::path dir(out);
  std::filesystem::create_directories(dir);
  core::save_fasta_file((dir / kRefFile).string(), w.reference);
  core::save_fastq_pair_files((dir / kReads1File).string(),
                              (dir / kReads2File).string(), w.sample.pairs);
  const VcfHeader header = vcf_header_for(w.reference);
  core::save_vcf_file((dir / kTruthFile).string(), header, w.truth);
  core::save_vcf_file((dir / kKnownFile).string(), header, known);
  std::printf("generated %zu bases, %zu pairs, %zu truth variants in %s\n",
              static_cast<std::size_t>(w.reference.total_length()),
              w.sample.pairs.size(), w.truth.size(), out.c_str());
  return 0;
}

}  // namespace
}  // namespace wgsbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: wgsbench gen|run|replay ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen") return wgsbench::cmd_gen(argc - 2, argv + 2);
    if (cmd == "run") return wgsbench::cmd_run(argc - 2, argv + 2);
    if (cmd == "replay") return wgsbench::cmd_replay(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wgsbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 2;
}
