// Tests for the HaplotypeCaller stack: active regions, assembly, pair-HMM,
// genotyping, and end-to-end variant calling against planted truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "align/bwamem.hpp"
#include "align/fm_index.hpp"
#include "caller/active_region.hpp"
#include "caller/assembler.hpp"
#include "caller/genotyper.hpp"
#include "caller/gvcf.hpp"
#include "caller/haplotype_caller.hpp"
#include "caller/pairhmm.hpp"
#include "cleaner/sorter.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "simdata/read_sim.hpp"
#include "simdata/reference_gen.hpp"
#include "simdata/variant_gen.hpp"

namespace gpf::caller {
namespace {

SamRecord read_at(const Reference& ref, std::int64_t pos, int len,
                  std::string seq = {}) {
  SamRecord r;
  r.qname = "r" + std::to_string(pos);
  r.contig_id = 0;
  r.pos = pos;
  r.sequence = seq.empty() ? std::string(ref.slice(0, pos, len)) : seq;
  r.quality = std::string(r.sequence.size(), 'I');
  r.cigar = {{CigarOp::kMatch, static_cast<std::uint32_t>(r.sequence.size())}};
  return r;
}

// --- active regions ------------------------------------------------------------

TEST(ActiveRegion, CleanReadsProduceNoRegions) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(10'000, 151));
  std::vector<SamRecord> records;
  for (int i = 0; i < 50; ++i) records.push_back(read_at(ref, i * 100, 80));
  const auto regions = find_active_regions(records, ref);
  EXPECT_TRUE(regions.empty());
}

TEST(ActiveRegion, SnpPileupCreatesRegion) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(10'000, 157));
  std::vector<SamRecord> records;
  for (int i = 0; i < 6; ++i) {
    auto rec = read_at(ref, 5000 - i * 10, 80);
    // Mutate the base covering reference position 5030.
    const std::size_t offset = static_cast<std::size_t>(5030 - rec.pos);
    rec.sequence[offset] = rec.sequence[offset] == 'A' ? 'C' : 'A';
    records.push_back(std::move(rec));
  }
  cleaner::coordinate_sort(records);
  const auto regions = find_active_regions(records, ref);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_LE(regions[0].start, 5030);
  EXPECT_GT(regions[0].end, 5030);
  EXPECT_EQ(regions[0].read_indices.size(), 6u);
}

TEST(ActiveRegion, DuplicatesContributeNothing) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(10'000, 163));
  std::vector<SamRecord> records;
  for (int i = 0; i < 6; ++i) {
    auto rec = read_at(ref, 5000, 80);
    rec.sequence[30] = rec.sequence[30] == 'A' ? 'C' : 'A';
    rec.flag |= SamFlags::kDuplicate;
    records.push_back(std::move(rec));
  }
  EXPECT_TRUE(find_active_regions(records, ref).empty());
}

TEST(ActiveRegion, LowQualityMismatchesIgnored) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(10'000, 167));
  std::vector<SamRecord> records;
  for (int i = 0; i < 6; ++i) {
    auto rec = read_at(ref, 5000, 80);
    rec.sequence[30] = rec.sequence[30] == 'A' ? 'C' : 'A';
    rec.quality[30] = '#';  // Phred 2
    records.push_back(std::move(rec));
  }
  EXPECT_TRUE(find_active_regions(records, ref).empty());
}

// --- assembler ------------------------------------------------------------------

TEST(Assembler, ReferenceOnlyWithoutReads) {
  const std::string window(200, 'A');
  const auto result = assemble_haplotypes({}, window);
  ASSERT_EQ(result.haplotypes.size(), 1u);
  EXPECT_EQ(result.haplotypes[0], window);
  EXPECT_FALSE(result.assembled);
}

TEST(Assembler, RecoversSnpHaplotype) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(1'000, 173));
  const std::string window(ref.slice(0, 400, 150));
  std::string alt = window;
  alt[75] = alt[75] == 'A' ? 'G' : 'A';
  // Reads tiled across the alt haplotype.
  std::vector<std::string> reads;
  for (int start = 0; start + 60 <= 150; start += 10) {
    reads.push_back(alt.substr(start, 60));
    reads.push_back(alt.substr(start, 60));  // 2x support per kmer
  }
  std::vector<std::string_view> views(reads.begin(), reads.end());
  const auto result = assemble_haplotypes(views, window);
  EXPECT_TRUE(result.assembled);
  EXPECT_NE(std::find(result.haplotypes.begin(), result.haplotypes.end(),
                      alt),
            result.haplotypes.end());
}

TEST(Assembler, RecoversDeletionHaplotype) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(1'000, 179));
  const std::string window(ref.slice(0, 300, 160));
  const std::string alt = window.substr(0, 80) + window.substr(86);
  std::vector<std::string> reads;
  for (std::size_t start = 0; start + 60 <= alt.size(); start += 8) {
    reads.push_back(alt.substr(start, 60));
    reads.push_back(alt.substr(start, 60));
  }
  std::vector<std::string_view> views(reads.begin(), reads.end());
  const auto result = assemble_haplotypes(views, window);
  EXPECT_TRUE(result.assembled);
  EXPECT_NE(std::find(result.haplotypes.begin(), result.haplotypes.end(),
                      alt),
            result.haplotypes.end());
}

TEST(Assembler, LowSupportKmersPruned) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(1'000, 181));
  const std::string window(ref.slice(0, 100, 150));
  std::string alt = window;
  alt[75] = alt[75] == 'C' ? 'T' : 'C';
  // Only one read supports the alt: below min_kmer_count=2.
  std::vector<std::string> reads = {alt.substr(50, 60)};
  std::vector<std::string_view> views(reads.begin(), reads.end());
  const auto result = assemble_haplotypes(views, window);
  EXPECT_EQ(std::find(result.haplotypes.begin(), result.haplotypes.end(),
                      alt),
            result.haplotypes.end());
}

TEST(Assembler, HaplotypeCountBounded) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(1'000, 191));
  const std::string window(ref.slice(0, 0, 200));
  std::vector<std::string> reads;
  Rng rng(193);
  // Noisy reads create many branches.
  for (int i = 0; i < 100; ++i) {
    std::string r = window.substr(rng.below(130), 60);
    for (int m = 0; m < 4; ++m) {
      r[rng.below(r.size())] = "ACGT"[rng.below(4)];
    }
    reads.push_back(std::move(r));
    reads.push_back(reads.back());
  }
  std::vector<std::string_view> views(reads.begin(), reads.end());
  AssemblerOptions options;
  options.max_haplotypes = 8;
  const auto result = assemble_haplotypes(views, window, options);
  EXPECT_LE(result.haplotypes.size(), 9u);  // ref + max 8
}

// --- pair-HMM -------------------------------------------------------------------

TEST(PairHmm, PerfectMatchBeatsMismatch) {
  PairHmm hmm;
  const std::string hap = "ACGTACGTACGTACGTACGT";
  const std::string read = hap.substr(4, 12);
  std::string mismatched = read;
  mismatched[6] = mismatched[6] == 'A' ? 'C' : 'A';
  const std::string qual(read.size(), 'I');
  EXPECT_GT(hmm.log10_likelihood(read, qual, hap),
            hmm.log10_likelihood(mismatched, qual, hap));
}

TEST(PairHmm, HighQualityMismatchPenalizedMore) {
  PairHmm hmm;
  const std::string hap = "ACGTACGTACGTACGTACGT";
  std::string read = hap.substr(4, 12);
  read[6] = read[6] == 'A' ? 'C' : 'A';
  std::string high_q(read.size(), 'I');   // Q40
  std::string low_q(read.size(), '$');    // Q3
  EXPECT_LT(hmm.log10_likelihood(read, high_q, hap),
            hmm.log10_likelihood(read, low_q, hap));
}

TEST(PairHmm, GapCheaperThanManyMismatches) {
  PairHmm hmm;
  const std::string hap = "AAAACCCCGGGGTTTTAAAACCCC";
  // Read matching hap with a 2-base deletion.
  const std::string read = "AAAACCCCGGTTTTAAAA";
  // Same read against a haplotype without the deletion context would need
  // many mismatches.
  const std::string qual(read.size(), 'I');
  const double with_gap = hmm.log10_likelihood(read, qual, hap);
  EXPECT_GT(with_gap, -10.0);
}

TEST(PairHmm, LikelihoodIsLogProbability) {
  PairHmm hmm;
  const std::string hap = "ACGTACGTACGT";
  const std::string read = "ACGT";
  const double ll = hmm.log10_likelihood(read, "IIII", hap);
  EXPECT_LE(ll, 0.0);
  EXPECT_GT(ll, -20.0);
}

TEST(PairHmm, MismatchedLengthsThrow) {
  PairHmm hmm;
  EXPECT_THROW(hmm.log10_likelihood("ACGT", "II", "ACGT"),
               std::invalid_argument);
}

TEST(PairHmm, LongReadNoUnderflow) {
  PairHmm hmm;
  const std::string hap(400, 'A');
  const std::string read(250, 'A');
  const std::string qual(250, 'I');
  const double ll = hmm.log10_likelihood(read, qual, hap);
  EXPECT_TRUE(std::isfinite(ll));
  EXPECT_GT(ll, -100.0);
}

// --- lane-batched pair-HMM ---------------------------------------------------
//
// log10_likelihoods scores a haplotype against many reads, one read per SIMD
// lane.  Every lane must reproduce the scalar kernel's double bit for bit,
// at every dispatch level this CPU supports.

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::detect_level() >= simd::Level::kSse4) {
    levels.push_back(simd::Level::kSse4);
  }
  if (simd::detect_level() >= simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  return levels;
}

std::string random_read(Rng& rng, std::size_t n, const char* alphabet) {
  const std::size_t k = std::strlen(alphabet);
  std::string s(n, 'A');
  for (auto& c : s) c = alphabet[rng.below(k)];
  return s;
}

std::string random_quals(Rng& rng, std::size_t n) {
  std::string q(n, 'I');
  for (auto& c : q) c = static_cast<char>('!' + rng.below('J' - '!' + 1));
  return q;
}

/// Batched scores at every supported level must equal the scalar kernel's,
/// compared as bit patterns.
void expect_batch_bit_identical(const std::vector<std::string>& bases,
                                const std::vector<std::string>& quals,
                                const std::string& hap,
                                const std::string& label,
                                PairHmmOptions options = {}) {
  std::vector<HmmRead> reads;
  for (std::size_t r = 0; r < bases.size(); ++r) {
    reads.push_back({bases[r], quals[r]});
  }
  PairHmm scalar(options);
  std::vector<double> expected(reads.size());
  for (std::size_t r = 0; r < reads.size(); ++r) {
    expected[r] = scalar.log10_likelihood(bases[r], quals[r], hap);
  }
  for (const simd::Level level : supported_levels()) {
    PairHmm batched(options);
    std::vector<double> got(reads.size(), 1.0);
    batched.log10_likelihoods_at(level, reads, hap, got);
    for (std::size_t r = 0; r < reads.size(); ++r) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[r]),
                std::bit_cast<std::uint64_t>(expected[r]))
          << label << " level " << simd::level_name(level) << " read " << r
          << ": " << got[r] << " vs " << expected[r];
    }
  }
}

TEST(PairHmmBatch, EveryBatchSizeAndTailShape) {
  Rng rng(5101);
  const std::string hap = random_read(rng, 180, "ACGT");
  for (std::size_t count = 1; count <= 9; ++count) {
    std::vector<std::string> bases, quals;
    for (std::size_t r = 0; r < count; ++r) {
      std::string b = hap.substr(rng.below(80), 100);
      b[rng.below(b.size())] = "ACGT"[rng.below(4)];
      quals.push_back(random_quals(rng, b.size()));
      bases.push_back(std::move(b));
    }
    expect_batch_bit_identical(bases, quals, hap,
                               "batch " + std::to_string(count));
  }
}

TEST(PairHmmBatch, RaggedReadLengthsInOneRegion) {
  Rng rng(5102);
  const std::string hap = random_read(rng, 150, "ACGT");
  std::vector<std::string> bases, quals;
  for (const std::size_t len : {100, 37, 1, 100, 64, 99, 12, 150, 2, 73, 100}) {
    const std::size_t at = rng.below(hap.size() - len + 1);
    bases.push_back(hap.substr(at, len));
    quals.push_back(random_quals(rng, len));
  }
  // An empty read scores -300 without entering the kernel.
  bases.push_back("");
  quals.push_back("");
  expect_batch_bit_identical(bases, quals, hap, "ragged");
}

TEST(PairHmmBatch, NAndNonAcgtBytes) {
  Rng rng(5103);
  std::string hap = random_read(rng, 120, "ACGTN");
  hap[10] = 'x';
  hap[11] = '\xC3';
  hap[12] = 'a';
  std::vector<std::string> bases, quals;
  for (int r = 0; r < 7; ++r) {
    std::string b = random_read(rng, 90, "ACGTNNx");
    if (r == 0) b = std::string(90, 'N');
    if (r == 1) b[5] = '\xC3';
    if (r == 2) b[7] = 'a';
    bases.push_back(b);
    quals.push_back(random_quals(rng, b.size()));
  }
  expect_batch_bit_identical(bases, quals, hap, "N and non-ACGTN");
  // Every byte value, each more than once, in one haplotype.
  std::string all_bytes(256, 'A');
  for (int c = 0; c < 256; ++c) all_bytes[c] = static_cast<char>(c);
  expect_batch_bit_identical(bases, quals, all_bytes + hap + all_bytes,
                             "all 256 bytes");
}

TEST(PairHmmBatch, EveryQualityFromBangToJ) {
  Rng rng(5104);
  const std::string hap = random_read(rng, 140, "ACGT");
  std::vector<std::string> bases, quals;
  for (char q = '!'; q <= 'J'; ++q) {
    std::string b = hap.substr(rng.below(40), 100);
    b[rng.below(b.size())] = "ACGT"[rng.below(4)];
    bases.push_back(std::move(b));
    quals.push_back(std::string(100, q));
  }
  expect_batch_bit_identical(bases, quals, hap, "flat qualities");
}

TEST(PairHmmBatch, RescaleInSomeLanesOnly) {
  // Random high-quality reads against a long haplotype fall below the
  // 1e-200 rescale threshold; reads taken from the haplotype never do.
  // Interleave the two so every batch mixes rescaled and unrescaled lanes.
  Rng rng(5105);
  const std::string hap = random_read(rng, 400, "ACGT");
  std::vector<std::string> bases, quals;
  for (int r = 0; r < 11; ++r) {
    const std::size_t len = 150 + rng.below(100);
    bases.push_back(r % 2 == 0 ? hap.substr(rng.below(400 - len), len)
                               : random_read(rng, len, "ACGT"));
    quals.push_back(std::string(len, 'J'));
  }
  expect_batch_bit_identical(bases, quals, hap, "mixed rescale");
}

TEST(PairHmmBatch, UnderflowingLaneScoresMinus300) {
  // With no gap transitions (gap_open = gap_extend = 0) only the match
  // diagonal carries mass, so a read longer than the haplotype runs out of
  // columns and its row max hits exactly 0 while shorter lanes go on.
  PairHmmOptions options;
  options.gap_open = 0.0;
  options.gap_extend = 0.0;
  Rng rng(5106);
  const std::string hap = random_read(rng, 20, "ACGT");
  std::vector<std::string> bases, quals;
  for (const std::size_t len : {10, 21, 20, 30, 5, 25, 20}) {
    bases.push_back(random_read(rng, len, "ACGT"));
    quals.push_back(random_quals(rng, len));
  }
  expect_batch_bit_identical(bases, quals, hap, "underflow", options);
  PairHmm hmm(options);
  EXPECT_EQ(hmm.log10_likelihood(bases[1], quals[1], hap), -300.0);
  EXPECT_GT(hmm.log10_likelihood(bases[0], quals[0], hap), -300.0);
}

TEST(PairHmmBatch, EmptyHaplotypeAndLengthMismatch) {
  const std::vector<std::string> bases = {"ACGT", "AC"};
  const std::vector<std::string> quals = {"IIII", "II"};
  expect_batch_bit_identical(bases, quals, "", "empty haplotype");
  for (const simd::Level level : supported_levels()) {
    PairHmm hmm;
    const std::vector<HmmRead> bad = {{"ACGT", "IIII"}, {"ACGT", "II"}};
    std::vector<double> out(bad.size());
    EXPECT_THROW(hmm.log10_likelihoods_at(level, bad, "ACGTACGT", out),
                 std::invalid_argument)
        << simd::level_name(level);
    std::vector<double> short_out(1);
    EXPECT_THROW(hmm.log10_likelihoods_at(level, {}, "ACGT", short_out),
                 std::invalid_argument)
        << simd::level_name(level);
  }
}

TEST(PairHmmBatch, CallRegionLikelihoodsMatchPerPairCalls) {
  // Region-shaped input: simulated reads over a region with a SNP, scored
  // against assembled-style haplotypes (reference and alt).
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::genome(2'000, 1, 77));
  const std::string ref_hap(ref.slice(0, 500, 300));
  std::string alt_hap = ref_hap;
  alt_hap[150] = alt_hap[150] == 'A' ? 'C' : 'A';
  Rng rng(5107);
  std::vector<std::string> bases, quals;
  for (int r = 0; r < 37; ++r) {
    const std::string& src = r % 2 == 0 ? ref_hap : alt_hap;
    std::string b = src.substr(rng.below(200), 100);
    if (rng.below(4) == 0) b[rng.below(b.size())] = 'N';
    bases.push_back(std::move(b));
    quals.push_back(random_quals(rng, 100));
  }
  expect_batch_bit_identical(bases, quals, ref_hap, "region ref");
  expect_batch_bit_identical(bases, quals, alt_hap, "region alt");
}

// --- genotyper ------------------------------------------------------------------

TEST(Genotyper, CallsHetSnp) {
  const std::string ref_window = "AAAACCCCGGGGTTTT";
  std::string alt = ref_window;
  alt[8] = 'A';
  std::vector<std::string> haps = {ref_window, alt};
  // 20 reads: half support ref, half support alt.
  LikelihoodMatrix likelihoods;
  for (int i = 0; i < 20; ++i) {
    const bool alt_read = i % 2 == 0;
    likelihoods.push_back({alt_read ? -8.0 : -0.5, alt_read ? -0.5 : -8.0});
  }
  const auto calls = genotype_region(haps, likelihoods, 0, 1000);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].record.pos, 1008);
  EXPECT_EQ(calls[0].record.ref, "G");
  EXPECT_EQ(calls[0].record.alt, "A");
  EXPECT_EQ(calls[0].record.genotype, Genotype::kHet);
  EXPECT_GT(calls[0].record.qual, 10.0);
}

TEST(Genotyper, CallsHomAlt) {
  const std::string ref_window = "AAAACCCCGGGGTTTT";
  std::string alt = ref_window;
  alt[8] = 'A';
  std::vector<std::string> haps = {ref_window, alt};
  LikelihoodMatrix likelihoods;
  for (int i = 0; i < 20; ++i) likelihoods.push_back({-8.0, -0.5});
  const auto calls = genotype_region(haps, likelihoods, 0, 0);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].record.genotype, Genotype::kHomAlt);
}

TEST(Genotyper, HomRefEmitsNothing) {
  const std::string ref_window = "AAAACCCCGGGGTTTT";
  std::string alt = ref_window;
  alt[8] = 'A';
  std::vector<std::string> haps = {ref_window, alt};
  LikelihoodMatrix likelihoods;
  for (int i = 0; i < 20; ++i) likelihoods.push_back({-0.5, -9.0});
  EXPECT_TRUE(genotype_region(haps, likelihoods, 0, 0).empty());
}

TEST(Genotyper, IndelRepresentation) {
  const std::string ref_window = "AAAACCCCGGGGTTTTAAAA";
  // 3-base deletion of positions 8..11.
  const std::string alt = ref_window.substr(0, 8) + ref_window.substr(11);
  std::vector<std::string> haps = {ref_window, alt};
  LikelihoodMatrix likelihoods;
  for (int i = 0; i < 20; ++i) likelihoods.push_back({-8.0, -0.5});
  const auto calls = genotype_region(haps, likelihoods, 0, 100);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_TRUE(calls[0].record.is_deletion());
  EXPECT_EQ(calls[0].record.ref.size(), calls[0].record.alt.size() + 3);
}

// --- end-to-end ------------------------------------------------------------------

TEST(HaplotypeCallerE2E, RecoversPlantedVariants) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(200'000, 197));
  simdata::VariantSpec vspec;
  vspec.snp_rate = 0.0008;
  vspec.indel_rate = 0.00008;
  vspec.seed = 199;
  const auto truth = simdata::spawn_variants(ref, vspec);
  ASSERT_GT(truth.size(), 50u);
  const simdata::Donor donor(ref, truth);

  simdata::ReadSimSpec rspec;
  rspec.coverage = 30.0;
  rspec.duplicate_fraction = 0.0;
  rspec.seed = 211;
  const auto sample = simdata::simulate_reads(ref, donor, rspec);

  const align::FmIndex index(ref);
  const align::ReadAligner aligner(index);
  std::vector<SamRecord> records;
  records.reserve(sample.pairs.size() * 2);
  for (const auto& pair : sample.pairs) {
    auto [r1, r2] = aligner.align_pair(pair);
    if (!r1.is_unmapped()) records.push_back(std::move(r1));
    if (!r2.is_unmapped()) records.push_back(std::move(r2));
  }
  cleaner::coordinate_sort(records);

  CallStats stats;
  const auto calls = call_variants(records, ref, {}, &stats);
  EXPECT_GT(stats.regions, 10u);
  ASSERT_FALSE(calls.empty());

  // Recall on SNPs (indel representation can shift; measure separately
  // with positional slack).
  std::size_t snp_truth = 0, snp_hit = 0;
  for (const auto& t : truth) {
    if (!t.is_snp()) continue;
    ++snp_truth;
    for (const auto& c : calls) {
      if (c.contig_id == t.contig_id && c.pos == t.pos && c.ref == t.ref &&
          c.alt == t.alt) {
        ++snp_hit;
        break;
      }
    }
  }
  const double recall =
      static_cast<double>(snp_hit) / static_cast<double>(snp_truth);
  EXPECT_GT(recall, 0.80) << snp_hit << "/" << snp_truth;

  // Precision: most emitted SNP calls should be in the truth set.
  std::size_t call_snps = 0, call_correct = 0;
  for (const auto& c : calls) {
    if (!c.is_snp()) continue;
    ++call_snps;
    for (const auto& t : truth) {
      if (c.contig_id == t.contig_id && c.pos == t.pos && c.ref == t.ref &&
          c.alt == t.alt) {
        ++call_correct;
        break;
      }
    }
  }
  ASSERT_GT(call_snps, 0u);
  const double precision =
      static_cast<double>(call_correct) / static_cast<double>(call_snps);
  EXPECT_GT(precision, 0.80) << call_correct << "/" << call_snps;
}


// --- gVCF -----------------------------------------------------------------

TEST(Gvcf, BlocksCoverAlignedSpans) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(5'000, 251));
  std::vector<SamRecord> records = {read_at(ref, 100, 80),
                                    read_at(ref, 150, 80),
                                    read_at(ref, 400, 80)};
  const auto blocks = reference_blocks(records, {}, ref);
  ASSERT_FALSE(blocks.empty());
  // Coverage exists exactly over [100,230) and [400,480); no block may
  // extend beyond, and both spans must be covered.
  std::int64_t covered = 0;
  for (const auto& b : blocks) {
    EXPECT_GE(b.start, 100);
    EXPECT_LE(b.end, 480);
    EXPECT_TRUE(b.end <= 230 || b.start >= 400) << b.start << " " << b.end;
    EXPECT_GE(b.min_depth, 1);
    covered += b.end - b.start;
  }
  EXPECT_EQ(covered, 130 + 80);
}

TEST(Gvcf, VariantPositionsExcluded) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(2'000, 257));
  std::vector<SamRecord> records = {read_at(ref, 100, 100)};
  std::vector<VcfRecord> variants = {
      {0, 150, ".", "AC", "A", 50.0, Genotype::kHet}};
  const auto blocks = reference_blocks(records, variants, ref);
  for (const auto& b : blocks) {
    // The variant REF span [150,152) is never inside a block.
    EXPECT_TRUE(b.end <= 150 || b.start >= 152) << b.start << " " << b.end;
  }
  std::int64_t covered = 0;
  for (const auto& b : blocks) covered += b.end - b.start;
  EXPECT_EQ(covered, 100 - 2);
}

TEST(Gvcf, DepthChangesSplitBlocksByGqBand) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(2'000, 263));
  // Depth 1 over [100,180), depth ramps to 8 over [180,260):
  std::vector<SamRecord> records;
  records.push_back(read_at(ref, 100, 160));
  for (int i = 0; i < 7; ++i) records.push_back(read_at(ref, 180, 80));
  const auto blocks = reference_blocks(records, {}, ref);
  ASSERT_GE(blocks.size(), 2u);
  // First block: GQ band below 20 (depth 1 -> GQ 3); a later block has
  // banded GQ >= 20 (depth 8 -> GQ 24).
  EXPECT_LT(blocks.front().gq, 20);
  bool saw_high = false;
  for (const auto& b : blocks) {
    if (b.gq >= 20) saw_high = true;
  }
  EXPECT_TRUE(saw_high);
}

TEST(Gvcf, DuplicatesAndUnmappedIgnored) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(2'000, 269));
  auto dup = read_at(ref, 100, 80);
  dup.flag |= SamFlags::kDuplicate;
  SamRecord unmapped;
  unmapped.qname = "u";
  unmapped.flag = SamFlags::kUnmapped;
  const auto blocks =
      reference_blocks(std::vector<SamRecord>{dup, unmapped}, {}, ref);
  EXPECT_TRUE(blocks.empty());
}

TEST(Gvcf, WriteGvcfInterleavesSorted) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(2'000, 271));
  VcfHeader header;
  header.contigs = {{"chr1", 2'000}};
  std::vector<VcfRecord> variants = {
      {0, 150, ".", "A", "G", 60.0, Genotype::kHet}};
  std::vector<GvcfBlock> blocks = {{0, 100, 150, 5, 15},
                                   {0, 151, 200, 5, 15}};
  const std::string text = write_gvcf(header, variants, blocks, ref);
  const auto pos_block1 = text.find("END=150");
  const auto pos_variant = text.find("\t151\t.\tA\tG");
  const auto pos_block2 = text.find("END=200");
  ASSERT_NE(pos_block1, std::string::npos);
  ASSERT_NE(pos_variant, std::string::npos);
  ASSERT_NE(pos_block2, std::string::npos);
  EXPECT_LT(pos_block1, pos_variant);
  EXPECT_LT(pos_variant, pos_block2);
  EXPECT_NE(text.find("<NON_REF>"), std::string::npos);
}


TEST(HaplotypeCallerE2E, TargetIntervalsRestrictCalling) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(60'000, 281));
  simdata::VariantSpec vspec;
  vspec.snp_rate = 0.001;
  vspec.indel_rate = 0.0;
  vspec.seed = 283;
  const auto truth = simdata::spawn_variants(ref, vspec);
  const simdata::Donor donor(ref, truth);
  simdata::ReadSimSpec rspec;
  rspec.coverage = 25.0;
  rspec.seed = 285;
  const auto sample = simdata::simulate_reads(ref, donor, rspec);

  const align::FmIndex index(ref);
  const align::ReadAligner aligner(index);
  std::vector<SamRecord> records;
  for (const auto& pair : sample.pairs) {
    auto [r1, r2] = aligner.align_pair(pair);
    if (!r1.is_unmapped()) records.push_back(std::move(r1));
    if (!r2.is_unmapped()) records.push_back(std::move(r2));
  }
  cleaner::coordinate_sort(records);

  const IntervalSet targets(
      std::vector<BedInterval>{{0, 10'000, 20'000, "panel"}});
  CallerOptions options;
  options.targets = &targets;
  const auto calls = call_variants(records, ref, options);
  ASSERT_FALSE(calls.empty());
  for (const auto& c : calls) {
    EXPECT_TRUE(targets.overlaps(c.contig_id, c.pos, c.pos + 1))
        << "off-target call at " << c.pos;
  }
  // Untargeted calling finds strictly more.
  const auto all_calls = call_variants(records, ref, {});
  EXPECT_GT(all_calls.size(), calls.size());
}

}  // namespace
}  // namespace gpf::caller
