// Tests for the Cleaner-stage algorithms: sorting, duplicate marking,
// indel realignment and BQSR.
#include <gtest/gtest.h>

#include <algorithm>

#include "align/bwamem.hpp"
#include "align/fm_index.hpp"
#include "cleaner/bqsr.hpp"
#include "cleaner/indel_realign.hpp"
#include "cleaner/markdup.hpp"
#include "cleaner/sorter.hpp"
#include "common/rng.hpp"
#include "simdata/read_sim.hpp"
#include "simdata/reference_gen.hpp"

namespace gpf::cleaner {
namespace {

SamRecord make_record(std::string qname, std::int32_t contig,
                      std::int64_t pos, bool reverse = false,
                      std::string seq = "ACGTACGT") {
  SamRecord r;
  r.qname = std::move(qname);
  r.contig_id = contig;
  r.pos = pos;
  if (reverse) r.flag |= SamFlags::kReverse;
  r.cigar = {{CigarOp::kMatch, static_cast<std::uint32_t>(seq.size())}};
  r.quality = std::string(seq.size(), 'I');
  r.sequence = std::move(seq);
  return r;
}

// --- sorter ---------------------------------------------------------------

TEST(Sorter, SortsByCoordinate) {
  std::vector<SamRecord> records = {
      make_record("c", 1, 5), make_record("a", 0, 100),
      make_record("b", 0, 7)};
  coordinate_sort(records);
  EXPECT_TRUE(is_coordinate_sorted(records));
  EXPECT_EQ(records[0].qname, "b");
  EXPECT_EQ(records[1].qname, "a");
  EXPECT_EQ(records[2].qname, "c");
}

TEST(Sorter, UnmappedSortLast) {
  SamRecord unmapped = make_record("u", -1, -1);
  unmapped.flag |= SamFlags::kUnmapped;
  std::vector<SamRecord> records = {unmapped, make_record("m", 0, 5)};
  coordinate_sort(records);
  EXPECT_EQ(records[0].qname, "m");
}

TEST(Sorter, MergeSortedRuns) {
  std::vector<std::vector<SamRecord>> runs(3);
  Rng rng(113);
  std::size_t total = 0;
  for (auto& run : runs) {
    for (int i = 0; i < 50; ++i) {
      run.push_back(
          make_record(std::string("r").append(std::to_string(total++)), 0,
                      static_cast<std::int64_t>(rng.below(10000))));
    }
    coordinate_sort(run);
  }
  const auto merged = merge_sorted_runs(std::move(runs));
  EXPECT_EQ(merged.size(), 150u);
  EXPECT_TRUE(is_coordinate_sorted(merged));
}

TEST(Sorter, LinearIndexFindsCandidates) {
  std::vector<SamRecord> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back(
        make_record(std::string("r").append(std::to_string(i)), 0, i * 1000));
  }
  coordinate_sort(records);
  const LinearIndex index(records, 1);
  const std::size_t at = index.first_candidate(0, 50'000);
  ASSERT_LT(at, records.size());
  EXPECT_LE(records[at].pos, 50'000);
  // Scanning from the hint reaches position 50000.
  bool found = false;
  for (std::size_t i = at; i < records.size() && records[i].pos <= 50'000;
       ++i) {
    if (records[i].pos == 50'000) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(index.first_candidate(5, 0), records.size());
}

// --- duplicate marking ------------------------------------------------------

TEST(MarkDup, IdenticalFragmentsMarked) {
  // Three single-end reads at the same position/strand: keep best quality.
  auto a = make_record("a", 0, 100);
  auto b = make_record("b", 0, 100);
  auto c = make_record("c", 0, 100);
  a.quality = std::string(8, 'I');  // highest
  b.quality = std::string(8, '5');
  c.quality = std::string(8, '#');
  std::vector<SamRecord> records = {a, b, c};
  const auto stats = mark_duplicates(records);
  EXPECT_EQ(stats.duplicates_marked, 2u);
  EXPECT_FALSE(records[0].is_duplicate());
  EXPECT_TRUE(records[1].is_duplicate());
  EXPECT_TRUE(records[2].is_duplicate());
}

TEST(MarkDup, DifferentPositionsNotMarked) {
  std::vector<SamRecord> records = {make_record("a", 0, 100),
                                    make_record("b", 0, 101),
                                    make_record("c", 1, 100)};
  const auto stats = mark_duplicates(records);
  EXPECT_EQ(stats.duplicates_marked, 0u);
}

TEST(MarkDup, StrandDistinguishes) {
  std::vector<SamRecord> records = {make_record("a", 0, 100, false),
                                    make_record("b", 0, 100, true)};
  // Reverse record's unclipped start is its end, so these differ twice
  // over; never duplicates.
  const auto stats = mark_duplicates(records);
  EXPECT_EQ(stats.duplicates_marked, 0u);
}

TEST(MarkDup, SoftClipAwareSignature) {
  // A soft-clipped read starting "later" still has the same unclipped
  // start as an unclipped read — Picard marks these as duplicates.
  auto a = make_record("a", 0, 100);
  auto b = make_record("b", 0, 103, false);
  b.cigar = parse_cigar("3S5M");
  b.sequence = "ACGTACGT";
  b.quality = "########";  // worse than a
  std::vector<SamRecord> records = {a, b};
  const auto stats = mark_duplicates(records);
  EXPECT_EQ(stats.duplicates_marked, 1u);
  EXPECT_TRUE(records[1].is_duplicate());
}

TEST(MarkDup, PairedSignatureUsesBothEnds) {
  auto mk_pair = [](const std::string& name, std::int64_t pos1,
                    std::int64_t pos2) {
    auto r1 = make_record(name + "/r1", 0, pos1);
    r1.qname = name;
    r1.flag |= SamFlags::kPaired | SamFlags::kFirstOfPair |
               SamFlags::kMateReverse;
    r1.mate_contig_id = 0;
    r1.mate_pos = pos2;
    auto r2 = make_record(name + "/r2", 0, pos2, true);
    r2.qname = name;
    r2.flag |= SamFlags::kPaired | SamFlags::kSecondOfPair;
    r2.mate_contig_id = 0;
    r2.mate_pos = pos1;
    return std::vector<SamRecord>{r1, r2};
  };
  auto p1 = mk_pair("f1", 100, 300);
  auto p2 = mk_pair("f2", 100, 300);  // duplicate fragment
  auto p3 = mk_pair("f3", 100, 400);  // different mate position
  std::vector<SamRecord> records;
  for (auto* p : {&p1, &p2, &p3}) {
    records.insert(records.end(), p->begin(), p->end());
  }
  const auto stats = mark_duplicates(records);
  // Both records of exactly one of f1/f2 are marked.
  std::size_t marked_f1 = 0, marked_f2 = 0, marked_f3 = 0;
  for (const auto& r : records) {
    if (!r.is_duplicate()) continue;
    if (r.qname == "f1") ++marked_f1;
    if (r.qname == "f2") ++marked_f2;
    if (r.qname == "f3") ++marked_f3;
  }
  EXPECT_EQ(marked_f1 + marked_f2, 2u);
  EXPECT_TRUE(marked_f1 == 0 || marked_f2 == 0);
  EXPECT_EQ(marked_f3, 0u);
  EXPECT_EQ(stats.duplicates_marked, 2u);
}

TEST(MarkDup, SimulatedDuplicatesRecovered) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(100'000, 131));
  const simdata::Donor donor(ref, {});
  simdata::ReadSimSpec spec;
  spec.coverage = 8.0;
  spec.duplicate_fraction = 0.08;
  const auto sample = simdata::simulate_reads(ref, donor, spec);

  const align::FmIndex index(ref);
  const align::ReadAligner aligner(index);
  std::vector<SamRecord> records;
  for (const auto& pair : sample.pairs) {
    auto [r1, r2] = aligner.align_pair(pair);
    records.push_back(std::move(r1));
    records.push_back(std::move(r2));
  }
  const auto stats = mark_duplicates(records);
  // Each simulated duplicate pair contributes 2 duplicate records.  Allow
  // slack for alignment noise and coincidental fragment collisions.
  const double expected = 2.0 * static_cast<double>(sample.duplicate_pairs);
  EXPECT_GT(static_cast<double>(stats.duplicates_marked), expected * 0.8);
  EXPECT_LT(static_cast<double>(stats.duplicates_marked), expected * 1.6);
}

TEST(MarkDup, RerunIsIdempotent) {
  std::vector<SamRecord> records = {make_record("a", 0, 100),
                                    make_record("b", 0, 100)};
  const auto first = mark_duplicates(records);
  const auto second = mark_duplicates(records);
  EXPECT_EQ(first.duplicates_marked, second.duplicates_marked);
}

// --- indel realignment -------------------------------------------------------

TEST(IndelRealign, TargetsFromCigarsAndKnownSites) {
  auto with_indel = make_record("i", 0, 500);
  with_indel.cigar = parse_cigar("4M2D4M");
  std::vector<SamRecord> records = {make_record("m", 0, 100), with_indel};
  std::vector<VcfRecord> known = {
      {0, 900, ".", "AT", "A", 50.0, Genotype::kHet},   // indel: target
      {0, 950, ".", "A", "C", 50.0, Genotype::kHet}};   // SNP: ignored
  RealignOptions options;
  const auto targets = find_realign_targets(records, known, options);
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0].start, 504);
  EXPECT_EQ(targets[1].start, 900);
}

TEST(IndelRealign, NearbyTargetsMerge) {
  auto a = make_record("a", 0, 100);
  a.cigar = parse_cigar("4M1D4M");
  auto b = make_record("b", 0, 120);
  b.cigar = parse_cigar("4M1I4M");
  RealignOptions options;
  options.merge_window = 50;
  const auto targets = find_realign_targets(
      std::vector<SamRecord>{a, b}, {}, options);
  EXPECT_EQ(targets.size(), 1u);
}

TEST(IndelRealign, RecoversBetterAlignmentAroundDeletion) {
  // Reference with a unique context; read sequenced from a donor with a
  // 4-base deletion, but initially aligned with mismatches instead of the
  // gap.
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(2'000, 137));
  const std::string& seq = ref.contig(0).sequence;
  // Donor read: 40 bases, skipping ref[520..524).
  std::string read = seq.substr(500, 20) + seq.substr(524, 20);

  SamRecord rec;
  rec.qname = "r";
  rec.contig_id = 0;
  rec.pos = 500;
  rec.cigar = parse_cigar("40M");  // misaligned: no gap
  rec.sequence = read;
  rec.quality = std::string(40, 'I');

  std::vector<SamRecord> records = {rec};
  std::vector<VcfRecord> known = {
      {0, 519, ".", seq.substr(519, 5), seq.substr(519, 1), 50.0,
       Genotype::kHet}};
  RealignOptions options;
  const auto targets = find_realign_targets(records, known, options);
  ASSERT_FALSE(targets.empty());
  const auto stats = realign_reads(records, ref, targets, options);
  EXPECT_EQ(stats.reads_realigned, 1u);
  // The new CIGAR must contain a 4-base deletion.
  bool has_del = false;
  for (const auto& el : records[0].cigar) {
    if (el.op == CigarOp::kDeletion && el.length == 4) has_del = true;
  }
  EXPECT_TRUE(has_del) << cigar_to_string(records[0].cigar);
}

TEST(IndelRealign, LeavesGoodAlignmentsAlone) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(2'000, 139));
  SamRecord rec;
  rec.qname = "r";
  rec.contig_id = 0;
  rec.pos = 300;
  rec.sequence = std::string(ref.slice(0, 300, 50));
  rec.quality = std::string(50, 'I');
  rec.cigar = parse_cigar("50M");
  std::vector<SamRecord> records = {rec};
  std::vector<VcfRecord> known = {
      {0, 320, ".", "AT", "A", 50.0, Genotype::kHet}};
  RealignOptions options;
  const auto targets = find_realign_targets(records, known, options);
  const Cigar before = records[0].cigar;
  realign_reads(records, ref, targets, options);
  EXPECT_EQ(records[0].cigar, before);
  EXPECT_EQ(records[0].pos, 300);
}

// --- BQSR ---------------------------------------------------------------------

TEST(Bqsr, KnownSitesMembership) {
  std::vector<VcfRecord> sites = {{0, 100, ".", "ACG", "A", 0, Genotype::kHet},
                                  {1, 5, ".", "A", "T", 0, Genotype::kHet}};
  const KnownSites known(sites);
  EXPECT_TRUE(known.contains(0, 100));
  EXPECT_TRUE(known.contains(0, 102));  // deletion span covered
  EXPECT_FALSE(known.contains(0, 103));
  EXPECT_TRUE(known.contains(1, 5));
  EXPECT_FALSE(known.contains(1, 6));
}

TEST(Bqsr, TableMergeAddsCounts) {
  RecalTable a, b;
  a.observe(30, 5, 0, true);
  a.observe(30, 5, 0, false);
  b.observe(30, 5, 0, false);
  a.merge(b);
  EXPECT_EQ(a.total_observations(), 3u);
  EXPECT_EQ(a.total_mismatches(), 1u);
}

TEST(Bqsr, EmpiricalQualityTracksErrorRate) {
  RecalTable t;
  // Reported Q40 but actual error rate 10% -> empirical ~Q10.
  for (int i = 0; i < 1000; ++i) t.observe(40, 10, 3, i % 10 == 0);
  const double q = t.empirical_quality(40, 10, 3);
  EXPECT_NEAR(q, 10.0, 1.0);
}

TEST(Bqsr, DinucleotideContext) {
  EXPECT_EQ(dinucleotide_context('A', 'A'), 0);
  EXPECT_EQ(dinucleotide_context('T', 'T'), 15);
  EXPECT_EQ(dinucleotide_context('N', 'A'), -1);
}

TEST(Bqsr, CollectSkipsKnownSitesAndDuplicates) {
  Reference ref(std::vector<FastaContig>{{"c", std::string(1000, 'A')}});
  auto rec = make_record("r", 0, 100, false, "AAAAAAAA");
  auto dup = rec;
  dup.flag |= SamFlags::kDuplicate;
  std::vector<VcfRecord> sites;
  for (int i = 0; i < 8; ++i) {
    sites.push_back({0, 100 + i, ".", "A", "C", 0, Genotype::kHet});
  }
  const KnownSites known(sites);
  const RecalTable with_mask =
      collect_covariates(std::vector<SamRecord>{rec}, ref, known);
  EXPECT_EQ(with_mask.total_observations(), 0u);  // fully masked
  const RecalTable dup_only =
      collect_covariates(std::vector<SamRecord>{dup}, ref, KnownSites(std::span<const VcfRecord>{}));
  EXPECT_EQ(dup_only.total_observations(), 0u);  // duplicates skipped
  const RecalTable normal =
      collect_covariates(std::vector<SamRecord>{rec}, ref, KnownSites(std::span<const VcfRecord>{}));
  EXPECT_EQ(normal.total_observations(), 8u);
}

TEST(Bqsr, ApplyCorrectsInflatedQualities) {
  // Reads claim Q40 but mismatch the reference 10% of the time (random
  // substitutions over a random reference, so no covariate is secretly
  // perfectly informative); after recalibration their mean quality should
  // drop toward Q10.
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(10'000, 149));
  Rng rng(149);
  std::vector<SamRecord> records;
  const char bases[] = {'A', 'C', 'G', 'T'};
  for (int i = 0; i < 50; ++i) {
    std::string seq(ref.slice(0, i * 150, 100));
    for (auto& c : seq) {
      if (rng.chance(0.1)) {
        char nc;
        do {
          nc = bases[rng.below(4)];
        } while (nc == c);
        c = nc;
      }
    }
    auto rec = make_record(std::string("r").append(std::to_string(i)), 0,
                           i * 150, false, seq);
    rec.quality = std::string(100, static_cast<char>(33 + 40));
    rec.cigar = {{CigarOp::kMatch, 100}};
    records.push_back(std::move(rec));
  }
  const RecalTable table = collect_covariates(records, ref, KnownSites(std::span<const VcfRecord>{}));
  const double before_mean = 40.0;
  apply_recalibration(records, table);
  double after_sum = 0.0;
  std::size_t n = 0;
  for (const auto& r : records) {
    for (const char q : r.quality) {
      after_sum += q - 33;
      ++n;
    }
  }
  const double after_mean = after_sum / static_cast<double>(n);
  EXPECT_LT(after_mean, before_mean - 20.0);
  EXPECT_NEAR(after_mean, 10.0, 3.0);
}

TEST(Bqsr, BroadcastTableSizeIsStable) {
  RecalTable t;
  const std::size_t empty_size = t.byte_size();
  t.observe(30, 1, 1, false);
  EXPECT_EQ(t.byte_size(), empty_size);  // fixed-shape table
  EXPECT_GT(empty_size, 100'000u);       // multi-100KB broadcast payload
}


TEST(MarkDup, SecondaryAndUnmappedNeverMarked) {
  auto secondary = make_record("s", 0, 100);
  secondary.flag |= SamFlags::kSecondary;
  auto primary1 = make_record("a", 0, 100);
  auto primary2 = make_record("b", 0, 100);
  SamRecord unmapped = make_record("u", -1, -1);
  unmapped.flag |= SamFlags::kUnmapped;
  std::vector<SamRecord> records = {secondary, primary1, primary2, unmapped};
  const auto stats = mark_duplicates(records);
  EXPECT_EQ(stats.duplicates_marked, 1u);  // only one of a/b
  EXPECT_FALSE(records[0].is_duplicate());
  EXPECT_FALSE(records[3].is_duplicate());
}

TEST(MarkDup, PreexistingFlagsCleared) {
  // Re-running on records with stale duplicate flags must re-derive from
  // scratch (Picard semantics).
  auto a = make_record("a", 0, 100);
  a.flag |= SamFlags::kDuplicate;  // stale: it is the only record
  std::vector<SamRecord> records = {a};
  mark_duplicates(records);
  EXPECT_FALSE(records[0].is_duplicate());
}

}  // namespace
}  // namespace gpf::cleaner
