// Tests for the alignment substrate: suffix array, FM-index,
// Smith-Waterman, the BWA-MEM-like aligner and the SNAP-like hash aligner.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "align/bwamem.hpp"
#include "align/fm_index.hpp"
#include "align/hash_aligner.hpp"
#include "align/smith_waterman.hpp"
#include "align/suffix_array.hpp"
#include "common/rng.hpp"
#include "simdata/read_sim.hpp"
#include "simdata/reference_gen.hpp"

namespace gpf::align {
namespace {

// --- suffix array ------------------------------------------------------------

std::vector<std::uint32_t> naive_suffix_array(
    const std::vector<std::uint8_t>& text) {
  std::vector<std::uint32_t> sa(text.size());
  std::iota(sa.begin(), sa.end(), 0);
  std::sort(sa.begin(), sa.end(), [&](std::uint32_t a, std::uint32_t b) {
    return std::lexicographical_compare(text.begin() + a, text.end(),
                                        text.begin() + b, text.end());
  });
  return sa;
}

TEST(SuffixArray, MatchesNaiveOnBanana) {
  const std::string s = "banana";
  std::vector<std::uint8_t> text(s.begin(), s.end());
  text.push_back(0);
  EXPECT_EQ(build_suffix_array(text), naive_suffix_array(text));
}

TEST(SuffixArray, MatchesNaiveOnRandomTexts) {
  Rng rng(61);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.below(500);
    std::vector<std::uint8_t> text(n);
    // Small alphabet with repeated zeros — the hardest case for doubling
    // implementations (multiple identical separators).
    for (auto& c : text) c = static_cast<std::uint8_t>(rng.below(4));
    ASSERT_EQ(build_suffix_array(text), naive_suffix_array(text))
        << "trial " << trial;
  }
}

TEST(SuffixArray, EmptyText) {
  EXPECT_TRUE(build_suffix_array({}).empty());
}

TEST(SuffixArray, BwtFollowsDefinition) {
  const std::string s = "mississippi";
  std::vector<std::uint8_t> text(s.begin(), s.end());
  text.push_back(0);
  const auto sa = build_suffix_array(text);
  const auto bwt = bwt_from_suffix_array(text, sa);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    const std::uint8_t expected =
        sa[i] == 0 ? text.back() : text[sa[i] - 1];
    EXPECT_EQ(bwt[i], expected);
  }
}

// --- FM-index ------------------------------------------------------------------

Reference small_reference() {
  return simdata::generate_reference(
      simdata::ReferenceSpec::genome(120'000, 3, 77));
}

TEST(FmIndex, FindsEverySampledSubstring) {
  const Reference ref = small_reference();
  const FmIndex index(ref);
  Rng rng(71);
  for (int trial = 0; trial < 200; ++trial) {
    const auto cid = static_cast<std::int32_t>(rng.below(ref.contig_count()));
    const auto& seq = ref.contig(cid).sequence;
    const std::size_t len = 20 + rng.below(30);
    if (seq.size() < len + 1) continue;
    const std::size_t pos = rng.below(seq.size() - len);
    const std::string pattern = seq.substr(pos, len);
    if (pattern.find('N') != std::string::npos) continue;
    const SaInterval iv = index.search(pattern);
    ASSERT_FALSE(iv.empty()) << pattern;
    // One of the hits must be the sampled position.
    bool found = false;
    for (std::uint32_t row = iv.lo; row < iv.hi; ++row) {
      const RefPosition rp = index.locate(row);
      if (rp.contig_id == cid &&
          rp.offset == static_cast<std::int64_t>(pos)) {
        found = true;
      }
      // Every hit must actually match the pattern.
      if (rp.contig_id >= 0) {
        EXPECT_EQ(ref.slice(rp.contig_id, rp.offset,
                            static_cast<std::int64_t>(len)),
                  pattern);
      }
    }
    EXPECT_TRUE(found) << "hit list missed source position";
  }
}

TEST(FmIndex, AbsentPatternReturnsEmpty) {
  Reference ref(std::vector<FastaContig>{{"c", "ACACACACACACACACAC"}});
  const FmIndex index(ref);
  EXPECT_TRUE(index.search("GGGGG").empty());
}

TEST(FmIndex, PatternWithNNeverMatches) {
  Reference ref(std::vector<FastaContig>{{"c", "ACGTACGTACGT"}});
  const FmIndex index(ref);
  EXPECT_TRUE(index.search("ACGN").empty());
}

TEST(FmIndex, CrossContigMatchesExcluded) {
  // A pattern spanning the end of contig 1 and start of contig 2 must not
  // match, thanks to the separator.
  Reference ref(std::vector<FastaContig>{{"c1", "AAAACCCC"}, {"c2", "GGGGTTTT"}});
  const FmIndex index(ref);
  EXPECT_TRUE(index.search("CCCCGGGG").empty());
  EXPECT_FALSE(index.search("CCCC").empty());
  EXPECT_FALSE(index.search("GGGG").empty());
}

// --- Smith-Waterman ---------------------------------------------------------

TEST(SmithWaterman, PerfectMatchGlobal) {
  const auto r = banded_global("ACGTACGT", "ACGTACGT", {}, 8);
  EXPECT_EQ(r.score, 8);
  EXPECT_EQ(cigar_to_string(r.cigar), "8M");
  EXPECT_EQ(r.mismatches, 0);
}

TEST(SmithWaterman, GlobalWithMismatch) {
  const auto r = banded_global("ACGTACGT", "ACGAACGT", {}, 8);
  EXPECT_EQ(cigar_to_string(r.cigar), "8M");
  EXPECT_EQ(r.mismatches, 1);
  EXPECT_EQ(r.score, 7 * 1 + 1 * -4);
}

TEST(SmithWaterman, GlobalWithDeletion) {
  // Query lacks 2 bases present in ref.
  const auto r = banded_global("AAAATTTT", "AAAACCTTTT", {}, 8);
  EXPECT_EQ(cigar_to_string(r.cigar), "4M2D4M");
}

TEST(SmithWaterman, GlobalWithInsertion) {
  const auto r = banded_global("AAAACCTTTT", "AAAATTTT", {}, 8);
  EXPECT_EQ(cigar_to_string(r.cigar), "4M2I4M");
}

TEST(SmithWaterman, AffineGapPreferredOverScattered) {
  // One 3-base gap should beat three scattered 1-base gaps under affine
  // scoring: verify the CIGAR has a single indel run.
  const auto r = banded_global("AAAAAAAATTTTTTTT", "AAAAAAAACCCTTTTTTTT", {},
                               12);
  int indel_runs = 0;
  for (const auto& el : r.cigar) {
    if (el.op == CigarOp::kDeletion || el.op == CigarOp::kInsertion) {
      ++indel_runs;
    }
  }
  EXPECT_EQ(indel_runs, 1);
}

TEST(SmithWaterman, GlocalFindsEmbeddedQuery) {
  const std::string ref = "TTTTTTTTTTACGTACGTACGTTTTTTTTTT";
  const auto r = glocal("ACGTACGTACGT", ref, {}, 8);
  EXPECT_EQ(r.score, 12);
  EXPECT_EQ(r.ref_start, 10);
  EXPECT_EQ(r.query_start, 0);
  EXPECT_EQ(cigar_to_string(r.cigar), "12M");
}

TEST(SmithWaterman, GlocalSoftClipsGarbageEnds) {
  // Query has 4 junk bases at the front that should not align ("GA" and
  // "GG" never occur in the ACGT-repeat reference, so no prefix base can
  // profitably extend the local alignment).
  const std::string ref = "ACGTACGTACGTACGTACGT";
  const auto r = glocal("GGGGACGTACGTACGT", ref, {}, 8);
  EXPECT_EQ(r.query_start, 4);
  EXPECT_EQ(r.query_end, 16);
}

TEST(SmithWaterman, GlocalNoMatchReturnsEmpty) {
  const auto r = glocal("AAAA", "TTTT", {}, 4);
  EXPECT_TRUE(r.cigar.empty());
}

TEST(SmithWaterman, EmptyInputs) {
  EXPECT_THROW(banded_global("", "ACGT", {}, 4), std::invalid_argument);
  EXPECT_TRUE(glocal("", "ACGT", {}, 4).cigar.empty());
}

/// The banded-workspace kernels must reproduce the original full-matrix DP
/// exactly: same score, same span, same CIGAR, same mismatch count.
void expect_same_alignment(const AlignmentResult& fast,
                           const AlignmentResult& slow,
                           const std::string& label) {
  EXPECT_EQ(fast.score, slow.score) << label;
  EXPECT_EQ(fast.query_start, slow.query_start) << label;
  EXPECT_EQ(fast.query_end, slow.query_end) << label;
  EXPECT_EQ(fast.ref_start, slow.ref_start) << label;
  EXPECT_EQ(fast.ref_end, slow.ref_end) << label;
  EXPECT_EQ(fast.mismatches, slow.mismatches) << label;
  EXPECT_EQ(cigar_to_string(fast.cigar), cigar_to_string(slow.cigar))
      << label;
}

TEST(SmithWaterman, WorkspaceMatchesReferenceOnFuzzedPairs) {
  Rng rng(181);
  const char bases[] = {'A', 'C', 'G', 'T'};
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t rlen = 8 + rng.below(120);
    std::string ref(rlen, 'A');
    for (auto& c : ref) c = bases[rng.below(4)];
    const std::size_t qlen = 1 + rng.below(rlen);
    std::string query = ref.substr(rng.below(rlen - qlen + 1), qlen);
    // Mutations: substitutions plus an occasional 1-base indel.
    for (int m = 0; m < 4; ++m) {
      query[rng.below(query.size())] = bases[rng.below(4)];
    }
    if (rng.below(3) == 0 && query.size() > 3) {
      query.erase(rng.below(query.size() - 1), 1);
    }
    if (rng.below(3) == 0) {
      query.insert(rng.below(query.size()), 1, bases[rng.below(4)]);
    }
    const int band = 1 + static_cast<int>(rng.below(16));
    const std::string label = "trial " + std::to_string(trial) + " band " +
                              std::to_string(band);
    expect_same_alignment(
        banded_global(query, ref, {}, band),
        detail::banded_global_reference(query, ref, {}, band),
        "global " + label);
    expect_same_alignment(glocal(query, ref, {}, band),
                          detail::glocal_reference(query, ref, {}, band),
                          "glocal " + label);
  }
}

TEST(SmithWaterman, WorkspaceMatchesReferenceOnEdgeShapes) {
  // Degenerate shapes: single-base inputs, query longer than ref, band
  // wider than both sequences, band of 1.
  const struct {
    const char* query;
    const char* ref;
    int band;
  } cases[] = {
      {"A", "A", 1},         {"A", "T", 1},
      {"ACGT", "A", 8},      {"A", "ACGT", 8},
      {"ACGTACGT", "TGCA", 2}, {"ACACACAC", "ACACACAC", 64},
      {"GGGG", "CCCC", 1},
  };
  for (const auto& c : cases) {
    const std::string label =
        std::string(c.query) + "/" + c.ref + " band " + std::to_string(c.band);
    expect_same_alignment(
        banded_global(c.query, c.ref, {}, c.band),
        detail::banded_global_reference(c.query, c.ref, {}, c.band),
        "global " + label);
    expect_same_alignment(glocal(c.query, c.ref, {}, c.band),
                          detail::glocal_reference(c.query, c.ref, {}, c.band),
                          "glocal " + label);
  }
  // Empty inputs behave identically too.
  EXPECT_THROW(detail::banded_global_reference("", "ACGT", {}, 4),
               std::invalid_argument);
  EXPECT_TRUE(detail::glocal_reference("", "ACGT", {}, 4).cigar.empty());
}

// --- perfect-match short-circuit ---------------------------------------------
//
// glocal answers full-length, mismatch-free matches without running the DP.
// The fuzz above always mutates its queries, so these cases cover the shapes
// where the short-circuit can fire, and the scoring schemes where it must
// not.

std::string random_bases(Rng& rng, std::size_t n) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  std::string s(n, 'A');
  for (auto& c : s) c = kBases[rng.below(4)];
  return s;
}

void expect_glocal_matches_reference(const std::string& query,
                                     const std::string& ref,
                                     const ScoringScheme& scoring, int band,
                                     const std::string& label) {
  expect_same_alignment(glocal(query, ref, scoring, band),
                        detail::glocal_reference(query, ref, scoring, band),
                        label);
}

TEST(SmithWaterman, PerfectMatchAtEveryDiagonalPosition) {
  // The aligner's window: the read plus a 24-base flank on each side, so
  // the seed's own diagonal is d = 24 and the window's last one is d = 48.
  Rng rng(4401);
  const std::string ref = random_bases(rng, 148);
  const ScoringScheme scoring;
  for (const std::size_t d : {std::size_t{0}, std::size_t{24},
                              std::size_t{48}, std::size_t{7}}) {
    const std::string query = ref.substr(d, 100);
    for (const int band : {0, 16, 24}) {
      const std::string label =
          "d " + std::to_string(d) + " band " + std::to_string(band);
      expect_glocal_matches_reference(query, ref, scoring, band, label);
      const auto r = glocal(query, ref, scoring, band);
      EXPECT_EQ(r.score, 100) << label;
      EXPECT_EQ(r.ref_start, static_cast<std::int32_t>(d)) << label;
      EXPECT_EQ(cigar_to_string(r.cigar), "100M") << label;
      EXPECT_EQ(r.mismatches, 0) << label;
    }
  }
}

TEST(SmithWaterman, PerfectMatchInTandemRepeatTakesSmallestDiagonal) {
  // Periods 1-4: the query matches perfectly on several diagonals, and the
  // DP's row-major scan keeps the smallest one.
  const ScoringScheme scoring;
  for (const std::string unit : {"A", "AC", "ACG", "ACGT"}) {
    std::string ref;
    while (ref.size() < 60) ref += unit;
    for (const std::size_t offset : {std::size_t{0}, std::size_t{1},
                                     std::size_t{5}}) {
      const std::string query = ref.substr(offset, 24);
      for (const int band : {2, 8, 24}) {
        expect_glocal_matches_reference(
            query, ref, scoring, band,
            "unit " + unit + " offset " + std::to_string(offset) + " band " +
                std::to_string(band));
      }
    }
    // A unique prefix before the repeat: the first perfect diagonal is
    // past it.
    const std::string framed = "GTTGCATG" + ref;
    expect_glocal_matches_reference(ref.substr(0, 20), framed, scoring, 24,
                                    "framed unit " + unit);
  }
}

TEST(SmithWaterman, PerfectMatchWithNBases) {
  Rng rng(4402);
  const ScoringScheme scoring;
  std::string ref = random_bases(rng, 148);
  // N in the query: the short-circuit must not fire.
  std::string query = ref.substr(24, 100);
  query[50] = 'N';
  expect_glocal_matches_reference(query, ref, scoring, 24, "N in query");
  // N in the ref off the matching diagonal, before and after it.
  std::string ref_n = ref;
  ref_n[3] = 'N';
  ref_n[140] = 'N';
  expect_glocal_matches_reference(ref.substr(24, 100), ref_n, scoring, 24,
                                  "N in ref off diagonal");
  // N in the ref on the only matching diagonal: no perfect match left.
  ref_n[60] = 'N';
  expect_glocal_matches_reference(ref.substr(24, 100), ref_n, scoring, 24,
                                  "N in ref on diagonal");
  // The same N in query and ref: byte-equal, but N scores n_score.
  expect_glocal_matches_reference(ref_n.substr(24, 100), ref_n, scoring, 24,
                                  "N in query and ref on diagonal");
}

TEST(SmithWaterman, PerfectMatchQueryLongerThanRef) {
  Rng rng(4403);
  const ScoringScheme scoring;
  const std::string query = random_bases(rng, 60);
  for (const int band : {0, 8, 24}) {
    expect_glocal_matches_reference(query, query.substr(10, 40), scoring,
                                    band, "prefix cut " + std::to_string(band));
    expect_glocal_matches_reference(query, query.substr(0, 59), scoring, band,
                                    "one short " + std::to_string(band));
  }
}

TEST(SmithWaterman, PerfectMatchFuzzedSlices) {
  // Exact slices at random diagonals, random bands (including 0 and the
  // realigner's 24), random refs with sparse N.
  Rng rng(4404);
  const ScoringScheme scoring;
  for (int trial = 0; trial < 300; ++trial) {
    std::string ref = random_bases(rng, 20 + rng.below(160));
    if (rng.below(3) == 0) ref[rng.below(ref.size())] = 'N';
    const std::size_t m = 1 + rng.below(ref.size());
    const std::size_t d = rng.below(ref.size() - m + 1);
    const std::string query = ref.substr(d, m);
    const int band = trial % 5 == 0 ? 24 : static_cast<int>(rng.below(30));
    expect_glocal_matches_reference(query, ref, scoring, band,
                                    "trial " + std::to_string(trial));
  }
}

TEST(SmithWaterman, PerfectMatchFallsBackUnderOtherScoring) {
  // Each scheme breaks one premise of the short-circuit; each case is
  // built so that the DP's answer differs from "score m*match on the
  // perfect diagonal".
  Rng rng(4405);
  const std::string ref = random_bases(rng, 80);
  const std::string query = ref.substr(30, 20);
  struct Case {
    const char* name;
    ScoringScheme scoring;
    std::string ref;
  };
  // An earlier copy of the query with one base turned to N: with
  // n_score == match it ties the perfect diagonal and comes first.
  std::string ref_n = ref;
  ref_n.replace(5, query.size(), query);
  ref_n[12] = 'N';
  const Case cases[] = {
      {"match 0", {0, -4, -6, -1, -1}, ref},
      {"match -1", {-1, -4, -6, -1, -1}, ref},
      {"mismatch == match", {1, 1, -6, -1, -1}, ref},
      {"mismatch > match", {1, 2, -6, -1, -1}, ref},
      {"gap_open 0", {1, -4, 0, 0, -1}, ref},
      {"gap_open > 0", {1, -4, 3, -1, -1}, ref},
      {"gap_extend > 0", {1, -4, -1, 2, -1}, ref},
      {"n_score == match", {1, -4, -6, -1, 1}, ref_n},
  };
  for (const auto& c : cases) {
    for (const int band : {8, 24, 60}) {
      expect_glocal_matches_reference(
          query, c.ref, c.scoring, band,
          std::string(c.name) + " band " + std::to_string(band));
    }
  }
  // Free gaps let a gapped path reach row m at an earlier column.
  expect_glocal_matches_reference("AC", "AGCTTAC", {1, -4, 0, 0, -1}, 8,
                                  "free gap before the perfect diagonal");
}

TEST(SmithWaterman, CigarConsistencyProperty) {
  Rng rng(83);
  const char bases[] = {'A', 'C', 'G', 'T'};
  for (int trial = 0; trial < 50; ++trial) {
    std::string ref(100, 'A');
    for (auto& c : ref) c = bases[rng.below(4)];
    // Query = mutated slice of ref.
    const std::size_t start = rng.below(40);
    std::string query = ref.substr(start, 50);
    for (int m = 0; m < 3; ++m) {
      query[rng.below(query.size())] = bases[rng.below(4)];
    }
    const auto r = glocal(query, ref, {}, 10);
    if (r.cigar.empty()) continue;
    EXPECT_EQ(cigar_read_length(r.cigar),
              static_cast<std::uint32_t>(r.query_end - r.query_start));
    EXPECT_EQ(cigar_reference_length(r.cigar),
              static_cast<std::uint32_t>(r.ref_end - r.ref_start));
  }
}

// --- read aligner -------------------------------------------------------------

struct AlignerFixture : public ::testing::Test {
  void SetUp() override {
    reference = simdata::generate_reference(
        simdata::ReferenceSpec::genome(200'000, 2, 91));
    index = std::make_unique<FmIndex>(reference);
    aligner = std::make_unique<ReadAligner>(*index);
  }

  Reference reference;
  std::unique_ptr<FmIndex> index;
  std::unique_ptr<ReadAligner> aligner;
};

TEST_F(AlignerFixture, AlignsExactRead) {
  const std::string seq(reference.slice(0, 5000, 100));
  FastqRecord read{"r", seq, std::string(100, 'I')};
  const SamRecord rec = aligner->align_single(read);
  EXPECT_FALSE(rec.is_unmapped());
  EXPECT_EQ(rec.contig_id, 0);
  EXPECT_EQ(rec.pos, 5000);
  EXPECT_FALSE(rec.is_reverse());
  EXPECT_GT(rec.mapq, 0);
}

TEST_F(AlignerFixture, AlignsReverseComplementRead) {
  const std::string fwd(reference.slice(1, 3000, 100));
  FastqRecord read{"r", simdata::reverse_complement(fwd),
                   std::string(100, 'I')};
  const SamRecord rec = aligner->align_single(read);
  EXPECT_FALSE(rec.is_unmapped());
  EXPECT_EQ(rec.contig_id, 1);
  EXPECT_EQ(rec.pos, 3000);
  EXPECT_TRUE(rec.is_reverse());
  // Sequence is stored reference-oriented.
  EXPECT_EQ(rec.sequence, fwd);
}

TEST_F(AlignerFixture, ToleratesMismatches) {
  std::string seq(reference.slice(0, 20000, 100));
  seq[10] = seq[10] == 'A' ? 'C' : 'A';
  seq[60] = seq[60] == 'G' ? 'T' : 'G';
  const SamRecord rec =
      aligner->align_single({"r", seq, std::string(100, 'I')});
  EXPECT_FALSE(rec.is_unmapped());
  EXPECT_EQ(rec.pos, 20000);
}

TEST_F(AlignerFixture, RandomReadUnmapped) {
  Rng rng(97);
  std::string junk(100, 'A');
  const char bases[] = {'A', 'C', 'G', 'T'};
  for (auto& c : junk) c = bases[rng.below(4)];
  // A uniformly random read is overwhelmingly unlikely to align with a
  // decent score against a 200kb genome.
  const SamRecord rec =
      aligner->align_single({"r", junk, std::string(100, 'I')});
  // Either unmapped, or mapped with low score evidence (soft clips).
  if (!rec.is_unmapped()) {
    std::uint32_t clipped = 0;
    for (const auto& el : rec.cigar) {
      if (el.op == CigarOp::kSoftClip) clipped += el.length;
    }
    EXPECT_GT(clipped, 30u);
  }
}

TEST_F(AlignerFixture, PairedEndProperPairFlags) {
  const std::string frag(reference.slice(0, 40000, 350));
  FastqPair pair;
  pair.first = {"p/1", frag.substr(0, 100), std::string(100, 'I')};
  pair.second = {"p/2", simdata::reverse_complement(frag.substr(250, 100)),
                 std::string(100, 'I')};
  const auto [r1, r2] = aligner->align_pair(pair);
  EXPECT_TRUE(r1.flag & SamFlags::kPaired);
  EXPECT_TRUE(r1.flag & SamFlags::kProperPair);
  EXPECT_TRUE(r1.flag & SamFlags::kFirstOfPair);
  EXPECT_TRUE(r2.flag & SamFlags::kSecondOfPair);
  EXPECT_EQ(r1.pos, 40000);
  EXPECT_EQ(r2.pos, 40250);
  EXPECT_FALSE(r1.is_reverse());
  EXPECT_TRUE(r2.is_reverse());
  EXPECT_EQ(r1.tlen, 350);
  EXPECT_EQ(r2.tlen, -350);
  EXPECT_EQ(r1.mate_pos, r2.pos);
}

TEST_F(AlignerFixture, SimulatedReadsAlignAccurately) {
  const simdata::Donor donor(reference, {});
  simdata::ReadSimSpec spec;
  spec.coverage = 1.0;
  spec.seed = 3;
  const auto sample = simdata::simulate_reads(reference, donor, spec);
  ASSERT_GT(sample.pairs.size(), 100u);

  std::size_t correct = 0, total = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(200, sample.pairs.size());
       ++i) {
    const auto& pair = sample.pairs[i];
    const auto [r1, r2] = aligner->align_pair(pair);
    // Truth from the read name: sim:<contig>:<pos>:<serial>.
    const auto& name = pair.first.name;
    const auto p1 = name.find(':');
    const auto p2 = name.find(':', p1 + 1);
    const auto p3 = name.find(':', p2 + 1);
    const std::string contig = name.substr(p1 + 1, p2 - p1 - 1);
    const std::int64_t pos = std::stoll(name.substr(p2 + 1, p3 - p2 - 1));
    const auto cid = reference.find_contig(contig).value();
    ++total;
    if (!r1.is_unmapped() && r1.contig_id == cid &&
        std::abs(r1.pos - pos) <= 12) {
      ++correct;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.93);
}

// --- hash aligner (SNAP-like) --------------------------------------------------

TEST(HashAligner, AlignsExactReads) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::genome(150'000, 2, 101));
  const HashAligner aligner(ref);
  Rng rng(103);
  int correct = 0;
  const int trials = 100;
  for (int i = 0; i < trials; ++i) {
    const auto cid = static_cast<std::int32_t>(rng.below(2));
    const auto& seq = ref.contig(cid).sequence;
    const std::size_t pos = rng.below(seq.size() - 120);
    const std::string read = seq.substr(pos, 100);
    if (read.find('N') != std::string::npos) {
      ++correct;  // skip gap reads
      continue;
    }
    const SamRecord rec =
        aligner.align({"r", read, std::string(100, 'I')});
    if (!rec.is_unmapped() && rec.contig_id == cid &&
        std::abs(rec.pos - static_cast<std::int64_t>(pos)) <= 8) {
      ++correct;
    }
  }
  EXPECT_GT(correct, 92);
}

TEST(HashAligner, ReverseStrand) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(50'000, 107));
  const HashAligner aligner(ref);
  const std::string fwd(ref.slice(0, 1000, 100));
  const SamRecord rec = aligner.align(
      {"r", simdata::reverse_complement(fwd), std::string(100, 'I')});
  EXPECT_FALSE(rec.is_unmapped());
  EXPECT_TRUE(rec.is_reverse());
  EXPECT_EQ(rec.pos, 1000);
}

TEST(HashAligner, ReportsIndexFootprint) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(20'000, 109));
  const HashAligner aligner(ref);
  EXPECT_GT(aligner.index_bytes(), 20'000u);
}


TEST_F(AlignerFixture, MateRescueRecoversJunkMate) {
  // First mate aligns cleanly; second mate is corrupted enough that
  // seeding fails, but SW rescue in the insert window recovers it.
  const std::string frag(reference.slice(0, 60'000, 350));
  FastqPair pair;
  pair.first = {"p/1", frag.substr(0, 100), std::string(100, 'I')};
  std::string mate = simdata::reverse_complement(frag.substr(250, 100));
  // Corrupt every 8th base: seeds of length 19 cannot survive, SW can.
  Rng rng(601);
  for (std::size_t i = 0; i < mate.size(); i += 8) {
    mate[i] = mate[i] == 'A' ? 'C' : 'A';
  }
  pair.second = {"p/2", mate, std::string(100, 'I')};
  const auto [r1, r2] = aligner->align_pair(pair);
  EXPECT_FALSE(r1.is_unmapped());
  EXPECT_FALSE(r2.is_unmapped()) << "mate rescue failed";
  EXPECT_NEAR(static_cast<double>(r2.pos), 60'250.0, 16.0);
  EXPECT_TRUE(r2.flag & SamFlags::kProperPair);
}

TEST_F(AlignerFixture, BothMatesJunkStayUnmapped) {
  Rng rng(607);
  auto junk = [&rng] {
    std::string s(100, 'A');
    for (auto& c : s) c = "ACGT"[rng.below(4)];
    return s;
  };
  FastqPair pair;
  pair.first = {"j/1", junk(), std::string(100, 'I')};
  pair.second = {"j/2", junk(), std::string(100, 'I')};
  const auto [r1, r2] = aligner->align_pair(pair);
  // Mate flags must be consistent even when unmapped.
  if (r1.is_unmapped()) {
    EXPECT_TRUE(r2.flag & SamFlags::kMateUnmapped);
  }
  EXPECT_TRUE(r1.flag & SamFlags::kPaired);
  EXPECT_TRUE(r2.flag & SamFlags::kPaired);
}

TEST_F(AlignerFixture, ShortReadBelowSeedLengthUnmapped) {
  const SamRecord rec = aligner->align_single(
      {"tiny", "ACGTACGTAC", std::string(10, 'I')});
  EXPECT_TRUE(rec.is_unmapped());
}

}  // namespace
}  // namespace gpf::align
