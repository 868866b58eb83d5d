// Pair-HMM read-vs-haplotype likelihood (the paper: "calling variants via
// local de-novo assembly of haplotypes in an active region based on
// paired-HMM algorithm").
//
// Standard 3-state (match / insert / delete) HMM evaluated in probability
// space with per-row scaling; emission probabilities come from the base
// quality string.  This kernel dominates Caller-phase CPU exactly as the
// paper reports.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/simd.hpp"

namespace gpf::caller {

struct PairHmmOptions {
  /// Gap-open probability (Phred ~ 45 in GATK).
  double gap_open = 1e-4;
  /// Gap-extension probability.
  double gap_extend = 0.1;
};

/// One read of a batch: its bases and Phred+33 qualities (same length).
struct HmmRead {
  std::string_view bases;
  std::string_view quality;
};

/// Batched-kernel cell counts (one cell = one DP column of one row of one
/// read batch): `resumed` cells were taken from the previous haplotype's
/// shared prefix instead of being computed.
struct PairHmmCells {
  std::uint64_t computed = 0;
  std::uint64_t resumed = 0;
};

namespace detail {

/// DP buffers a PairHmm reuses across calls.
struct PairHmmBuffers {
  // Scalar kernel: two rolling rows for each of the three state matrices.
  std::vector<double> m[2], x[2], y[2];
  // Batched kernel: one row of cells, overwritten in place column by
  // column, each column's M, X and Y stored lane-interleaved
  // ([column][state][lane], 3 x 32 B per column at four lanes, so a
  // 500-base haplotype's row fits in a 48 KiB L1d).
  std::vector<double> row;
  // The current row's emission table, [byte class][lane].
  std::vector<double> emit;
  // Prefix reuse, per read batch: each resume column's pre-rescale M, X,
  // Y and prefix row max at every row ([slot][row][4][lane]), its
  // final-row partial sums ([slot][lane]), and the per-row rescale lane
  // masks of the previous and the current haplotype pass.
  std::vector<double> bound;
  std::vector<double> psum;
  std::vector<std::uint8_t> rescaled[2];
  // The boundary slots the current pass stores.
  std::vector<std::size_t> writes;
};

}  // namespace detail

/// Evaluator reusing its DP buffers across calls; one instance per thread.
class PairHmm {
 public:
  explicit PairHmm(PairHmmOptions options = {});

  /// log10 P(read | haplotype).  `quality` is Phred+33, same length as
  /// `read`.  The reference for every batched score.
  double log10_likelihood(std::string_view read, std::string_view quality,
                          std::string_view haplotype);

  /// log10 P(read | haplotype) for every read and every haplotype of an
  /// active region, written to out[r * haplotypes.size() + h].  Each value
  /// is bit-identical to log10_likelihood's.  At the SSE4/AVX2 dispatch
  /// levels the reads are scored 2/4 at a time, one per double lane, in
  /// the scalar kernel's operation order, and a haplotype that shares a
  /// prefix with the one scored before it resumes each row after that
  /// prefix (see pairhmm.cpp for why both are exact).  Throws
  /// std::invalid_argument on a read/quality length mismatch or when `out`
  /// has the wrong size.
  void log10_likelihoods(std::span<const HmmRead> reads,
                         std::span<const std::string_view> haplotypes,
                         std::span<double> out);

  /// log10_likelihoods at an explicit dispatch level (the caller must
  /// check the CPU supports it); tests and the perf harness use this to
  /// compare every level on one binary.
  void log10_likelihoods_at(simd::Level level, std::span<const HmmRead> reads,
                            std::span<const std::string_view> haplotypes,
                            std::span<double> out);

  /// Cells of the batched kernel since construction.
  const PairHmmCells& cells() const { return cells_; }

 private:
  PairHmmOptions options_;
  detail::PairHmmBuffers buf_;
  PairHmmCells cells_;
};

}  // namespace gpf::caller
