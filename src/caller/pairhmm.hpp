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

namespace detail {

/// DP buffers a PairHmm reuses across calls.
struct PairHmmBuffers {
  // Two rolling rows for each of the three state matrices; the batched
  // kernel stores them lane-interleaved ([column][lane]).
  std::vector<double> m[2], x[2], y[2];
  // Batched kernel only: each haplotype column's byte class and the
  // current row's emission table indexed by it ([class][lane]).
  std::vector<std::uint8_t> hap_class;
  std::vector<double> emit;
};

}  // namespace detail

/// Evaluator reusing its DP buffers across calls; one instance per thread.
class PairHmm {
 public:
  explicit PairHmm(PairHmmOptions options = {});

  /// log10 P(read | haplotype).  `quality` is Phred+33, same length as
  /// `read`.
  double log10_likelihood(std::string_view read, std::string_view quality,
                          std::string_view haplotype);

  /// log10 P(read | haplotype) for every read, written to `out` (one slot
  /// per read).  Each value is bit-identical to log10_likelihood's: at the
  /// SSE4/AVX2 dispatch levels the reads are scored 2/4 at a time, one per
  /// double lane, in the scalar kernel's operation order.  Throws
  /// std::invalid_argument on a read/quality length mismatch or when `out`
  /// has the wrong size.
  void log10_likelihoods(std::span<const HmmRead> reads,
                         std::string_view haplotype, std::span<double> out);

  /// log10_likelihoods at an explicit dispatch level (the caller must
  /// check the CPU supports it); tests and the perf harness use this to
  /// compare every level on one binary.
  void log10_likelihoods_at(simd::Level level, std::span<const HmmRead> reads,
                            std::string_view haplotype,
                            std::span<double> out);

 private:
  PairHmmOptions options_;
  detail::PairHmmBuffers buf_;
};

}  // namespace gpf::caller
