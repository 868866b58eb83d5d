// FM-index over a concatenated multi-contig reference: BWT rank blocks
// and a suffix array.  This is the paper's "BWT
// algorithm [15] to index genome sequences" substrate for the Aligner
// stage (bwa-style backward search).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "formats/fasta.hpp"

namespace gpf::align {

/// Half-open range of BWT rows matching a query (SA interval).
struct SaInterval {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;  // exclusive
  std::uint32_t size() const { return hi - lo; }
  bool empty() const { return hi <= lo; }
};

/// A reference position resolved from an SA row.
struct RefPosition {
  std::int32_t contig_id = -1;
  std::int64_t offset = -1;
};

/// FM-index with constant-time rank.  Alphabet: $=0, A=1, C=2, G=3, T=4 (N
/// in the reference is mapped to 'A' for indexing; gaps rarely attract
/// seeds because reads never contain long A-runs from gaps).
///
/// The BWT is not kept as bytes.  Every 64 BWT rows share one cache-line
/// RankBlock: per base, the count of that base in all rows before the
/// block and a 64-bit mask of the rows inside it that hold the base.  So
/// occ(c, i) = count[c] + popcount(mask[c] & bits below i % 64): one line
/// touched, no per-row scan.  `$` rows sit in no mask, since backward
/// search never extends by `$`.  At 1 byte per row the blocks are smaller
/// than the byte BWT plus 64-row checkpoints they replace.
///
/// The suffix array is kept whole rather than sampled: at the multi-
/// megabase scale of the synthetic genomes, a sampled SA with row markers
/// costs the same 4 bytes/position as the full array, so sampling would
/// add LF-walk latency for zero memory win.
class FmIndex {
 public:
  /// Builds the index over all contigs of `reference`.
  explicit FmIndex(const Reference& reference);

  /// Backward-search extension: narrows `interval` by prepending `base`
  /// (one of A/C/G/T).  Returns an empty interval when no match survives.
  SaInterval extend(const SaInterval& interval, char base) const;

  /// Full backward search for `pattern`; empty interval if absent.
  SaInterval search(std::string_view pattern) const;

  /// The interval covering every suffix (the search start state).
  SaInterval whole() const {
    return {0, rows_};
  }

  /// Resolves the reference position of SA row `row`.  Rows landing on a
  /// contig separator return a RefPosition with contig_id == -1.
  RefPosition locate(std::uint32_t row) const;

  /// Total indexed length (including per-contig sentinels).
  std::size_t text_length() const { return rows_; }

  const Reference& reference() const { return *reference_; }

 private:
  static constexpr int kAlphabet = 5;
  static constexpr std::uint32_t kBlockRows = 64;

  /// Rank state of BWT rows [64 * b, 64 * b + 64); index 0 is A (code 1).
  struct alignas(64) RankBlock {
    std::uint32_t count[kAlphabet - 1] = {};  // occurrences in rows < 64 * b
    std::uint64_t mask[kAlphabet - 1] = {};   // bit r: row 64 * b + r
  };

  /// occ(c, i): occurrences of base code c (1..4) in bwt[0, i).
  std::uint32_t occ(std::uint8_t code, std::uint32_t i) const;

  const Reference* reference_;
  std::uint32_t rows_ = 0;               // BWT length == text length
  std::uint32_t c_[kAlphabet + 1] = {};  // C array: rows starting with < c
  // rows_ / 64 + 1 blocks, so occ(c, rows_) has a block to read.
  std::vector<RankBlock> blocks_;
  // Full suffix array (see class comment for the sampling tradeoff).
  std::vector<std::uint32_t> sa_;
  // Contig boundaries in the concatenated text: cumulative start offsets.
  std::vector<std::uint64_t> contig_starts_;
};

}  // namespace gpf::align
