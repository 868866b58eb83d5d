#include "align/fm_index.hpp"

#include <algorithm>
#include <stdexcept>

#include "align/suffix_array.hpp"

namespace gpf::align {
namespace {

std::uint8_t base_to_code(char base) {
  switch (base) {
    case 'A':
      return 1;
    case 'C':
      return 2;
    case 'G':
      return 3;
    case 'T':
      return 4;
    default:
      return 1;  // N indexed as A; see header comment
  }
}

/// Bit count without the libgcc call that std::popcount becomes on the
/// baseline x86-64 target this library builds for.
std::uint32_t popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<std::uint32_t>((x * 0x0101010101010101ULL) >> 56);
}

}  // namespace

FmIndex::FmIndex(const Reference& reference) : reference_(&reference) {
  // Concatenate contigs with a 0 separator after each (the final one doubles
  // as terminator).
  std::vector<std::uint8_t> text;
  text.reserve(reference.total_length() + reference.contig_count());
  contig_starts_.reserve(reference.contig_count());
  for (std::size_t cid = 0; cid < reference.contig_count(); ++cid) {
    contig_starts_.push_back(text.size());
    for (const char b :
         reference.contig(static_cast<std::int32_t>(cid)).sequence) {
      text.push_back(base_to_code(b));
    }
    text.push_back(0);
  }
  if (text.empty()) throw std::invalid_argument("FmIndex: empty reference");

  sa_ = build_suffix_array(text);
  rows_ = static_cast<std::uint32_t>(text.size());

  // C array.
  std::uint32_t counts[kAlphabet] = {};
  for (const std::uint8_t c : text) ++counts[c];
  c_[0] = 0;
  for (int c = 0; c < kAlphabet; ++c) c_[c + 1] = c_[c] + counts[c];

  // Rank blocks, straight from the suffix array: bwt[i] = text[sa[i] - 1],
  // wrapping to the last character.  The masks are built from compares,
  // so the 64 text loads of a block do not wait on each other.  The last
  // block starts at or before rows_ and carries the totals.
  blocks_.resize(rows_ / kBlockRows + 1);
  std::uint32_t running[kAlphabet - 1] = {};
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    RankBlock& block = blocks_[b];
    std::copy(running, running + kAlphabet - 1, block.count);
    const auto first = static_cast<std::uint32_t>(b * kBlockRows);
    const std::uint32_t end = std::min(rows_, first + kBlockRows);
    for (std::uint32_t i = first; i < end; ++i) {
      const std::uint8_t code = text[sa_[i] == 0 ? rows_ - 1 : sa_[i] - 1];
      const std::uint32_t bit = i - first;
      for (int c = 0; c < kAlphabet - 1; ++c) {
        block.mask[c] |= std::uint64_t{code == c + 1} << bit;
      }
    }
    for (int c = 0; c < kAlphabet - 1; ++c) {
      running[c] += popcount64(block.mask[c]);
    }
  }
}

std::uint32_t FmIndex::occ(std::uint8_t code, std::uint32_t i) const {
  const RankBlock& block = blocks_[i / kBlockRows];
  const std::uint64_t below = (std::uint64_t{1} << (i % kBlockRows)) - 1;
  return block.count[code - 1] + popcount64(block.mask[code - 1] & below);
}

SaInterval FmIndex::extend(const SaInterval& interval, char base) const {
  if (base != 'A' && base != 'C' && base != 'G' && base != 'T') {
    return {0, 0};  // N never matches
  }
  const std::uint8_t c = base_to_code(base);
  return {c_[c] + occ(c, interval.lo), c_[c] + occ(c, interval.hi)};
}

SaInterval FmIndex::search(std::string_view pattern) const {
  SaInterval iv = whole();
  for (auto it = pattern.rbegin(); it != pattern.rend(); ++it) {
    iv = extend(iv, *it);
    if (iv.empty()) return {0, 0};
  }
  return iv;
}

RefPosition FmIndex::locate(std::uint32_t row) const {
  const std::uint64_t text_pos = sa_.at(row);

  // Map into contig coordinates.
  auto it = std::upper_bound(contig_starts_.begin(), contig_starts_.end(),
                             text_pos);
  const auto cid = static_cast<std::int32_t>(
      std::distance(contig_starts_.begin(), it) - 1);
  RefPosition pos;
  pos.contig_id = cid;
  pos.offset =
      static_cast<std::int64_t>(text_pos - contig_starts_[cid]);
  // Positions landing on a separator belong to no contig.
  const auto len = static_cast<std::int64_t>(
      reference_->contig(cid).sequence.size());
  if (pos.offset >= len) return {};  // separator row
  return pos;
}

}  // namespace gpf::align
