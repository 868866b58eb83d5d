// Suffix array construction over the packed reference text.
//
// Prefix-doubling with counting-sort passes: O(n log n), deterministic,
// and fast enough for the multi-megabase synthetic genomes the benches
// index.  The text alphabet is the 2-bit base code plus a unique sentinel
// (rank 0) appended by the caller.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gpf::align {

/// Builds the suffix array of `text` (values are arbitrary unsigned bytes;
/// the caller must ensure text ends with a unique smallest byte, typically
/// 0).  Returns sa with sa[i] = start of the i-th smallest suffix.
std::vector<std::uint32_t> build_suffix_array(
    std::span<const std::uint8_t> text);

}  // namespace gpf::align
