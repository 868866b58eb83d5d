#include "align/suffix_array.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace gpf::align {

std::vector<std::uint32_t> build_suffix_array(
    std::span<const std::uint8_t> text) {
  const std::size_t n = text.size();
  if (n == 0) return {};
  if (n > 0xffffffffULL) {
    throw std::invalid_argument("suffix array: text too large for u32");
  }

  std::vector<std::uint32_t> sa(n), rank(n), tmp(n), count;
  // Initial ranks are the byte values; initial sort by counting sort.
  count.assign(257, 0);
  for (std::size_t i = 0; i < n; ++i) ++count[text[i] + 1];
  std::partial_sum(count.begin(), count.end(), count.begin());
  for (std::size_t i = 0; i < n; ++i) {
    sa[count[text[i]]++] = static_cast<std::uint32_t>(i);
  }
  rank[sa[0]] = 0;
  for (std::size_t i = 1; i < n; ++i) {
    rank[sa[i]] = rank[sa[i - 1]] + (text[sa[i]] != text[sa[i - 1]] ? 1 : 0);
  }

  for (std::size_t k = 1; k < n; k <<= 1) {
    // Sort by (rank[i], rank[i+k]) using two stable counting-sort passes.
    const std::uint32_t classes = rank[sa[n - 1]] + 1;
    if (classes == n) break;  // all suffixes distinct

    // Pass 1 (secondary key): suffixes i ordered by rank of i+k.  A suffix
    // with i+k >= n has the smallest secondary key; exploiting the current
    // sa order: sa sorted by rank gives the order of the secondary key by
    // shifting indices left by k.
    std::vector<std::uint32_t> order(n);
    std::size_t at = 0;
    for (std::size_t i = n - k; i < n; ++i) {
      order[at++] = static_cast<std::uint32_t>(i);  // no secondary key
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (sa[i] >= k) order[at++] = sa[i] - static_cast<std::uint32_t>(k);
    }

    // Pass 2 (primary key): stable counting sort of `order` by rank.
    count.assign(classes + 1, 0);
    for (std::size_t i = 0; i < n; ++i) ++count[rank[i] + 1];
    std::partial_sum(count.begin(), count.end(), count.begin());
    for (std::size_t i = 0; i < n; ++i) {
      sa[count[rank[order[i]]]++] = order[i];
    }

    // Recompute ranks.
    tmp[sa[0]] = 0;
    for (std::size_t i = 1; i < n; ++i) {
      const std::uint32_t a = sa[i - 1];
      const std::uint32_t b = sa[i];
      const bool same =
          rank[a] == rank[b] &&
          ((a + k < n && b + k < n) ? rank[a + k] == rank[b + k]
                                    : (a + k >= n && b + k >= n));
      tmp[b] = tmp[a] + (same ? 0 : 1);
    }
    rank.swap(tmp);
  }
  return sa;
}

}  // namespace gpf::align
