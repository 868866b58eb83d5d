#include "caller/pairhmm.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace gpf::caller {
namespace {

double error_prob(char qual_char) {
  const int q = std::max(1, qual_char - 33);
  return std::pow(10.0, -q / 10.0);
}

/// error_prob for every byte, each computed once by the same call, so a
/// lookup returns exactly the double the per-row std::pow would.
const std::array<double, 256>& error_table() {
  static const std::array<double, 256> table = [] {
    std::array<double, 256> t{};
    for (int c = 0; c < 256; ++c) t[c] = error_prob(static_cast<char>(c));
    return t;
  }();
  return table;
}

double error_of(char qual_char) {
  return error_table()[static_cast<unsigned char>(qual_char)];
}

double emission(char rb, char hb, double e) {
  return (rb == 'N' || hb == 'N') ? 0.25 : (rb == hb ? 1.0 - e : e / 3.0);
}

constexpr double kScaleThreshold = 1e-200;
constexpr double kScaleFactor = 1e200;

// --- lane-batched kernel ----------------------------------------------------
//
// Scores up to kLanes reads against every haplotype of a region, one read
// per double lane, with the scalar kernel's recurrence written in the same
// operation order and no FMA (the AVX2 wrapper does not enable it, and the
// build does not contract), so every lane computes exactly the doubles the
// scalar kernel would for its read.  Per lane it keeps the emission row,
// the rescale decision, log10_scale and the row_max == 0 outcome; a lane's
// total is read at its own last row, and rows past it are don't-care.
//
// Three rewrites of the scalar loop keep it exact:
//  * One row per state, updated in place.  Cell j of row i reads row i-1
//    at columns j-1 and j and row i at column j-1.  The sweep loads column
//    j's row i-1 values into registers before it overwrites them and
//    carries column j-1's old and new values in registers, so it computes
//    the same doubles from the same operands as the two-row form.
//  * An order-free row max, row_max = max(row_max, max(max(m, x), y)),
//    one dependent max per column instead of three.  Every cell is a
//    product and sum of non-negative finite doubles (for gap_open in
//    [0, 0.5] and gap_extend in [0, 1]), and row_max only feeds the
//    == 0, > 0 and < 1e-200 tests, where +0.0 and -0.0 agree; so the
//    maximum, and every decision taken from it, does not depend on the
//    order in which the cells are compared.
//  * Haplotype-prefix reuse.  Haplotypes are scored in (length, bytes)
//    order.  Row i's cells at columns 1..k depend only on haplotype bytes
//    1..k, on the initial mass 1/n (n the haplotype length), and on the
//    rescale factors of rows 1..i-1.  So a haplotype with the previous
//    one's length and first k bytes resumes every row at column k+1 from
//    stored boundary values: column k's pre-rescale M, X and Y, the row
//    max over columns 1..k, and, at each lane's last row, the partial
//    free-end sum over columns 1..k (a left-to-right sum, so its prefix
//    is a prefix of the same additions).  That holds while both
//    haplotypes rescale the same lanes on every row; on the first row
//    where the rescale masks differ (the masks include the last row, whose
//    factor the partial sum carries) the haplotype is scored again from
//    column 0.  The resume columns are known before scoring, so each pass
//    stores the boundaries of every later resume column it computes.  A
//    haplotype whose previous pass stopped early (every lane underflowed)
//    is scored from column 0 too, since the boundaries past that row were
//    never stored.

// Double vectors (GCC/Clang vector extensions), lowered to SSE2 for two
// lanes and, inside the target("avx2") wrapper, to AVX for four.  The
// types are unaligned and alias-safe (the buffers still start on a vector
// boundary, see lane_aligned).  They are looked up by lane count because
// GCC drops type attributes from a typedef passed as a template argument.
template <std::size_t kLanes>
struct LaneVec;
template <>
struct LaneVec<2> {
  typedef double type __attribute__((vector_size(16), aligned(8), may_alias));
};
template <>
struct LaneVec<4> {
  typedef double type __attribute__((vector_size(32), aligned(8), may_alias));
};

/// Sizes `v` to hold `size` doubles from a kLanes-double boundary on, and
/// returns that boundary, so no vector load splits a cache line.
template <std::size_t kLanes>
double* lane_aligned(std::vector<double>& v, std::size_t size) {
  v.resize(size + kLanes);
  const auto misalign =
      reinterpret_cast<std::uintptr_t>(v.data()) / sizeof(double) % kLanes;
  return v.data() + (kLanes - misalign) % kLanes;
}

/// The haplotypes of a region in scoring order, with the prefix each one
/// shares with the one before it.
struct RegionPlan {
  struct Pass {
    std::string_view hap;
    std::size_t index = 0;   // position in the caller's haplotype list
    std::size_t resume = 0;  // shared prefix with the previous pass
    std::size_t slot = 0;    // boundary slot of column `resume`
    std::size_t class_at = 0;  // first of hap.size() entries in class_ids
    std::size_t classes = 0;
    std::array<char, 256> class_byte{};
  };
  std::vector<Pass> passes;
  // Haplotype bytes -> dense classes, so each row needs one emission
  // value per (class, lane) instead of one per (column, lane).
  std::vector<std::uint8_t> class_ids;
  // Distinct resume columns, ascending, and the last pass reading each.
  std::vector<std::size_t> slot_col;
  std::vector<std::size_t> slot_last_use;
  std::size_t max_len = 0;
  std::size_t max_classes = 0;
};

RegionPlan plan_region(std::span<const std::string_view> haplotypes) {
  RegionPlan plan;
  std::vector<std::size_t> order;
  for (std::size_t h = 0; h < haplotypes.size(); ++h) {
    if (!haplotypes[h].empty()) order.push_back(h);
  }
  // Sorted order puts the longest shared prefixes next to each other.
  std::stable_sort(order.begin(), order.end(),
                   [&haplotypes](std::size_t a, std::size_t b) {
                     const std::string_view x = haplotypes[a];
                     const std::string_view y = haplotypes[b];
                     return x.size() != y.size() ? x.size() < y.size()
                                                 : x < y;
                   });
  for (std::size_t p = 0; p < order.size(); ++p) {
    RegionPlan::Pass pass;
    pass.hap = haplotypes[order[p]];
    pass.index = order[p];
    const std::size_t n = pass.hap.size();
    if (p > 0 && plan.passes[p - 1].hap.size() == n) {
      const std::string_view prev = plan.passes[p - 1].hap;
      pass.resume = static_cast<std::size_t>(
          std::mismatch(prev.begin(), prev.end(), pass.hap.begin()).first -
          prev.begin());
    }
    if (pass.resume > 0) plan.slot_col.push_back(pass.resume);
    constexpr std::uint16_t kUnseen = 256;
    std::array<std::uint16_t, 256> class_of;
    class_of.fill(kUnseen);
    pass.class_at = plan.class_ids.size();
    for (const char ch : pass.hap) {
      const auto c = static_cast<unsigned char>(ch);
      if (class_of[c] == kUnseen) {
        class_of[c] = static_cast<std::uint16_t>(pass.classes);
        pass.class_byte[pass.classes++] = ch;
      }
      plan.class_ids.push_back(static_cast<std::uint8_t>(class_of[c]));
    }
    plan.max_len = std::max(plan.max_len, n);
    plan.max_classes = std::max(plan.max_classes, pass.classes);
    plan.passes.push_back(pass);
  }
  std::sort(plan.slot_col.begin(), plan.slot_col.end());
  plan.slot_col.erase(std::unique(plan.slot_col.begin(), plan.slot_col.end()),
                      plan.slot_col.end());
  plan.slot_last_use.assign(plan.slot_col.size(), 0);
  for (std::size_t p = 0; p < plan.passes.size(); ++p) {
    RegionPlan::Pass& pass = plan.passes[p];
    if (pass.resume == 0) continue;
    pass.slot = static_cast<std::size_t>(
        std::lower_bound(plan.slot_col.begin(), plan.slot_col.end(),
                         pass.resume) -
        plan.slot_col.begin());
    plan.slot_last_use[pass.slot] = p;
  }
  return plan;
}

/// Scores one read batch (kLanes reads) against every pass of `plan`;
/// out[p * kLanes + l] is lane l's score under pass p's haplotype.
template <std::size_t kLanes>
[[gnu::always_inline]] inline void score_lanes(
    const PairHmmOptions& options, detail::PairHmmBuffers& b,
    const RegionPlan& plan, const HmmRead* const* lanes, double* out,
    PairHmmCells& cells) {
  using Vec = typename LaneVec<kLanes>::type;
  constexpr std::size_t kCell = 3 * kLanes;  // doubles per column
  constexpr std::size_t kBound = 4 * kLanes;  // doubles per boundary row

  std::size_t rows = 0;
  std::array<std::size_t, kLanes> len{};
  for (std::size_t l = 0; l < kLanes; ++l) {
    len[l] = lanes[l]->bases.size();
    rows = std::max(rows, len[l]);
  }
  const std::size_t slots = plan.slot_col.size();
  const std::size_t slot_rows = (rows + 1) * kBound;
  double* const row = lane_aligned<kLanes>(b.row, (plan.max_len + 1) * kCell);
  double* const bound = lane_aligned<kLanes>(b.bound, slots * slot_rows);
  double* const psum = lane_aligned<kLanes>(b.psum, slots * kLanes);
  double* const emit = lane_aligned<kLanes>(b.emit, plan.max_classes * kLanes);
  b.rescaled[0].assign(rows + 1, 0);
  b.rescaled[1].assign(rows + 1, 0);
  b.writes.resize(slots);
  std::size_t* const writes = b.writes.data();

  const double mm = 1.0 - 2.0 * options.gap_open;
  const double gm = 1.0 - options.gap_extend;
  const double go = options.gap_open;
  const double ge = options.gap_extend;
  const Vec zero{};
  const Vec v_mm = zero + mm;
  const Vec v_gm = zero + gm;
  const Vec v_go = zero + go;
  const Vec v_ge = zero + ge;

  auto at = [](double* p) { return reinterpret_cast<Vec*>(p); };
  auto cat = [](const double* p) { return reinterpret_cast<const Vec*>(p); };

  std::uint8_t* prev_mask = b.rescaled[0].data();
  std::uint8_t* cur_mask = b.rescaled[1].data();
  bool prev_complete = false;
  for (std::size_t p = 0; p < plan.passes.size(); ++p) {
    const RegionPlan::Pass& pass = plan.passes[p];
    const std::size_t n = pass.hap.size();
    const std::uint8_t* const cls = plan.class_ids.data() + pass.class_at;
    double* const res = out + p * kLanes;
    std::size_t k = prev_complete ? pass.resume : 0;
    std::size_t rows_done = 0;
    for (bool diverged = true; diverged;) {
      diverged = false;
      // Boundary slots this pass computes and a later pass reads.
      std::size_t n_writes = 0;
      for (std::size_t s = 0; s < slots; ++s) {
        if (plan.slot_col[s] > k && plan.slot_col[s] <= n &&
            plan.slot_last_use[s] > p) {
          writes[n_writes++] = s;
        }
      }
      const double* const from = bound + pass.slot * slot_rows;

      const double init = 1.0 / static_cast<double>(n);
      for (std::size_t j = k + 1; j <= n; ++j) {
        *at(row + j * kCell) = zero;
        *at(row + j * kCell + kLanes) = zero;
        *at(row + j * kCell + 2 * kLanes) = zero + init;
      }
      // Column k of the previous row, after its rescale.
      Vec bm = zero;
      Vec bx = zero;
      Vec by = zero + init;
      std::array<double, kLanes> log10_scale{};
      std::array<bool, kLanes> live{};
      live.fill(true);
      for (std::size_t i = 1; i <= rows; ++i) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          const HmmRead& r = *lanes[l];
          // Past its last row a lane's values are never read.
          const bool in_read = i <= len[l];
          const char rb = in_read ? r.bases[i - 1] : 'N';
          const double e = in_read ? error_of(r.quality[i - 1]) : 1.0;
          for (std::size_t c = 0; c < pass.classes; ++c) {
            emit[c * kLanes + l] = emission(rb, pass.class_byte[c], e);
          }
        }

        Vec m_diag = bm;
        Vec x_diag = bx;
        Vec y_diag = by;
        Vec m_left = zero;
        Vec x_left = zero;
        Vec y_left = zero;
        Vec row_max = zero;
        if (k > 0) {
          const double* f = from + i * kBound;
          m_left = *cat(f);
          x_left = *cat(f + kLanes);
          y_left = *cat(f + 2 * kLanes);
          row_max = *cat(f + 3 * kLanes);
        }
        const Vec m_k = m_left;
        const Vec x_k = x_left;
        const Vec y_k = y_left;
        std::size_t j = k + 1;
        for (std::size_t w = 0;; ++w) {
          const std::size_t stop = w < n_writes ? plan.slot_col[writes[w]] : n;
          for (; j <= stop; ++j) {
            double* cell = row + j * kCell;
            const Vec em = *cat(emit + cls[j - 1] * kLanes);
            const Vec m_up = *at(cell);
            const Vec x_up = *at(cell + kLanes);
            const Vec y_up = *at(cell + 2 * kLanes);
            const Vec mv = em * (v_mm * m_diag + v_gm * x_diag + v_gm * y_diag);
            const Vec xv = v_go * m_up + v_ge * x_up;
            const Vec yv = v_go * m_left + v_ge * y_left;
            *at(cell) = mv;
            *at(cell + kLanes) = xv;
            *at(cell + 2 * kLanes) = yv;
            const Vec mx = mv > xv ? mv : xv;
            const Vec cell_max = mx > yv ? mx : yv;
            row_max = row_max > cell_max ? row_max : cell_max;
            m_diag = m_up;
            x_diag = x_up;
            y_diag = y_up;
            m_left = mv;
            x_left = xv;
            y_left = yv;
          }
          if (w == n_writes) break;
          double* to = bound + writes[w] * slot_rows + i * kBound;
          *at(to) = m_left;
          *at(to + kLanes) = x_left;
          *at(to + 2 * kLanes) = y_left;
          *at(to + 3 * kLanes) = row_max;
        }

        // Rescale only the lanes that need it; x * 1.0 is exact for the
        // rest.
        Vec factor = zero + 1.0;
        std::uint8_t mask = 0;
        for (std::size_t l = 0; l < kLanes; ++l) {
          if (live[l] && row_max[l] > 0.0 && row_max[l] < kScaleThreshold) {
            factor[l] = kScaleFactor;
            log10_scale[l] -= std::log10(kScaleFactor);
            mask |= static_cast<std::uint8_t>(1u << l);
          }
        }
        if (k > 0 && mask != prev_mask[i]) {
          // The stored boundaries carry the previous pass's factors.
          cells.computed += i * (n - k);
          diverged = true;
          k = 0;
          break;
        }
        cur_mask[i] = mask;
        if (mask != 0) {
          for (std::size_t c = (k + 1) * kCell; c < (n + 1) * kCell;
               c += kLanes) {
            *at(row + c) *= factor;
          }
        }
        bm = m_k * factor;
        bx = x_k * factor;
        by = y_k * factor;

        bool finishing = false;
        for (std::size_t l = 0; l < kLanes; ++l) {
          if (live[l] && row_max[l] == 0.0) {
            res[l] = -300.0;  // underflow: effectively impossible
            live[l] = false;
          }
          finishing |= len[l] == i;
        }
        if (finishing) {
          // Free end anywhere along the haplotype, summed for every lane
          // (live or not) so later passes can resume the sum.
          Vec total = k > 0 ? *at(psum + pass.slot * kLanes) : zero;
          j = k + 1;
          for (std::size_t w = 0;; ++w) {
            const std::size_t stop =
                w < n_writes ? plan.slot_col[writes[w]] : n;
            for (; j <= stop; ++j) {
              total += *at(row + j * kCell) + *at(row + j * kCell + kLanes);
            }
            if (w == n_writes) break;
            for (std::size_t l = 0; l < kLanes; ++l) {
              if (len[l] == i) psum[writes[w] * kLanes + l] = total[l];
            }
          }
          for (std::size_t l = 0; l < kLanes; ++l) {
            if (live[l] && len[l] == i) {
              res[l] = total[l] <= 0.0 ? -300.0
                                       : std::log10(total[l]) + log10_scale[l];
              live[l] = false;
            }
          }
        }
        rows_done = i;
        if (std::none_of(live.begin(), live.end(),
                         [](bool v) { return v; })) {
          break;
        }
      }
    }
    cells.computed += rows_done * (n - k);
    cells.resumed += rows_done * k;
    prev_complete = rows_done == rows;
    std::swap(prev_mask, cur_mask);
  }
}

#if defined(GPF_SIMD_X86)
void score_sse(const PairHmmOptions& options, detail::PairHmmBuffers& b,
               const RegionPlan& plan, const HmmRead* const* lanes,
               double* out, PairHmmCells& cells) {
  score_lanes<2>(options, b, plan, lanes, out, cells);
}

__attribute__((target("avx2"))) void score_avx2(
    const PairHmmOptions& options, detail::PairHmmBuffers& b,
    const RegionPlan& plan, const HmmRead* const* lanes, double* out,
    PairHmmCells& cells) {
  score_lanes<4>(options, b, plan, lanes, out, cells);
}
#endif

}  // namespace

PairHmm::PairHmm(PairHmmOptions options) : options_(options) {}

double PairHmm::log10_likelihood(std::string_view read,
                                 std::string_view quality,
                                 std::string_view haplotype) {
  if (read.size() != quality.size()) {
    throw std::invalid_argument("pairhmm: read/quality length mismatch");
  }
  if (read.empty() || haplotype.empty()) return -300.0;

  auto& m_ = buf_.m;
  auto& x_ = buf_.x;
  auto& y_ = buf_.y;
  const std::size_t n = haplotype.size();
  for (auto& row : m_) row.assign(n + 1, 0.0);
  for (auto& row : x_) row.assign(n + 1, 0.0);
  for (auto& row : y_) row.assign(n + 1, 0.0);

  // Transition probabilities.
  const double mm = 1.0 - 2.0 * options_.gap_open;
  const double gm = 1.0 - options_.gap_extend;
  const double go = options_.gap_open;
  const double ge = options_.gap_extend;

  // Free start anywhere along the haplotype: initial mass in the D (Y)
  // state spread uniformly.
  const double init = 1.0 / static_cast<double>(n);
  for (std::size_t j = 0; j <= n; ++j) y_[0][j] = init;

  double log10_scale = 0.0;
  int cur = 0;
  for (std::size_t i = 1; i <= read.size(); ++i) {
    const int prev = cur;
    cur ^= 1;
    const char rb = read[i - 1];
    const double e = error_of(quality[i - 1]);
    m_[cur][0] = 0.0;
    x_[cur][0] = 0.0;
    y_[cur][0] = 0.0;
    double row_max = 0.0;
    for (std::size_t j = 1; j <= n; ++j) {
      const double emit = emission(rb, haplotype[j - 1], e);
      m_[cur][j] = emit * (mm * m_[prev][j - 1] + gm * x_[prev][j - 1] +
                           gm * y_[prev][j - 1]);
      x_[cur][j] = go * m_[prev][j] + ge * x_[prev][j];
      y_[cur][j] = go * m_[cur][j - 1] + ge * y_[cur][j - 1];
      row_max = std::max({row_max, m_[cur][j], x_[cur][j], y_[cur][j]});
    }
    if (row_max > 0.0 && row_max < kScaleThreshold) {
      for (std::size_t j = 0; j <= n; ++j) {
        m_[cur][j] *= kScaleFactor;
        x_[cur][j] *= kScaleFactor;
        y_[cur][j] *= kScaleFactor;
      }
      log10_scale -= std::log10(kScaleFactor);
    }
    if (row_max == 0.0) return -300.0;  // underflow: effectively impossible
  }

  // Free end anywhere along the haplotype.
  double total = 0.0;
  for (std::size_t j = 1; j <= n; ++j) total += m_[cur][j] + x_[cur][j];
  if (total <= 0.0) return -300.0;
  return std::log10(total) + log10_scale;
}

void PairHmm::log10_likelihoods(std::span<const HmmRead> reads,
                                std::span<const std::string_view> haplotypes,
                                std::span<double> out) {
  log10_likelihoods_at(simd::active_level(), reads, haplotypes, out);
}

void PairHmm::log10_likelihoods_at(
    simd::Level level, std::span<const HmmRead> reads,
    std::span<const std::string_view> haplotypes, std::span<double> out) {
  const std::size_t haps = haplotypes.size();
  if (out.size() != reads.size() * haps) {
    throw std::invalid_argument("pairhmm: output size mismatch");
  }
  for (const HmmRead& r : reads) {
    if (r.bases.size() != r.quality.size()) {
      throw std::invalid_argument("pairhmm: read/quality length mismatch");
    }
  }
  using Kernel = void (*)(const PairHmmOptions&, detail::PairHmmBuffers&,
                          const RegionPlan&, const HmmRead* const*, double*,
                          PairHmmCells&);
  Kernel kernel = nullptr;
  std::size_t lanes = 1;
#if defined(GPF_SIMD_X86)
  if (level >= simd::Level::kAvx2) {
    kernel = score_avx2;
    lanes = 4;
  } else if (level >= simd::Level::kSse4) {
    kernel = score_sse;
    lanes = 2;
  }
#endif
  if (kernel == nullptr) {
    for (std::size_t r = 0; r < reads.size(); ++r) {
      for (std::size_t h = 0; h < haps; ++h) {
        out[r * haps + h] = log10_likelihood(reads[r].bases, reads[r].quality,
                                             haplotypes[h]);
      }
    }
    return;
  }

  // Empty reads and haplotypes score -300 without entering the kernel.
  std::fill(out.begin(), out.end(), -300.0);
  const RegionPlan plan = plan_region(haplotypes);
  if (plan.passes.empty()) return;
  // Longest reads first, so the lanes of one batch end on nearby rows.
  std::vector<std::size_t> order;
  order.reserve(reads.size());
  for (std::size_t r = 0; r < reads.size(); ++r) {
    if (!reads[r].bases.empty()) order.push_back(r);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&reads](std::size_t a, std::size_t b) {
                     return reads[a].bases.size() > reads[b].bases.size();
                   });
  // A short final batch repeats its first read in the spare lanes.
  std::array<const HmmRead*, 4> batch{};
  std::vector<double> scores(plan.passes.size() * lanes);
  for (std::size_t first = 0; first < order.size(); first += lanes) {
    const std::size_t count = std::min(lanes, order.size() - first);
    for (std::size_t l = 0; l < lanes; ++l) {
      batch[l] = &reads[order[first + (l < count ? l : 0)]];
    }
    kernel(options_, buf_, plan, batch.data(), scores.data(), cells_);
    for (std::size_t l = 0; l < count; ++l) {
      for (std::size_t p = 0; p < plan.passes.size(); ++p) {
        out[order[first + l] * haps + plan.passes[p].index] =
            scores[p * lanes + l];
      }
    }
  }
}

}  // namespace gpf::caller
