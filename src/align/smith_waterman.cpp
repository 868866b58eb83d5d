#include "align/smith_waterman.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/simd.hpp"

namespace gpf::align {
namespace {

constexpr std::int32_t kNegInf = std::numeric_limits<std::int32_t>::min() / 4;

std::int32_t substitution(char a, char b, const ScoringScheme& s) {
  if (a == 'N' || b == 'N') return s.n_score;
  return a == b ? s.match : s.mismatch;
}

/// Traceback direction codes for the H matrix.
enum : std::uint8_t {
  kStop = 0,
  kDiag = 1,
  kFromE = 2,  // deletion run ends here
  kFromF = 3,  // insertion run ends here
};

// --- production kernel ------------------------------------------------------
//
// Banded Gotoh DP with O(band * (m + n)) memory instead of six full
// (m+1) x (n+1) matrices: H/E/F live in row pairs, and the traceback state
// (direction + gap-extension flags) is packed into one byte per banded cell.
// All row and cell buffers come from a per-thread workspace whose capacity
// survives across calls, so the steady-state kernel performs no heap
// allocation.

/// Packed traceback cell: direction in the low 2 bits, gap-extension flags
/// above.  Zero means "stop, no extensions", matching the reference DP's
/// initialization, so out-of-band cells read as kStop.
constexpr std::uint8_t kDirMask = 0x3;
constexpr std::uint8_t kEExtBit = 0x4;
constexpr std::uint8_t kFExtBit = 0x8;

struct SwWorkspace {
  std::vector<std::int32_t> h_a, h_b;  // H row pair
  std::vector<std::int32_t> f_a, f_b;  // F row pair
  std::vector<std::int32_t> e_row;     // E needs only the current row
  std::vector<std::uint8_t> cells;     // banded packed traceback cells
};

thread_local SwWorkspace tls_sw_workspace;

struct BandedDp {
  std::string_view query, ref;
  ScoringScheme scoring;
  bool local = false;

  std::size_t m = 0, n = 0;
  std::int64_t lo_w = 0, hi_w = 0;  // band half-widths (see run())
  std::size_t width = 0;            // banded cells per row
  SwWorkspace& ws;

  // Best cell tracking for local mode (same scan order as the reference
  // full-matrix sweep: i ascending, then j ascending, strict improvement).
  std::int32_t best = 0;
  std::size_t best_i = 0, best_j = 0;
  std::int32_t h_mn = kNegInf;  // H(m, n) for the global traceback

  BandedDp(std::string_view q, std::string_view r, const ScoringScheme& s,
           int band, bool local_mode)
      : query(q), ref(r), scoring(s), local(local_mode),
        ws(tls_sw_workspace) {
    m = query.size();
    n = ref.size();
    // Band bounds: keep |j - i| within band, widened by the length
    // difference so a global path always fits.
    const std::int64_t diff =
        static_cast<std::int64_t>(n) - static_cast<std::int64_t>(m);
    lo_w = band + std::max<std::int64_t>(0, -diff);
    hi_w = band + std::max<std::int64_t>(0, diff);
    width = static_cast<std::size_t>(lo_w + hi_w + 1);
  }

  std::size_t jlo(std::size_t i) const {
    return static_cast<std::size_t>(
        std::max<std::int64_t>(1, static_cast<std::int64_t>(i) - lo_w));
  }
  std::size_t jhi(std::size_t i) const {
    return static_cast<std::size_t>(std::min<std::int64_t>(
        static_cast<std::int64_t>(n), static_cast<std::int64_t>(i) + hi_w));
  }
  /// First ref column stored for row i's banded cells.
  std::size_t origin(std::size_t i) const {
    const std::int64_t o = static_cast<std::int64_t>(i) - lo_w;
    return o > 0 ? static_cast<std::size_t>(o) : 0;
  }

  /// Traceback view of cell (i, j): boundary rows/columns are synthesized
  /// (their direction pattern is fixed by the DP initialization), in-band
  /// cells come from storage, anything else reads as kStop — exactly the
  /// reference DP's untouched-cell state.
  std::uint8_t cell(std::size_t i, std::size_t j) const {
    if (i == 0 || j == 0) {
      if (local || (i == 0 && j == 0)) return kStop;
      if (i == 0) return kFromE | kEExtBit;
      return kFromF | kFExtBit;
    }
    if (j < jlo(i) || j > jhi(i)) return kStop;
    return ws.cells[(i - 1) * width + (j - origin(i))];
  }

  void run() {
    // Row buffers are indexed 0..n+1: one extra slot holds the right-hand
    // kNegInf sentinel the next row reads just past this row's band.
    ws.h_a.assign(n + 2, kNegInf);
    ws.h_b.assign(n + 2, kNegInf);
    ws.f_a.assign(n + 2, kNegInf);
    ws.f_b.assign(n + 2, kNegInf);
    ws.e_row.assign(n + 2, kNegInf);
    ws.cells.assign(m * width, 0);

    std::int32_t* h_prev = ws.h_a.data();
    std::int32_t* h_cur = ws.h_b.data();
    std::int32_t* f_prev = ws.f_a.data();
    std::int32_t* f_cur = ws.f_b.data();
    std::int32_t* e_cur = ws.e_row.data();

    // Row 0 boundary.
    h_prev[0] = 0;
    if (!local) {
      for (std::size_t j = 1; j <= n; ++j) {
        h_prev[j] = scoring.gap_open +
                    scoring.gap_extend * static_cast<std::int32_t>(j - 1);
      }
    } else {
      for (std::size_t j = 1; j <= n; ++j) h_prev[j] = 0;
    }

    for (std::size_t i = 1; i <= m; ++i) {
      const std::size_t jl = jlo(i);
      const std::size_t jh = jhi(i);
      // Left boundary of this row: column 0 carries the gap-initialized
      // (global) or zero (local) value; a band edge past column 0 reads as
      // kNegInf, like the reference DP's untouched cells.
      if (jl == 1) {
        h_cur[0] = local ? 0
                         : scoring.gap_open +
                               scoring.gap_extend *
                                   static_cast<std::int32_t>(i - 1);
        f_cur[0] = local ? kNegInf : h_cur[0];
        e_cur[0] = kNegInf;
      } else {
        h_cur[jl - 1] = kNegInf;
        f_cur[jl - 1] = kNegInf;
        e_cur[jl - 1] = kNegInf;
      }

      const char qc = query[i - 1];
      const std::size_t org = origin(i);
      std::uint8_t* row_cells = ws.cells.data() + (i - 1) * width;
      for (std::size_t j = jl; j <= jh; ++j) {
        // E: gap in query (deletion), consumes ref.
        const std::int32_t e_open = h_cur[j - 1] + scoring.gap_open;
        const std::int32_t e_extend = e_cur[j - 1] + scoring.gap_extend;
        const std::int32_t e_val = std::max(e_open, e_extend);
        e_cur[j] = e_val;
        // F: gap in ref (insertion), consumes query.
        const std::int32_t f_open = h_prev[j] + scoring.gap_open;
        const std::int32_t f_extend = f_prev[j] + scoring.gap_extend;
        const std::int32_t f_val = std::max(f_open, f_extend);
        f_cur[j] = f_val;
        // H.
        const std::int32_t diag =
            h_prev[j - 1] + substitution(qc, ref[j - 1], scoring);
        std::int32_t best_h = diag;
        std::uint8_t dir = kDiag;
        if (e_val > best_h) {
          best_h = e_val;
          dir = kFromE;
        }
        if (f_val > best_h) {
          best_h = f_val;
          dir = kFromF;
        }
        if (local && best_h <= 0) {
          best_h = 0;
          dir = kStop;
        }
        h_cur[j] = best_h;
        row_cells[j - org] = static_cast<std::uint8_t>(
            dir | (e_extend > e_open ? kEExtBit : 0) |
            (f_extend > f_open ? kFExtBit : 0));
        if (local && best_h > best) {
          best = best_h;
          best_i = i;
          best_j = j;
        }
      }
      // Right sentinel: the next row may read one column past this band.
      h_cur[jh + 1] = kNegInf;
      f_cur[jh + 1] = kNegInf;
      std::swap(h_prev, h_cur);
      std::swap(f_prev, f_cur);
    }
    // After the final swap h_prev holds row m.
    if (n >= jlo(m) && n <= jhi(m)) h_mn = h_prev[n];
  }

  AlignmentResult traceback(std::size_t i, std::size_t j,
                            std::int32_t score) const {
    AlignmentResult out;
    out.score = score;
    out.query_end = static_cast<std::int32_t>(i);
    out.ref_end = static_cast<std::int32_t>(j);

    Cigar reversed;
    auto push = [&reversed](CigarOp op, std::uint32_t len) {
      if (!reversed.empty() && reversed.back().op == op) {
        reversed.back().length += len;
      } else {
        reversed.push_back({op, len});
      }
    };

    while (i > 0 || j > 0) {
      const std::uint8_t dir = cell(i, j) & kDirMask;
      if (dir == kStop) break;
      if (dir == kDiag) {
        push(CigarOp::kMatch, 1);
        if (query[i - 1] != ref[j - 1]) ++out.mismatches;
        --i;
        --j;
      } else if (dir == kFromE) {
        // Walk the deletion run.
        while (j > 0) {
          push(CigarOp::kDeletion, 1);
          const bool extended = (cell(i, j) & kEExtBit) != 0;
          --j;
          if (!extended) break;
        }
      } else {  // kFromF
        while (i > 0) {
          push(CigarOp::kInsertion, 1);
          const bool extended = (cell(i, j) & kFExtBit) != 0;
          --i;
          if (!extended) break;
        }
      }
    }
    out.query_start = static_cast<std::int32_t>(i);
    out.ref_start = static_cast<std::int32_t>(j);
    out.cigar.assign(reversed.rbegin(), reversed.rend());
    return out;
  }
};

// --- perfect-match short-circuit --------------------------------------------
//
// Most read extensions are full-length, zero-mismatch matches; for those the
// banded DP fills every cell only to confirm what a byte compare proves.
// Under the scoring conditions checked below, m * match is the largest value
// any cell can hold (each diagonal step adds at most `match`, every gap at
// least one negative `gap_open`), no row before m can reach it, and a cell in
// row m reaches it only at the end of an ungapped, mismatch-free diagonal.
// The DP's strict row-major scan therefore reports the smallest such
// diagonal, and its traceback takes kDiag on every cell of it, since any
// gapped path scores strictly less.  So when some in-band diagonal d matches
// the whole query, the DP's answer is exactly score m * match, CIGAR mM,
// ref_start d, no mismatches; otherwise the DP runs as before.

/// The DP's answer when the scoring meets the conditions above and some
/// in-band diagonal matches the whole query; nullopt otherwise.  With
/// m <= n the band's upper half-width is band + (n - m), so every d in
/// [0, n - m] is in band.
std::optional<AlignmentResult> perfect_match(std::string_view query,
                                             std::string_view ref,
                                             const ScoringScheme& s, int band) {
  const std::size_t m = query.size();
  if (band < 0 || m > ref.size() || s.match <= 0 || s.mismatch >= s.match ||
      s.n_score >= s.match || s.gap_open >= 0 || s.gap_extend > 0 ||
      query.find('N') != std::string_view::npos) {
    return std::nullopt;
  }
  for (std::size_t d = 0; d + m <= ref.size(); ++d) {
    if (std::memcmp(query.data(), ref.data() + d, m) != 0) continue;
    AlignmentResult out;
    out.score = static_cast<std::int32_t>(m) * s.match;
    out.query_end = static_cast<std::int32_t>(m);
    out.ref_start = static_cast<std::int32_t>(d);
    out.ref_end = static_cast<std::int32_t>(d + m);
    out.cigar = {{CigarOp::kMatch, static_cast<std::uint32_t>(m)}};
    return out;
  }
  return std::nullopt;
}

// --- reference kernel -------------------------------------------------------
//
// The original full-matrix Gotoh DP, kept verbatim so tests can assert the
// banded-workspace kernel above is result-identical (see
// detail::banded_global_reference / detail::glocal_reference).

/// Gotoh DP shared by both reference entry points.  `local` toggles the
/// 0-floor and free ends; for global mode, boundaries are gap-initialized
/// and the traceback starts at (m, n).
struct Dp {
  std::string_view query, ref;
  ScoringScheme scoring;
  int band;
  bool local;

  std::size_t m, n;
  // Row-major (m+1) x (n+1).
  std::vector<std::int32_t> h, e, f;
  std::vector<std::uint8_t> h_dir;
  std::vector<std::uint8_t> e_ext, f_ext;  // 1 = came from gap extension

  std::size_t idx(std::size_t i, std::size_t j) const {
    return i * (n + 1) + j;
  }

  void run() {
    m = query.size();
    n = ref.size();
    const std::size_t cells = (m + 1) * (n + 1);
    h.assign(cells, kNegInf);
    e.assign(cells, kNegInf);
    f.assign(cells, kNegInf);
    h_dir.assign(cells, kStop);
    e_ext.assign(cells, 0);
    f_ext.assign(cells, 0);

    h[idx(0, 0)] = 0;
    if (!local) {
      for (std::size_t j = 1; j <= n; ++j) {
        h[idx(0, j)] = scoring.gap_open +
                       scoring.gap_extend * static_cast<std::int32_t>(j - 1);
        h_dir[idx(0, j)] = kFromE;
        e[idx(0, j)] = h[idx(0, j)];
        e_ext[idx(0, j)] = 1;
      }
      for (std::size_t i = 1; i <= m; ++i) {
        h[idx(i, 0)] = scoring.gap_open +
                       scoring.gap_extend * static_cast<std::int32_t>(i - 1);
        h_dir[idx(i, 0)] = kFromF;
        f[idx(i, 0)] = h[idx(i, 0)];
        f_ext[idx(i, 0)] = 1;
      }
    } else {
      for (std::size_t j = 1; j <= n; ++j) h[idx(0, j)] = 0;
      for (std::size_t i = 1; i <= m; ++i) h[idx(i, 0)] = 0;
    }

    // Band bounds: keep |j - i| within band, widened by the length
    // difference so a global path always fits.
    const std::int64_t diff = static_cast<std::int64_t>(n) -
                              static_cast<std::int64_t>(m);
    const std::int64_t lo_w = band + std::max<std::int64_t>(0, -diff);
    const std::int64_t hi_w = band + std::max<std::int64_t>(0, diff);

    for (std::size_t i = 1; i <= m; ++i) {
      const auto jlo = static_cast<std::size_t>(
          std::max<std::int64_t>(1, static_cast<std::int64_t>(i) - lo_w));
      const auto jhi = static_cast<std::size_t>(std::min<std::int64_t>(
          static_cast<std::int64_t>(n), static_cast<std::int64_t>(i) + hi_w));
      for (std::size_t j = jlo; j <= jhi; ++j) {
        const std::size_t c = idx(i, j);
        // E: gap in query (deletion), consumes ref.
        const std::int32_t e_open = h[idx(i, j - 1)] + scoring.gap_open;
        const std::int32_t e_extend = e[idx(i, j - 1)] + scoring.gap_extend;
        e[c] = std::max(e_open, e_extend);
        e_ext[c] = e_extend > e_open ? 1 : 0;
        // F: gap in ref (insertion), consumes query.
        const std::int32_t f_open = h[idx(i - 1, j)] + scoring.gap_open;
        const std::int32_t f_extend = f[idx(i - 1, j)] + scoring.gap_extend;
        f[c] = std::max(f_open, f_extend);
        f_ext[c] = f_extend > f_open ? 1 : 0;
        // H.
        const std::int32_t diag =
            h[idx(i - 1, j - 1)] +
            substitution(query[i - 1], ref[j - 1], scoring);
        std::int32_t best = diag;
        std::uint8_t dir = kDiag;
        if (e[c] > best) {
          best = e[c];
          dir = kFromE;
        }
        if (f[c] > best) {
          best = f[c];
          dir = kFromF;
        }
        if (local && best <= 0) {
          best = 0;
          dir = kStop;
        }
        h[c] = best;
        h_dir[c] = dir;
      }
    }
  }

  AlignmentResult traceback(std::size_t i, std::size_t j) const {
    AlignmentResult out;
    out.score = h[idx(i, j)];
    out.query_end = static_cast<std::int32_t>(i);
    out.ref_end = static_cast<std::int32_t>(j);

    Cigar reversed;
    auto push = [&reversed](CigarOp op, std::uint32_t len) {
      if (!reversed.empty() && reversed.back().op == op) {
        reversed.back().length += len;
      } else {
        reversed.push_back({op, len});
      }
    };

    while (i > 0 || j > 0) {
      const std::size_t c = idx(i, j);
      const std::uint8_t dir = h_dir[c];
      if (dir == kStop) break;
      if (dir == kDiag) {
        push(CigarOp::kMatch, 1);
        if (query[i - 1] != ref[j - 1]) ++out.mismatches;
        --i;
        --j;
      } else if (dir == kFromE) {
        // Walk the deletion run.
        while (j > 0) {
          push(CigarOp::kDeletion, 1);
          const bool extended = e_ext[idx(i, j)] != 0;
          --j;
          if (!extended) break;
        }
      } else {  // kFromF
        while (i > 0) {
          push(CigarOp::kInsertion, 1);
          const bool extended = f_ext[idx(i, j)] != 0;
          --i;
          if (!extended) break;
        }
      }
    }
    out.query_start = static_cast<std::int32_t>(i);
    out.ref_start = static_cast<std::int32_t>(j);
    out.cigar.assign(reversed.rbegin(), reversed.rend());
    return out;
  }
};

}  // namespace

AlignmentResult banded_global(std::string_view query, std::string_view ref,
                              const ScoringScheme& scoring, int band) {
  if (query.empty() || ref.empty()) {
    throw std::invalid_argument("banded_global: empty input");
  }
  BandedDp dp(query, ref, scoring, band, /*local=*/false);
  dp.run();
  return dp.traceback(dp.m, dp.n, dp.h_mn);
}

AlignmentResult glocal(std::string_view query, std::string_view ref,
                       const ScoringScheme& scoring, int band) {
  if (query.empty() || ref.empty()) return {};
  if (simd::active_level() != simd::Level::kScalar) {
    if (auto hit = perfect_match(query, ref, scoring, band)) return *hit;
  }
  BandedDp dp(query, ref, scoring, band, /*local=*/true);
  dp.run();
  if (dp.best <= 0) return {};
  return dp.traceback(dp.best_i, dp.best_j, dp.best);
}

namespace detail {

AlignmentResult banded_global_reference(std::string_view query,
                                        std::string_view ref,
                                        const ScoringScheme& scoring,
                                        int band) {
  if (query.empty() || ref.empty()) {
    throw std::invalid_argument("banded_global: empty input");
  }
  Dp dp{query, ref, scoring, band, /*local=*/false, 0, 0, {}, {}, {}, {}, {},
        {}};
  dp.run();
  return dp.traceback(dp.m, dp.n);
}

AlignmentResult glocal_reference(std::string_view query, std::string_view ref,
                                 const ScoringScheme& scoring, int band) {
  if (query.empty() || ref.empty()) return {};
  Dp dp{query, ref, scoring, band, /*local=*/true, 0, 0, {}, {}, {}, {}, {},
        {}};
  dp.run();
  // Find the best cell anywhere (true local optimum).
  std::int32_t best = 0;
  std::size_t bi = 0, bj = 0;
  for (std::size_t i = 1; i <= dp.m; ++i) {
    for (std::size_t j = 1; j <= dp.n; ++j) {
      if (dp.h[dp.idx(i, j)] > best) {
        best = dp.h[dp.idx(i, j)];
        bi = i;
        bj = j;
      }
    }
  }
  if (best <= 0) return {};
  return dp.traceback(bi, bj);
}

}  // namespace detail

}  // namespace gpf::align
