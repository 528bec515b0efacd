// One-problem-per-block LU and Gauss-Jordan kernels, 2D cyclic layout
// (paper §V-B, Listings 5-7). No pivoting, exactly like the paper; callers
// are expected to provide diagonally dominant systems or check the
// `notsolved` flag.
#pragma once

#include "core/detail/lane_tiles.h"
#include "core/detail/scalar_ops.h"
#include "core/layout.h"
#include "simt/simt.h"

namespace regla::core::detail {

struct LuBlockArgs {
  float* a = nullptr;
  int n = 0;
  int count = 0;
  int* notsolved = nullptr;  ///< optional per-problem zero-pivot flags
};

/// Unpivoted LU, one problem per block, 2D cyclic.
template <typename Ctx>
void lu_block_2d(Ctx& ctx, const LuBlockArgs& arg) {
  using F = simt::real_t<Ctx>;
  const int k = ctx.block();
  if (k >= arg.count) return;
  const int n = arg.n;
  auto lane = lanes_2d<F>(ctx, n, n);
  const int r = lane[0].g2.rdim;

  auto ga = ctx.global(arg.a);
  const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(k) * n * n;

  auto l_sh = ctx.template shared<float>(n);
  auto u_sh = ctx.template shared<float>(n);
  auto scale_sh = ctx.template shared<float>(2);  // [scale, notsolved]

  ctx.tag(simt::OpTag::load);
  ctx.lanes([&](int t) {
    auto& [g2, A] = lane[t];
    for (int jj = 0; jj < g2.wreg; ++jj) {
      const int gj = g2.gcol(jj);
      for (int ii = 0; ii < g2.hreg; ++ii) {
        const int gi = g2.grow(ii);
        A.set(ii, jj, (gi < n && gj < n)
                          ? F(ga.ld(base + gi + static_cast<std::ptrdiff_t>(gj) * n))
                          : F(0.0f));
      }
    }
    if (t == 0) scale_sh.st(1, F(0.0f));
  });
  ctx.sync();

  for (int c = 0; c < n - 1; ++c) {
    ctx.set_panel(c / r);
    // Paper Listing 5: the diagonal thread computes the scale factor.
    ctx.tag(simt::OpTag::form_hh);
    ctx.lanes([&](int t) {
      auto& [g2, A] = lane[t];
      if (!g2.owns(c, c)) return;
      const F pivot = A.get(g2.lrow(c), g2.lcol(c));
      if (pivot.value() != 0.0f) {
        scale_sh.st(0, F(1.0f) / pivot);
      } else {
        scale_sh.st(0, F(0.0f));
        scale_sh.st(1, F(1.0f));
      }
    });
    ctx.sync();
    // Paper Listing 6: scale while extracting l; row owners publish u.
    ctx.lanes([&](int t) {
      auto& [g2, A] = lane[t];
      const F scale = scale_sh.ld(0);
      if (g2.tcol == c % r) {
        const int jloc = g2.lcol(c);
        for (int ii = g2.lrow_from(c + 1); ii < g2.hreg; ++ii) {
          const int gi = g2.grow(ii);
          if (gi >= n) continue;
          const F l = A.get(ii, jloc) * scale;
          A.set(ii, jloc, l);
          l_sh.st(gi, l);
        }
      }
      if (g2.trow == c % r) {
        const int iloc = g2.lrow(c);
        for (int jj = g2.lcol_from(c + 1); jj < g2.wreg; ++jj) {
          const int gj = g2.gcol(jj);
          if (gj < n) u_sh.st(gj, A.get(iloc, jj));
        }
      }
    });
    ctx.sync();
    // Paper Listing 7: rank-1 update of the Schur complement.
    ctx.tag(simt::OpTag::rank1);
    ctx.lanes([&](int t) {
      auto& [g2, A] = lane[t];
      for (int jj = g2.lcol_from(c + 1); jj < g2.wreg; ++jj) {
        const int gj = g2.gcol(jj);
        if (gj >= n) continue;
        const F u = u_sh.ld(gj);
        for (int ii = g2.lrow_from(c + 1); ii < g2.hreg; ++ii) {
          const int gi = g2.grow(ii);
          if (gi < n) A.sub(ii, jj, l_sh.ld(gi) * u);
        }
      }
    });
    ctx.sync();
  }

  ctx.set_panel(-1);
  ctx.tag(simt::OpTag::store);
  ctx.lanes([&](int t) {
    auto& [g2, A] = lane[t];
    for (int jj = 0; jj < g2.wreg; ++jj) {
      const int gj = g2.gcol(jj);
      for (int ii = 0; ii < g2.hreg; ++ii) {
        const int gi = g2.grow(ii);
        if (gi < n && gj < n)
          ga.st(base + gi + static_cast<std::ptrdiff_t>(gj) * n, A.get(ii, jj));
      }
    }
    if (arg.notsolved != nullptr && t == 0 && scale_sh.ld(1).value() != 0.0f) {
      auto gf = ctx.global(arg.notsolved);
      gf.st(k, 1);
    }
  });
}

struct GjBlockArgs {
  float* a = nullptr;
  float* b = nullptr;
  int n = 0;
  int count = 0;
  int* notsolved = nullptr;
};

/// Gauss-Jordan solve of [A | b], one problem per block, 2D cyclic.
/// b_k is overwritten with x_k; A_k ends up as garbage working values (the
/// paper's kernel likewise only preserves the solution vector).
template <typename Ctx>
void gj_block_2d(Ctx& ctx, const GjBlockArgs& arg) {
  using F = simt::real_t<Ctx>;
  const int k = ctx.block();
  if (k >= arg.count) return;
  const int n = arg.n;
  const int naug = n + 1;
  auto lane = lanes_2d<F>(ctx, n, naug);
  const int r = lane[0].g2.rdim;

  auto ga = ctx.global(arg.a);
  auto gb = ctx.global(arg.b);
  const std::ptrdiff_t abase = static_cast<std::ptrdiff_t>(k) * n * n;
  const std::ptrdiff_t bbase = static_cast<std::ptrdiff_t>(k) * n;

  auto l_sh = ctx.template shared<float>(n);
  auto u_sh = ctx.template shared<float>(naug);
  auto scale_sh = ctx.template shared<float>(2);

  ctx.tag(simt::OpTag::load);
  ctx.lanes([&](int t) {
    auto& [g2, A] = lane[t];
    for (int jj = 0; jj < g2.wreg; ++jj) {
      const int gj = g2.gcol(jj);
      for (int ii = 0; ii < g2.hreg; ++ii) {
        const int gi = g2.grow(ii);
        if (gi < n && gj < n)
          A.set(ii, jj, ga.ld(abase + gi + static_cast<std::ptrdiff_t>(gj) * n));
        else if (gi < n && gj == n)
          A.set(ii, jj, gb.ld(bbase + gi));
        else
          A.set(ii, jj, F(0.0f));
      }
    }
    if (t == 0) scale_sh.st(1, F(0.0f));
  });
  ctx.sync();

  for (int c = 0; c < n; ++c) {
    ctx.set_panel(c / r);
    ctx.tag(simt::OpTag::form_hh);
    ctx.lanes([&](int t) {
      auto& [g2, A] = lane[t];
      if (!g2.owns(c, c)) return;
      const F pivot = A.get(g2.lrow(c), g2.lcol(c));
      if (pivot.value() != 0.0f) {
        scale_sh.st(0, F(1.0f) / pivot);
      } else {
        scale_sh.st(0, F(0.0f));
        scale_sh.st(1, F(1.0f));
      }
    });
    ctx.sync();
    // Row owners scale the pivot row and publish it; column owners publish
    // the (unscaled) pivot column for elimination.
    ctx.lanes([&](int t) {
      auto& [g2, A] = lane[t];
      const F scale = scale_sh.ld(0);
      if (g2.trow == c % r) {
        const int iloc = g2.lrow(c);
        for (int jj = g2.lcol_from(c); jj < g2.wreg; ++jj) {
          const int gj = g2.gcol(jj);
          if (gj >= naug) continue;
          const F u = A.get(iloc, jj) * scale;
          A.set(iloc, jj, u);
          u_sh.st(gj, u);
        }
      }
      if (g2.tcol == c % r) {
        const int jloc = g2.lcol(c);
        for (int ii = 0; ii < g2.hreg; ++ii) {
          const int gi = g2.grow(ii);
          if (gi < n && gi != c) l_sh.st(gi, A.get(ii, jloc));
        }
      }
    });
    ctx.sync();
    ctx.tag(simt::OpTag::rank1);
    ctx.lanes([&](int t) {
      auto& [g2, A] = lane[t];
      for (int jj = g2.lcol_from(c + 1); jj < g2.wreg; ++jj) {
        const int gj = g2.gcol(jj);
        if (gj >= naug) continue;
        const F u = u_sh.ld(gj);
        for (int ii = 0; ii < g2.hreg; ++ii) {
          const int gi = g2.grow(ii);
          if (gi < n && gi != c) A.sub(ii, jj, l_sh.ld(gi) * u);
        }
      }
    });
    ctx.sync();
  }

  ctx.set_panel(-1);
  ctx.tag(simt::OpTag::store);
  ctx.lanes([&](int t) {
    auto& [g2, A] = lane[t];
    if (g2.tcol == n % r) {
      const int jloc = g2.lcol(n);
      for (int ii = 0; ii < g2.hreg; ++ii) {
        const int gi = g2.grow(ii);
        if (gi < n) gb.st(bbase + gi, A.get(ii, jloc));
      }
    }
    if (arg.notsolved != nullptr && t == 0 && scale_sh.ld(1).value() != 0.0f) {
      auto gf = ctx.global(arg.notsolved);
      gf.st(k, 1);
    }
  });
}

}  // namespace regla::core::detail
