// Per-lane register state shared by the one-problem-per-block kernels: what
// each simulated thread keeps in its registers across __syncthreads().
#pragma once

#include "core/layout.h"
#include "simt/simt.h"

namespace regla::core::detail {

/// A 2D-cyclic lane: its grid coordinates and its register tile of an
/// m x n matrix.
template <typename S>
struct Lane2D {
  Grid2D g2;
  simt::RegTile<S> A;
};

template <typename S, typename Ctx>
auto lanes_2d(Ctx& ctx, int m, int n) {
  return ctx.lane_state([&](int tid) {
    const Grid2D g2(tid, ctx.nthreads(), m, n);
    return Lane2D<S>{g2, ctx.template reg_tile<S>(g2.hreg, g2.wreg)};
  });
}

/// A 1D-layout lane: just its h x w register tile (its rows or columns
/// follow from tid).
template <typename S, typename Ctx>
auto lane_tiles(Ctx& ctx, int h, int w) {
  return ctx.lane_state(
      [&](int) { return ctx.template reg_tile<S>(h, w); });
}

}  // namespace regla::core::detail
