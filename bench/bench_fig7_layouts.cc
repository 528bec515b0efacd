// Fig. 7: solving single-precision linear systems with QR, one problem per
// block, comparing register-file data layouts (2D cyclic vs 1D column cyclic
// vs 1D row cyclic). The paper runs 10000 systems; one occupancy wave per
// point gives the same GFLOP/s.
#include "bench_util.h"
#include "common/generators.h"
#include "core/per_block.h"
#include "model/per_block_model.h"

int main(int argc, char** argv) {
  using namespace regla;
  bench::parse_smoke(argc, argv);
  simt::Device dev;
  Table t({"n", "2D cyclic", "1D col cyclic", "1D row cyclic"});
  t.precision(1);
  for (int n = 16; n <= bench::pick(96, 32); n += 16) {
    std::vector<Table::Cell> row{static_cast<long long>(n)};
    for (core::Layout layout :
         {core::Layout::cyclic2d, core::Layout::col1d, core::Layout::row1d}) {
      const int threads = model::choose_block_threads(dev.config(), n, n + 1);
      const int blocks =
          bench::wave_blocks(dev.config(), threads,
                             core::per_block_regs(dev.config(), n, n + 1, threads));
      BatchF a(blocks, n, n), b(blocks, n, 1);
      fill_diag_dominant(a, n);
      fill_uniform(b, n + 1);
      const auto r = core::qr_solve_per_block(dev, a, b, {threads, layout});
      row.emplace_back(r.gflops());
    }
    t.add_row(std::move(row));
  }
  bench::emit(t, "fig7", "QR solve GFLOP/s by register-file layout");
  return 0;
}
