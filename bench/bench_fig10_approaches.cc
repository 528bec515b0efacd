// Fig. 10: the design space is not flat — many QR/LU factorizations on the
// GPU via three approaches across problem sizes: one-problem-per-thread,
// one-problem-per-block, and the hybrid CPU+GPU blocked approach
// (MAGMA-style). Per-thread is simulated to n = 32 (its register tiles cap
// out exactly as on hardware), per-block to n = 144 (beyond that the paper
// itself moves to tiled algorithms), the hybrid baseline to n = 8192.
#include "bench_util.h"
#include "common/generators.h"
#include "core/core.h"
#include "hybrid/hybrid.h"
#include "model/model.h"

int main(int argc, char** argv) {
  using namespace regla;
  bench::parse_smoke(argc, argv);
  simt::Device dev;
  Table t({"n", "per-thread", "per-block", "hybrid CPU+GPU"});
  t.precision(1);

  for (int n : {2, 4, 8, 16, 32, 64, 96, 128, 256, 512, 1024, 2048, 4096, 8192}) {
    // Smoke keeps the crossover region; the hybrid-only tail is the
    // expensive part and adds nothing to an end-to-end check.
    if (bench::smoke_mode() && n > 256) continue;
    std::vector<Table::Cell> row{static_cast<long long>(n)};

    // One problem per thread (two waves of 256-thread blocks).
    if (n <= 32) {
      BatchF b(bench::pick(2 * 14336, 2048), n, n);
      fill_uniform(b, n);
      row.emplace_back(core::qr_per_thread(dev, b).gflops());
    } else {
      row.emplace_back(std::string("-"));
    }

    // One problem per block (one wave).
    if (n >= 8 && n <= 144) {
      const int threads = model::choose_block_threads(dev.config(), n, n);
      const int blocks = bench::wave_blocks(
          dev.config(), threads, core::per_block_regs(dev.config(), n, n, threads));
      BatchF b(blocks, n, n);
      fill_uniform(b, n + 1);
      row.emplace_back(core::qr_per_block(dev, b).gflops());
    } else {
      row.emplace_back(std::string("-"));
    }

    // Hybrid blocked (sequential over problems, like the paper drove MAGMA).
    {
      const int count = std::max(1, 4096 / std::max(n, 16));
      BatchF b(count, n, n);
      fill_uniform(b, n + 2);
      hybrid::HybridOptions opt;
      // Past n = 512, skip the functional trailing updates (timing-only
      // sweep; the updates are modeled as GPU GEMM regardless).
      opt.functional = n <= 512;
      row.emplace_back(hybrid::hybrid_qr_batch(b, opt, /*sample_cap=*/2).gflops());
    }
    t.add_row(std::move(row));
  }
  bench::emit(t, "fig10",
              "Many QR factorizations, three approaches (GFLOP/s); the "
              "crossover between per-block and hybrid is the paper's point");
  return 0;
}
