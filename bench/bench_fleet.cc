// Multi-device serving: the fleet router under open-loop Poisson arrivals.
//
// Two acts:
//
//  - scale: the same n=8 QR request stream against 1 / 2 / 4 homogeneous
//    devices (one worker stream each). The reported metric is *aggregate
//    device problems/s* = total problems / max_d(simulated seconds device d
//    was busy) — the busiest device bounds the fleet, so the number is
//    honest about router imbalance: it only approaches N x the single-device
//    figure when placement actually spreads the load. The full run gates on
//    >= 3.0x at 4 devices.
//
//  - kill: 4 devices, one hard-killed a third of the way into the burst,
//    with the full resilience stack on (bounded retry, re-route to a
//    sibling, CPU fallback). The dead device is then drained, removed, and
//    replaced with a fresh one under continuing traffic. The acceptance bar
//    is accounting, not throughput: every future resolves exactly once,
//    zero lost requests, and the replacement device demonstrably serves.
//
// Both acts keep their CSV schema identical between --smoke and full runs
// so scripts/check_bench_regression.py can compare smoke rows (keyed on
// act, devices, rate) against the committed bench_results/fleet.csv.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/generators.h"
#include "fleet/fleet.h"
#include "runtime/runtime.h"

using namespace std::chrono_literals;

namespace {

using regla::BatchF;
using regla::Table;
using regla::fleet::DeviceSpec;
using regla::planner::Op;
using regla::runtime::Report;
using regla::runtime::Runtime;
using regla::runtime::RuntimeOptions;
using regla::Clock;

constexpr int kN = 8;  ///< per-thread QR: launch setup dominates, so routing
                       ///< and coalescing decisions are what separate runs
constexpr int kProblemsPerRequest = 4;

std::vector<DeviceSpec> homogeneous(int devices) {
  std::vector<DeviceSpec> specs;
  for (int d = 0; d < devices; ++d)
    specs.push_back(DeviceSpec{"dev" + std::to_string(d),
                               regla::simt::DeviceConfig::quadro6000(), 1});
  return specs;
}

struct ScaleResult {
  double offered_rps = 0;
  double wall_pps = 0;
  double agg_device_pps = 0;  ///< problems / busiest device's sim seconds
  double balance = 0;         ///< min/max per-device sim seconds (1 = even)
  double mean_batch = 0;
};

ScaleResult run_scale(int devices, double rate_rps, int requests) {
  RuntimeOptions opt;
  opt.devices = homogeneous(devices);
  opt.max_batch_delay = 200us;
  opt.max_queue_problems = 1 << 15;  // open loop: never block the arrivals
  Runtime rt(opt);

  std::mt19937_64 rng(4242 + devices);
  std::exponential_distribution<double> interarrival(rate_rps);
  std::vector<std::future<Report>> futs;
  futs.reserve(static_cast<std::size_t>(requests));

  const auto t0 = Clock::now();
  auto next = t0;
  for (int i = 0; i < requests; ++i) {
    std::this_thread::sleep_until(next);
    BatchF a(kProblemsPerRequest, kN, kN);
    regla::fill_uniform(a, static_cast<std::uint64_t>(i));
    futs.push_back(rt.submit(Op::qr, std::move(a)));
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(interarrival(rng)));
  }
  const double gen_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  for (auto& f : futs) f.get();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  rt.shutdown();

  double busiest = 0, idlest = -1;
  for (const auto& d : rt.fleet().devices()) {
    busiest = std::max(busiest, d.device_seconds);
    idlest = idlest < 0 ? d.device_seconds : std::min(idlest, d.device_seconds);
  }
  const double problems = double(requests) * kProblemsPerRequest;
  ScaleResult r;
  r.offered_rps = requests / gen_seconds;
  r.wall_pps = problems / seconds;
  r.agg_device_pps = busiest > 0 ? problems / busiest : 0;
  r.balance = busiest > 0 ? idlest / busiest : 0;
  r.mean_batch = rt.stats().mean_batch();
  return r;
}

// The kill act. Returns 0 when the accounting reconciles with zero lost
// requests and the replacement device served traffic.
int run_kill(double rate_rps, int requests, Table& t) {
  RuntimeOptions opt;
  opt.devices = homogeneous(4);
  opt.max_batch_delay = 200us;
  opt.max_queue_problems = 1 << 15;
  opt.max_retries = 2;
  opt.retry_backoff = 50us;
  opt.circuit_break_after = 1;
  opt.circuit_cooldown = std::chrono::milliseconds{10000};
  opt.cpu_fallback = true;
  Runtime rt(opt);

  std::mt19937_64 rng(0xdead);
  std::exponential_distribution<double> interarrival(rate_rps);
  std::vector<std::future<Report>> futs;
  futs.reserve(static_cast<std::size_t>(requests));
  auto next = Clock::now();
  for (int i = 0; i < requests; ++i) {
    std::this_thread::sleep_until(next);
    BatchF a(kProblemsPerRequest, kN, kN);
    regla::fill_uniform(a, static_cast<std::uint64_t>(i));
    futs.push_back(rt.submit(Op::qr, std::move(a)));
    if (i == requests / 3) rt.kill_device(0);
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(interarrival(rng)));
  }

  int ok = 0, failed = 0, hung = 0, on_dead = 0;
  for (auto& f : futs) {
    if (f.wait_for(std::chrono::seconds{60}) != std::future_status::ready) {
      ++hung;
      continue;
    }
    try {
      const Report r = f.get();
      ++ok;
      if (r.device_id == 0) ++on_dead;  // pre-kill completions only
    } catch (...) {
      ++failed;
    }
  }

  // Lifecycle under (the tail of) traffic: retire the corpse, then add a
  // replacement and prove the router sends it work.
  rt.drain_device(0);
  rt.remove_device(0);
  const int fresh = rt.add_device(
      DeviceSpec{"fresh", regla::simt::DeviceConfig::quadro6000(), 1});
  int after_ok = 0;
  const int after = std::max(16, requests / 8);
  std::vector<std::future<Report>> after_futs;
  after_futs.reserve(static_cast<std::size_t>(after));
  for (int i = 0; i < after; ++i) {
    BatchF a(kProblemsPerRequest, kN, kN);
    regla::fill_uniform(a, static_cast<std::uint64_t>(1000 + i));
    after_futs.push_back(rt.submit(Op::qr, std::move(a)));
  }
  for (auto& f : after_futs)
    if (f.wait_for(std::chrono::seconds{60}) == std::future_status::ready) {
      f.get();
      ++after_ok;
    } else {
      ++hung;
    }
  rt.shutdown();

  const auto st = rt.stats();
  const auto fresh_stats = rt.fleet().device_stats(fresh);
  const std::uint64_t issued =
      static_cast<std::uint64_t>(requests) + static_cast<std::uint64_t>(after);
  const bool reconciled =
      hung == 0 && failed == 0 && after_ok == after &&
      st.fulfilled + st.failed_requests == issued &&
      st.fulfilled == issued && fresh_stats.batches > 0;

  t.add_row({std::string("futures issued"), static_cast<long long>(issued)});
  t.add_row({std::string("resolved ok"),
             static_cast<long long>(ok + after_ok)});
  t.add_row({std::string("resolved failed"), static_cast<long long>(failed)});
  t.add_row({std::string("hung"), static_cast<long long>(hung)});
  t.add_row({std::string("stats fulfilled"),
             static_cast<long long>(st.fulfilled)});
  t.add_row({std::string("stats failed"),
             static_cast<long long>(st.failed_requests)});
  t.add_row({std::string("stats retries"), static_cast<long long>(st.retries)});
  t.add_row({std::string("stats reroutes"),
             static_cast<long long>(st.reroutes)});
  t.add_row({std::string("stats circuit_opens"),
             static_cast<long long>(st.circuit_opens)});
  t.add_row({std::string("stats fallback_cpu"),
             static_cast<long long>(st.fallback_cpu)});
  t.add_row({std::string("replacement batches"),
             static_cast<long long>(fresh_stats.batches)});

  std::printf("kill act: %llu futures -> %d ok, %d failed, %d hung "
              "(%d rode the device pre-kill); replacement served %llu "
              "batches; accounting %s\n",
              static_cast<unsigned long long>(issued), ok + after_ok, failed,
              hung, on_dead,
              static_cast<unsigned long long>(fresh_stats.batches),
              reconciled ? "reconciles" : "DOES NOT RECONCILE");
  return reconciled ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  regla::bench::parse_smoke(argc, argv);
  const bool smoke = regla::bench::smoke_mode();

  // One rate, chosen so a single device's stream is kept busy (n=8 QR is
  // launch-bound; see bench_runtime's n=8 sweep) without drowning the
  // single-core host in backlog at 4 devices.
  const double rate = 8000;
  // The scale act runs at its full request count even under --smoke (~0.2 s
  // of offered traffic per cell): its batch depth is what sets agg device
  // pr/s, so the smoke rows must match the committed baseline's depth for
  // the strict regression gate in scripts/bench_smoke.sh to be meaningful.
  const int requests = 1600;

  Table t({"act", "devices", "rate req/s", "offered", "wall pr/s",
           "agg device pr/s", "scaling x", "balance", "mean batch"});
  t.precision(2);

  double single_pps = 0;
  double scaling4 = 0;
  for (const int devices : {1, 2, 4}) {
    const ScaleResult r = run_scale(devices, rate, requests);
    if (devices == 1) single_pps = r.agg_device_pps;
    const double scaling =
        single_pps > 0 ? r.agg_device_pps / single_pps : 0;
    if (devices == 4) scaling4 = scaling;
    t.add_row({std::string("scale"), static_cast<long long>(devices), rate,
               r.offered_rps, r.wall_pps, r.agg_device_pps, scaling,
               r.balance, r.mean_batch});
  }
  regla::bench::emit(t, "fleet",
                     "Multi-device fleet: aggregate device throughput vs "
                     "fleet size, open-loop Poisson arrivals");

  Table kt({"metric", "value"});
  kt.precision(0);
  const int kill_rc =
      run_kill(rate, regla::bench::pick(900, 120), kt);
  regla::bench::emit(kt, "fleet_kill",
                     "Kill-one-device-mid-burst: accounting and live "
                     "drain/remove/add");

  std::printf("4-device scaling: %.2fx (gate: >= 3.0 at full fidelity)\n",
              scaling4);
  if (kill_rc != 0) return kill_rc;
  // Router-balance perf gate only means something at full fidelity.
  return (smoke || scaling4 >= 3.0) ? 0 : 1;
}
