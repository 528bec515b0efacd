#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <exception>
#include <functional>
#include <future>
#include <initializer_list>
#include <memory>
#include <random>
#include <thread>

#include <unistd.h>

#include "cpu/thread_pool.h"
#include "obs/metrics.h"
#include "ops/registry.h"
#include "oracle.h"
#include "planner/solver.h"
#include "runtime/runtime.h"

namespace perfbench {

using regla::planner::Dtype;
using regla::planner::Op;
using regla::planner::ProblemDesc;
namespace runtime = regla::runtime;

namespace {

/// Set-up is repeated at least kMinSetups times, and until kSetupBudgetS
/// seconds of set-up have been timed (at most kMaxSetups); setup_s is the
/// median, so a cheap set-up is sampled often enough to be steady.
constexpr int kMinSetups = 9;
constexpr int kMaxSetups = 200;
constexpr double kSetupBudgetS = 2.0;

bool more_setups(const RunResult& r) {
  double total = 0;
  for (double s : r.setup_s) total += s;
  const int n = static_cast<int>(r.setup_s.size());
  return n < kMinSetups || (n < kMaxSetups && total < kSetupBudgetS);
}

/// Reserve and touch room for `n` samples in latency_ms, latency_traced and
/// each named series before the first set-up, so the benchmark's own sample
/// storage is a fixed share of peak_rss_mb (n x the bytes per sample) instead
/// of one that grows with the run and dilutes the program's own memory.
void reserve_samples(RunResult& r, std::size_t n,
                     std::initializer_list<const char*> series) {
  const auto touch = [n](auto& v) {
    v.resize(n);
    v.clear();
  };
  touch(r.latency_ms);
  touch(r.latency_traced);
  for (const char* name : series) touch(r.series[name]);
}

/// A result not delivered this long after the measured region ends is hung.
constexpr auto kHangBound = std::chrono::seconds{30};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::duration to_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Traced runs trace every other segment, starting untraced.
bool traced_at(const RunConfig& cfg, Clock::time_point start,
               Clock::time_point t) {
  if (!cfg.trace) return false;
  const auto seg = static_cast<long>(seconds_between(start, t) /
                                     kTraceSegmentSeconds);
  return seg % 2 == 1;
}

void copy_into(const Payload& from, Payload& to) {
  std::copy(from.a.data(), from.a.data() + from.a.size(), to.a.data());
  if (from.b.count() > 0)
    std::copy(from.b.data(), from.b.data() + from.b.size(), to.b.data());
}

std::uint64_t counter(const char* name) {
  return regla::obs::counter_value(name);
}

/// Share of replayable launches that hit the replay cache since `hits0` /
/// `misses0` were read.
double replay_hit_share(std::uint64_t hits0, std::uint64_t misses0) {
  const double hits = double(counter("engine.replay.hits") - hits0);
  const double misses = double(counter("engine.replay.misses") - misses0);
  return hits + misses > 0 ? hits / (hits + misses) : 0;
}

double planner_hit_rate(const regla::planner::PlannerStats& a,
                        const regla::planner::PlannerStats& b) {
  const double hits = double(b.cache_hits - a.cache_hits);
  const double misses = double(b.cache_misses - a.cache_misses);
  return hits + misses > 0 ? hits / (hits + misses) : 0;
}

/// Share of the machine's CPU time the hypervisor stole between
/// construction and pct(), from the steal column of /proc/stat (0 where
/// that is unreadable).
class StealMeter {
 public:
  StealMeter() : ticks_(read()), t0_(Clock::now()) {}

  double pct(int nproc) const {
    const long long now = read();
    const double cpu_ticks = seconds_between(t0_, Clock::now()) *
                             double(sysconf(_SC_CLK_TCK)) * nproc;
    if (now < 0 || ticks_ < 0 || cpu_ticks <= 0) return 0;
    return 100.0 * double(now - ticks_) / cpu_ticks;
  }

 private:
  static long long read() {
    std::ifstream f("/proc/stat");
    std::string cpu;
    long long v[8] = {};
    if (!(f >> cpu) || cpu != "cpu") return -1;
    for (long long& x : v)
      if (!(f >> x)) return -1;
    return v[7];  // user nice system idle iowait irq softirq steal
  }

  long long ticks_;
  Clock::time_point t0_;
};

void note_mismatch(RunResult& r, const char* what, double err) {
  ++r.failed;
  ++r.mismatched;
  if (r.mismatched <= 5)
    std::fprintf(stderr, "perfbench: %s disagrees with the cpu reference "
                         "(relative error %.3g)\n", what, err);
}

// --- direct_wave -----------------------------------------------------------

struct Case {
  const char* name;
  Op op;
  int n;
};

constexpr Case kCases[] = {
    {"qr_n8", Op::qr, 8},           {"qr_n32", Op::qr, 32},
    {"qr_n56", Op::qr, 56},         {"lu_n32", Op::lu, 32},
    {"solve_gj_n32", Op::solve_gj, 32}, {"cholesky_n32", Op::cholesky, 32},
};
constexpr int kNumCases = sizeof(kCases) / sizeof(kCases[0]);
/// Calls per measured second the reserved sample storage holds (about 30x
/// the calls a 4-core host makes).
constexpr double kDirectMaxCallRate = 1000;
/// Distinct seeded inputs per case; calls cycle through them.
constexpr int kInputsPerCase = 3;

/// One launch wave: the plan's concurrent problem count, planned the way
/// the serving runtime sizes its batches.
int wave_size(const regla::simt::DeviceConfig& dc, const Case& c) {
  regla::planner::Planner p;
  return std::max(1, p.plan(dc, ProblemDesc{c.op, c.n, c.n, 2048, Dtype::f32})
                         .concurrent);
}

}  // namespace

RunResult run_direct_wave(const RunConfig& cfg, Spans& spans) {
  RunResult r;
  reserve_samples(r,
                  static_cast<std::size_t>(kDirectMaxCallRate * cfg.seconds),
                  {"done_s", "done_problems"});
  const regla::simt::DeviceConfig dc = regla::simt::DeviceConfig::quadro6000();
  const int host_threads = std::max(1, std::min(cfg.nproc, 4) / 2);
  regla::cpu::ThreadPool cpu_pool(host_threads);

  std::vector<int> count(kNumCases);
  std::vector<std::vector<Payload>> pristine(kNumCases), refs(kNumCases);
  std::vector<Payload> work(kNumCases);
  for (int c = 0; c < kNumCases; ++c) {
    count[c] = wave_size(dc, kCases[c]);
    for (int k = 0; k < kInputsPerCase; ++k) {
      pristine[c].push_back(make_inputs(kCases[c].op, count[c], kCases[c].n,
                                        mix(cfg.seed, c, k)));
      refs[c].push_back(reference(kCases[c].op, pristine[c][k], cpu_pool));
    }
    work[c] = pristine[c][0];
  }

  // Set-up: a fresh Device + Solver, then one plan miss and one cold
  // (replay-simulating) call per case.
  spans.enable(cfg.trace);
  std::unique_ptr<regla::simt::Device> dev;
  std::unique_ptr<regla::Solver> solver;
  while (more_setups(r)) {
    solver.reset();
    dev.reset();
    for (int c = 0; c < kNumCases; ++c) copy_into(pristine[c][0], work[c]);
    const auto t0 = Clock::now();
    dev = std::make_unique<regla::simt::Device>(dc);
    dev->set_replay(true);
    dev->set_host_workers(host_threads);
    solver = std::make_unique<regla::Solver>(*dev);
    for (int c = 0; c < kNumCases; ++c) {
      const auto p0 = Clock::now();
      const regla::planner::Plan plan = solver->planner().plan(
          dc, ProblemDesc{kCases[c].op, kCases[c].n, kCases[c].n, count[c],
                          Dtype::f32});
      spans.add(spans.next_id(), "planner.plan", p0, Clock::now(), 0, -1,
                plan.from_cache ? "hit" : "miss");
      solver->run(kCases[c].op, call_of(work[c]));
    }
    r.setup_s.push_back(seconds_between(t0, Clock::now()));
    for (int c = 0; c < kNumCases; ++c) {
      ++r.attempted;
      const double e = max_rel_error(kCases[c].op, work[c], refs[c][0]);
      r.worst_rel_error = std::max(r.worst_rel_error, e);
      if (!(e <= kTolerance)) note_mismatch(r, kCases[c].name, e);
    }
  }
  spans.enable(false);

  // Exact per-case device accounting; every later call must repeat it.
  std::vector<double> dev_seconds(kNumCases, -1), chip_cycles(kNumCases, -1),
      predicted(kNumCases, -1);
  const auto ps0 = solver->planner().stats();
  const std::uint64_t hits0 = counter("engine.replay.hits");
  const std::uint64_t misses0 = counter("engine.replay.misses");
  Payload cpu_work;

  const StealMeter steal;
  const auto start = Clock::now();
  const auto end = start + to_duration(cfg.seconds);
  for (std::int64_t i = 0;; ++i) {
    const int c = static_cast<int>(i % kNumCases);
    if (c == 0 && Clock::now() >= end) break;
    const int k = static_cast<int>((i / kNumCases) % kInputsPerCase);
    const Case& cs = kCases[c];
    copy_into(pristine[c][k], work[c]);
    const bool traced = traced_at(cfg, start, Clock::now());
    spans.enable(traced);

    regla::SolveReport rep;
    const auto t0 = Clock::now();
    if (!traced) {
      rep = solver->run(cs.op, call_of(work[c]));
    } else {
      // Solver::run's body through the public calls it makes, one span each
      // (its fast-math scope is a no-op: this planner keeps the device's
      // fast_math setting).
      const int root = spans.next_id();
      const regla::ops::Call call = call_of(work[c]);
      regla::ops::validate(cs.op, call);
      const auto p0 = Clock::now();
      const regla::planner::Plan plan = solver->planner().plan(
          dc, ProblemDesc{cs.op, cs.n, cs.n, count[c], Dtype::f32});
      const auto p1 = Clock::now();
      rep = regla::ops::run_device(*dev, cs.op, plan, call);
      const auto d1 = Clock::now();
      spans.add(spans.next_id(), "planner.plan", p0, p1, root, i,
                plan.from_cache ? "hit" : "miss");
      spans.add(spans.next_id(), "ops.run_device", p1, d1, root, i, cs.name,
                count[c]);
      spans.add(root, "direct.call", t0, d1, 0, i, cs.name, count[c]);
    }
    const auto t1 = Clock::now();
    r.latency_ms.push_back(1e3 * seconds_between(t0, t1));
    r.latency_traced.push_back(traced ? 1 : 0);
    r.timed_s += seconds_between(t0, t1);
    r.series["done_s"].push_back(r.timed_s);
    ++r.attempted;

    bool ok = rep.all_solved();
    if (dev_seconds[c] < 0) {
      dev_seconds[c] = rep.seconds;
      chip_cycles[c] = rep.chip_cycles;
      predicted[c] = rep.plan.predicted_cycles;
    } else if (rep.seconds != dev_seconds[c] ||
               rep.chip_cycles != chip_cycles[c]) {
      std::fprintf(stderr, "perfbench: %s device accounting changed between "
                           "identical calls\n", cs.name);
      ok = false;
    }
    const double e = max_rel_error(cs.op, work[c], refs[c][k]);
    r.worst_rel_error = std::max(r.worst_rel_error, e);
    const bool good = e <= kTolerance && ok;
    if (!(e <= kTolerance)) {
      note_mismatch(r, cs.name, e);
    } else if (!ok) {
      ++r.failed;
    }
    r.problems += good ? count[c] : 0;
    r.series["done_problems"].push_back(good ? count[c] : 0);

    if (traced) {
      // The native denominator: the cpu reference on the same input with
      // the same host-thread count (outside the timed call).
      cpu_work = pristine[c][k];
      const auto c0 = Clock::now();
      regla::ops::run_cpu(cs.op, call_of(cpu_work), cpu_pool);
      spans.add(spans.next_id(), "cpu.run_cpu", c0, Clock::now(), 0, i,
                cs.name, count[c]);
    }
  }
  spans.enable(false);

  double cycle_problems = 0, cycle_seconds = 0;
  for (int c = 0; c < kNumCases; ++c) {
    cycle_problems += count[c];
    cycle_seconds += dev_seconds[c];
    const std::string name = kCases[c].name;
    r.layers["engine.chip_cycles." + name] = chip_cycles[c] / count[c];
    r.layers["model.rel_error." + name] =
        std::abs(predicted[c] - chip_cycles[c]) / chip_cycles[c];
  }
  r.layers["device_pps"] = cycle_problems / cycle_seconds;
  r.layers["host.steal_pct"] = steal.pct(cfg.nproc);
  r.window = kNumCases;
  r.layers["engine.replay_hit_share"] = replay_hit_share(hits0, misses0);
  r.layers["planner.hit_rate"] =
      planner_hit_rate(ps0, solver->planner().stats());
  return r;
}

// --- serving workloads -----------------------------------------------------

namespace {

/// One submitted request, from submission to its oracle check.
struct Request {
  std::int64_t idx = 0;
  int sig = 0;  ///< index into the workload's signature list
  Op op = Op::qr;
  int n = 0;
  int count = 0;
  std::uint64_t input_seed = 0;
  Clock::time_point clock_start;  ///< where its latency is measured from
  Clock::time_point submit0, submit1;
  bool traced = false;
  std::future<runtime::Report> fut;
};

/// Compares delivered results with the cpu reference on its own thread,
/// outside the generator's timing, and only then drops them (releasing any
/// arena lease they hold).
class Checker {
 public:
  Checker() : thread_([this] { loop(); }) {}
  ~Checker() { finish(); }
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  void push(Request req, runtime::Report rep) {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(Item{std::move(req), std::move(rep)});
    cv_.notify_one();
  }

  /// Check everything pushed so far, then join. Idempotent.
  void finish() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  /// Fold the verdicts into `r` (after finish()).
  void report(RunResult& r) const {
    r.attempted += checked_;
    r.failed += mismatched_;
    r.mismatched += mismatched_;
    r.worst_rel_error = std::max(r.worst_rel_error, worst_);
  }

 private:
  struct Item {
    Request req;
    runtime::Report rep;
  };

  void loop() {
    regla::cpu::ThreadPool pool(1);
    for (;;) {
      Item it;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return !queue_.empty() || closed_; });
        if (queue_.empty()) return;
        it = std::move(queue_.front());
        queue_.pop_front();
      }
      const Request& q = it.req;
      const Payload ref = reference(
          q.op, make_inputs(q.op, q.count, q.n, q.input_seed), pool);
      Payload got{std::move(it.rep.a), std::move(it.rep.b)};
      const double e = max_rel_error(q.op, got, ref);
      const bool solved = it.rep.all_solved();
      ++checked_;
      worst_ = std::max(worst_, e);
      if (e <= kTolerance && solved) continue;
      if (++mismatched_ <= 5)
        std::fprintf(stderr,
                     "perfbench: request %lld (%s n=%d) disagrees with the "
                     "cpu reference (relative error %.3g, solved=%d; rode a "
                     "%s-flushed batch of %d problems from %d requests)\n",
                     static_cast<long long>(q.idx),
                     regla::planner::to_string(q.op), q.n, e, solved ? 1 : 0,
                     runtime::to_string(it.rep.flush),
                     it.rep.coalesced_problems, it.rep.coalesced_requests);
    }
  }

  std::mutex mu_;  ///< guards queue_ and closed_
  std::condition_variable cv_;
  std::deque<Item> queue_;
  bool closed_ = false;
  // Touched only by the checker thread until finish() joins it.
  std::int64_t checked_ = 0, mismatched_ = 0;
  double worst_ = 0;
  std::thread thread_;
};

/// The requests in flight, owned by the generator thread. It polls them
/// between sends, so each completion is stamped within a poll interval of
/// when its future became ready, whatever order batches finish in.
class InFlight {
 public:
  InFlight(Clock::time_point start, Spans& spans, Checker& checker,
           RunResult& r)
      : start_(start), spans_(spans), checker_(checker), r_(r) {}

  void add(Request q) {
    if (per_sig_.size() <= static_cast<std::size_t>(q.sig))
      per_sig_.resize(q.sig + 1);
    ++per_sig_[q.sig];
    reqs_.push_back(std::move(q));
  }
  /// Requests of signature `sig` in flight.
  int size(int sig) const {
    return static_cast<std::size_t>(sig) < per_sig_.size() ? per_sig_[sig] : 0;
  }

  /// Stamp and hand off every request whose result is ready.
  void poll() {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < reqs_.size(); ++i) {
      if (reqs_[i].fut.wait_for(std::chrono::seconds{0}) !=
          std::future_status::ready) {
        if (keep != i) reqs_[keep] = std::move(reqs_[i]);
        ++keep;
        continue;
      }
      --per_sig_[reqs_[i].sig];
      complete(std::move(reqs_[i]), Clock::now());
    }
    reqs_.resize(keep);
  }

  /// Poll until nothing is in flight; whatever is still undelivered
  /// kHangBound from now counts as hung.
  void drain(const std::function<void()>& pause) {
    const auto bound = Clock::now() + kHangBound;
    while (!reqs_.empty() && Clock::now() < bound) {
      poll();
      if (!reqs_.empty()) pause();
    }
    r_.hung += static_cast<std::int64_t>(reqs_.size());
    r_.failed += static_cast<std::int64_t>(reqs_.size());
    r_.attempted += static_cast<std::int64_t>(reqs_.size());
    reqs_.clear();
  }

  /// Per signature: the (device seconds, problems) of the first batch a
  /// request rode, and whether every later batch matched it.
  struct Batches {
    std::pair<double, int> first;
    bool seen = false;
    bool uniform = true;
  };
  std::vector<Batches> batches;

 private:
  void complete(Request q, Clock::time_point done) {
    runtime::Report rep;
    try {
      rep = q.fut.get();
    } catch (const std::exception& e) {
      ++r_.attempted;
      ++r_.failed;
      std::fprintf(stderr, "perfbench: request %lld failed: %s\n",
                   static_cast<long long>(q.idx), e.what());
      return;
    }
    const double submit = seconds_between(q.submit0, q.submit1);
    r_.latency_ms.push_back(1e3 * seconds_between(q.clock_start, done));
    r_.latency_traced.push_back(q.traced ? 1 : 0);
    r_.series["runtime.submit_us"].push_back(1e6 * submit);
    r_.series["runtime.queue_ms"].push_back(1e3 * rep.queue_seconds);
    r_.series["runtime.post_flush_ms"].push_back(
        1e3 * (seconds_between(q.submit0, done) - submit - rep.queue_seconds));
    r_.series["done_s"].push_back(seconds_between(start_, done));
    r_.series["done_problems"].push_back(q.count);
    r_.problems += q.count;
    r_.timed_s = std::max(r_.timed_s, seconds_between(start_, done));
    if (batches.size() <= static_cast<std::size_t>(q.sig))
      batches.resize(q.sig + 1);
    Batches& b = batches[q.sig];
    const std::pair<double, int> batch{rep.seconds, rep.coalesced_problems};
    if (!b.seen) {
      b.first = batch;
      b.seen = true;
    } else if (batch != b.first) {
      b.uniform = false;
    }
    if (q.traced) {
      const int root = spans_.next_id();
      spans_.add(spans_.next_id(), "runtime.submit", q.submit0, q.submit1,
                 root, q.idx);
      spans_.add(root, "request", q.clock_start, done, 0, q.idx,
                 regla::planner::to_string(q.op), q.count);
    }
    checker_.push(std::move(q), std::move(rep));
  }

  Clock::time_point start_;
  Spans& spans_;
  Checker& checker_;
  RunResult& r_;
  std::vector<Request> reqs_;
  std::vector<int> per_sig_;
};

struct Signature {
  Op op;
  int n;
};

ProblemDesc flush_desc(const runtime::Runtime& rt, const Signature& s) {
  return ProblemDesc{s.op, s.n, s.n, rt.options().max_flush_problems,
                     Dtype::f32};
}

/// Time one plan per signature through the runtime's shared planner, at the
/// batch the runtime sizes its queues with: `probes` calls each (set-up
/// plans each once, a miss; the per-layer probe repeats cached ones).
void time_plans(runtime::Runtime& rt, const std::vector<Signature>& sigs,
                int probes, Spans& spans) {
  for (int i = 0; i < probes; ++i)
    for (const Signature& s : sigs) {
      const auto p0 = Clock::now();
      const regla::planner::Plan plan =
          rt.planner()->plan(rt.fleet().primary_config(), flush_desc(rt, s));
      spans.add(spans.next_id(), "planner.plan", p0, Clock::now(), 0, -1,
                plan.from_cache ? "hit" : "miss");
    }
}

/// Collect the results of `reqs[from, to)` into `reps` in order, polling
/// with `nap` between polls as the measured regions do: a blocking wait can
/// oversleep by milliseconds on a shared host, and set-up would time that.
void await_results(std::vector<Request>& reqs, std::size_t from,
                   std::size_t to, std::vector<runtime::Report>& reps,
                   Clock::duration nap) {
  for (std::size_t i = from; i < to; ++i) {
    while (reqs[i].fut.wait_for(std::chrono::seconds{0}) !=
           std::future_status::ready)
      std::this_thread::sleep_for(nap);
    reps.push_back(reqs[i].fut.get());
  }
}

/// Check set-up warm-up results synchronously (outside set-up timing).
void check_warmup(std::vector<Request>& reqs,
                  std::vector<runtime::Report>& reps, RunResult& r) {
  regla::cpu::ThreadPool pool(1);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& q = reqs[i];
    ++r.attempted;
    const Payload ref =
        reference(q.op, make_inputs(q.op, q.count, q.n, q.input_seed), pool);
    Payload got{std::move(reps[i].a), std::move(reps[i].b)};
    const double e = max_rel_error(q.op, got, ref);
    r.worst_rel_error = std::max(r.worst_rel_error, e);
    if (!(e <= kTolerance)) note_mismatch(r, "warm-up request", e);
  }
  reqs.clear();
  reps.clear();
}

/// Snapshot of every counter a serving run reports as a delta over its
/// measured region.
struct ServingCounters {
  runtime::RuntimeStats rt;
  std::vector<regla::fleet::DeviceStats> devices;
  regla::fleet::FleetStats fleet;
  regla::planner::PlannerStats planner;
  std::uint64_t replay_hits = 0, replay_misses = 0;

  explicit ServingCounters(runtime::Runtime& r)
      : rt(r.stats()),
        devices(r.fleet().devices()),
        fleet(r.fleet().stats()),
        planner(r.planner()->stats()),
        replay_hits(counter("engine.replay.hits")),
        replay_misses(counter("engine.replay.misses")) {}
};

/// Every future the measured region issued resolved exactly once, by the
/// runtime's own books and by what the generator saw.
void check_accounting(const ServingCounters& a, const ServingCounters& b,
                      std::int64_t issued, std::int64_t seen, RunResult& r) {
  const auto resolved = static_cast<std::int64_t>(
      (b.rt.fulfilled - a.rt.fulfilled) +
      (b.rt.failed_requests - a.rt.failed_requests));
  if (resolved == issued && seen == issued) return;
  ++r.failed;
  std::fprintf(stderr, "perfbench: accounting: issued %lld, runtime resolved "
                       "%lld, generator saw %lld\n",
               static_cast<long long>(issued), static_cast<long long>(resolved),
               static_cast<long long>(seen));
}

void serving_layers(const ServingCounters& a, const ServingCounters& b,
                    RunResult& r) {
  const double batches = double(b.rt.batches - a.rt.batches);
  const double problems =
      double(b.rt.coalesced_problems - a.rt.coalesced_problems);
  const double requests = double(b.rt.requests - a.rt.requests);
  double flushes = 0;
  for (int i = 0; i < runtime::kNumFlushReasons; ++i)
    flushes += double(b.rt.flushes[i] - a.rt.flushes[i]);
  const auto size_i = static_cast<int>(runtime::FlushReason::size);
  const double view = double(b.rt.view_batches - a.rt.view_batches);
  const double staged = double(b.rt.staged_batches - a.rt.staged_batches);
  const double device_s = b.rt.device_seconds - a.rt.device_seconds;
  r.layers["runtime.mean_batch"] = batches > 0 ? problems / batches : 0;
  r.layers["runtime.size_flush_share"] =
      flushes > 0
          ? double(b.rt.flushes[size_i] - a.rt.flushes[size_i]) / flushes
          : 0;
  r.layers["runtime.bytes_copied_per_problem"] =
      problems > 0 ? double(b.rt.payload_bytes_copied -
                            a.rt.payload_bytes_copied) / problems
                   : 0;
  r.layers["runtime.view_batch_share"] =
      view + staged > 0 ? view / (view + staged) : 0;
  r.layers["runtime.slab_allocs_per_request"] =
      requests > 0
          ? double(b.rt.payload_allocs - a.rt.payload_allocs) / requests
          : 0;
  r.layers["device_pps"] = device_s > 0 ? problems / device_s : 0;

  double lo = -1, hi = 0;
  for (const auto& after : b.devices) {
    double before = 0;
    for (const auto& x : a.devices)
      if (x.id == after.id) before = double(x.problems);
    const double p = double(after.problems) - before;
    lo = lo < 0 ? p : std::min(lo, p);
    hi = std::max(hi, p);
  }
  r.layers["fleet.balance"] = hi > 0 ? lo / hi : 0;
  r.layers["fleet.reroutes"] = double(b.fleet.reroutes - a.fleet.reroutes);
  const double hits = double(b.replay_hits - a.replay_hits);
  const double misses = double(b.replay_misses - a.replay_misses);
  r.layers["engine.replay_hit_share"] =
      hits + misses > 0 ? hits / (hits + misses) : 0;
  r.layers["planner.hit_rate"] = planner_hit_rate(a.planner, b.planner);
}

// --- serve_tiny ------------------------------------------------------------

/// Offered load, requests per second: below the knee of a 1-device x
/// 2-stream runtime serving n=8 per-thread problems on a 4-core host.
constexpr double kTinyRate = 2000;
constexpr int kTinyProblems = 4;
constexpr int kTinyWarmRounds = 4;
/// The generator's nap between polls: sends run up to this late, and
/// completions are stamped within it.
constexpr auto kTinyPoll = std::chrono::microseconds{20};
/// Requests per measured second the reserved sample storage holds: the
/// Poisson count stays far below 1.1x the rate (plus slack for short runs).
constexpr double kTinyMaxRate = 1.1 * kTinyRate;
const std::vector<Signature> kTinySigs = {
    {Op::qr, 8}, {Op::lu, 8}, {Op::solve_gj, 8}};

runtime::RuntimeOptions tiny_options() {
  runtime::RuntimeOptions opt;
  opt.workers = 2;
  opt.host_threads_per_stream = 1;
  opt.max_queue_problems = 1 << 16;  // stay open-loop: never block arrivals
  return opt;                        // default 500 us coalescing window
}

Request tiny_request(const RunConfig& cfg, std::int64_t idx, int sig,
                     std::uint64_t stream) {
  Request q;
  q.idx = idx;
  q.sig = sig;
  q.op = kTinySigs[sig].op;
  q.n = kTinySigs[sig].n;
  q.count = kTinyProblems;
  q.input_seed = mix(cfg.seed, stream, static_cast<std::uint64_t>(idx));
  return q;
}

}  // namespace

RunResult run_serve_tiny(const RunConfig& cfg, Spans& spans) {
  RunResult r;
  reserve_samples(r,
                  static_cast<std::size_t>(kTinyMaxRate * cfg.seconds) + 1000,
                  {"runtime.submit_us", "runtime.queue_ms",
                   "runtime.post_flush_ms", "done_s", "done_problems",
                   "load.late_ms"});
  std::unique_ptr<runtime::Runtime> rt;
  spans.enable(cfg.trace);
  for (int s = 0; more_setups(r); ++s) {
    rt.reset();
    std::vector<Request> reqs;
    std::vector<Payload> payloads;
    // Warm-up: flushes of 1..kTinyWarmRounds requests per signature, the
    // batch sizes serving mostly sees.
    for (int k = 1, w = 0; k <= kTinyWarmRounds; ++k)
      for (int g = 0; g < int(kTinySigs.size()); ++g)
        for (int j = 0; j < k; ++j, ++w) {
          reqs.push_back(tiny_request(cfg, w, g, 100 + s));
          payloads.push_back(make_inputs(reqs.back().op, reqs.back().count,
                                         reqs.back().n,
                                         reqs.back().input_seed));
        }
    std::vector<runtime::Report> reps;
    const auto t0 = Clock::now();
    rt = std::make_unique<runtime::Runtime>(tiny_options());
    time_plans(*rt, kTinySigs, 1, spans);
    for (std::size_t w = 0, k = 1; w < reqs.size(); ++k) {
      const std::size_t round_end = w + k * kTinySigs.size();
      for (; w < round_end; ++w)
        reqs[w].fut = rt->submit(reqs[w].op, std::move(payloads[w].a),
                                 std::move(payloads[w].b));
      rt->flush();
      await_results(reqs, round_end - k * kTinySigs.size(), round_end, reps,
                    kTinyPoll);
    }
    r.setup_s.push_back(seconds_between(t0, Clock::now()));
    check_warmup(reqs, reps, r);
  }
  spans.enable(false);

  std::mt19937_64 rng(mix(cfg.seed, 1, 0));
  std::exponential_distribution<double> gap(kTinyRate);
  std::uniform_int_distribution<int> pick(0, int(kTinySigs.size()) - 1);
  std::vector<double>& late = r.series["load.late_ms"];
  rt->wait_idle();  // the runtime books a delivery after resolving it
  const ServingCounters before(*rt);
  const std::int64_t warm_attempts = r.attempted;
  Checker checker;
  const StealMeter steal;
  const auto start = Clock::now() + std::chrono::milliseconds{1};
  const auto end = start + to_duration(cfg.seconds);
  InFlight inflight(start, spans, checker, r);
  // One generator thread sends on the Poisson schedule and polls for
  // completions in between, napping kTinyPoll between polls: a thread that
  // blocks until woken can oversleep by milliseconds on a shared host, and
  // one that spins slows the runtime's own threads.
  auto due = start;
  std::int64_t i = 0;
  Clock::time_point last_submit = start;
  while (due < end) {
    if (Clock::now() < due) {
      inflight.poll();
      std::this_thread::sleep_for(kTinyPoll);
      continue;
    }
    const auto sent = Clock::now();
    const bool traced = traced_at(cfg, start, due);
    spans.enable(traced);
    late.push_back(1e3 * seconds_between(due, sent));
    Request q = tiny_request(cfg, i, pick(rng), 2);
    q.clock_start = due;
    q.traced = traced;
    Payload p = make_inputs(q.op, q.count, q.n, q.input_seed);
    q.submit0 = Clock::now();
    q.fut = rt->submit(q.op, std::move(p.a), std::move(p.b));
    q.submit1 = last_submit = Clock::now();
    inflight.add(std::move(q));
    due += to_duration(gap(rng));
    ++i;
  }
  inflight.drain([] {});
  rt->wait_idle();
  r.layers["host.steal_pct"] = steal.pct(cfg.nproc);
  spans.enable(false);
  checker.finish();
  checker.report(r);
  const ServingCounters after(*rt);
  check_accounting(before, after, i, r.attempted - warm_attempts, r);
  serving_layers(before, after, r);
  r.layers["load.offered_rps"] =
      double(i) / seconds_between(start, last_submit);
  r.window = 1000;
  if (cfg.trace) {
    spans.enable(true);
    time_plans(*rt, kTinySigs, 1000, spans);
    spans.enable(false);
  }
  rt->shutdown();
  return r;
}

// --- serve_burst -----------------------------------------------------------

namespace {

const std::vector<Signature> kBurstSigs = {{Op::qr, 32}, {Op::solve_qr, 32}};
/// Launch waves per flush: batches are multi-wave deep.
constexpr int kBurstWaves = 2;
/// Groups (one flush's worth of requests) in flight per signature. One per
/// signature keeps both devices busy without batches queueing for a stream.
constexpr int kBurstGroupsInFlight = 1;
/// The generator's nap between polls. Latencies here are hundreds of ms, so
/// polling every 50 us costs them nothing and leaves the host cores to the
/// devices.
constexpr auto kBurstPoll = std::chrono::microseconds{50};
/// Requests per measured second the reserved sample storage holds (about 5x
/// what a 4-core host completes).
constexpr double kBurstMaxRate = 4000;

runtime::RuntimeOptions burst_options(const RunConfig& cfg) {
  runtime::RuntimeOptions opt;
  for (int d = 0; d < 2; ++d)
    opt.devices.push_back(regla::fleet::DeviceSpec{
        "dev" + std::to_string(d), regla::simt::DeviceConfig::quadro6000(), 1});
  opt.host_threads_per_stream = std::max(1, std::min(cfg.nproc, 4) / 2);
  opt.target_waves = kBurstWaves;
  // Every group fills its queue to the flush target at once, so flushes are
  // size-triggered; the window only bounds a stall.
  opt.max_batch_delay = std::chrono::seconds{1};
  opt.max_queue_problems = 1 << 16;
  return opt;
}

/// Problems per request: the largest divisor of the flush target up to 4,
/// so a whole number of requests fills each flush exactly. Many requests
/// per flush give the latency quantiles many samples per run.
int burst_request_problems(int target) {
  for (int p = 4; p > 1; --p)
    if (target % p == 0) return p;
  return 1;
}

struct BurstShape {
  std::vector<int> group;     ///< requests per flush, per signature
  std::vector<int> problems;  ///< problems per request, per signature
};

BurstShape burst_shape(runtime::Runtime& rt) {
  BurstShape b;
  for (const Signature& s : kBurstSigs) {
    const int target =
        rt.preferred_batch(runtime::Signature{s.op, s.n, s.n});
    b.problems.push_back(burst_request_problems(target));
    b.group.push_back(target / b.problems.back());
  }
  return b;
}

/// Lease, fill and submit one flush's worth of requests of signature `sig`.
/// The group's blocks are leased back to back (all matrices, then all
/// right-hand sides), the order in which the arena can hand out adjacent
/// blocks for a zero-copy view flush; runtime.view_batch_share records
/// whether the runtime could use one.
void submit_group(runtime::Runtime& rt, const RunConfig& cfg, int sig,
                  const BurstShape& shape, std::int64_t& idx,
                  std::uint64_t stream, bool traced, Spans& spans,
                  const std::function<void(Request)>& sink) {
  const Signature& s = kBurstSigs[sig];
  const int problems = shape.problems[sig];
  const bool rhs =
      regla::planner::op_traits(s.op).rhs != regla::planner::RhsShape::none;
  std::vector<Payload> payloads(shape.group[sig]);
  const auto l0 = Clock::now();
  for (Payload& p : payloads) p.a = rt.lease_f32(problems, s.n, s.n);
  if (rhs)
    for (Payload& p : payloads) p.b = rt.lease_f32(problems, s.n, 1);
  spans.add(spans.next_id(), "runtime.lease_f32", l0, Clock::now(), 0, idx,
            {}, shape.group[sig]);
  for (Payload& p : payloads) {
    Request q;
    q.idx = idx++;
    q.sig = sig;
    q.op = s.op;
    q.n = s.n;
    q.count = problems;
    q.input_seed = mix(cfg.seed, stream, static_cast<std::uint64_t>(q.idx));
    q.traced = traced;
    fill_inputs(s.op, s.n, q.input_seed, p);
    q.submit0 = q.clock_start = Clock::now();
    q.fut = rt.submit(s.op, std::move(p.a), std::move(p.b));
    q.submit1 = Clock::now();
    sink(std::move(q));
  }
}

}  // namespace

RunResult run_serve_burst(const RunConfig& cfg, Spans& spans) {
  RunResult r;
  reserve_samples(r, static_cast<std::size_t>(kBurstMaxRate * cfg.seconds),
                  {"runtime.submit_us", "runtime.queue_ms",
                   "runtime.post_flush_ms", "done_s", "done_problems"});
  std::unique_ptr<runtime::Runtime> rt;
  BurstShape shape;
  spans.enable(cfg.trace);
  for (int s = 0; more_setups(r); ++s) {
    rt.reset();
    std::vector<Request> reqs;
    std::vector<runtime::Report> reps;
    const auto t0 = Clock::now();
    rt = std::make_unique<runtime::Runtime>(burst_options(cfg));
    time_plans(*rt, kBurstSigs, 1, spans);
    shape = burst_shape(*rt);
    std::int64_t idx = 0;
    for (int round = 0; round < kBurstGroupsInFlight; ++round)
      for (int g = 0; g < int(kBurstSigs.size()); ++g)
        submit_group(*rt, cfg, g, shape, idx, 100 + s, false, spans,
                     [&](Request q) { reqs.push_back(std::move(q)); });
    await_results(reqs, 0, reqs.size(), reps, kBurstPoll);
    r.setup_s.push_back(seconds_between(t0, Clock::now()));
    check_warmup(reqs, reps, r);
  }
  spans.enable(false);

  rt->wait_idle();  // the runtime books a delivery after resolving it
  const ServingCounters before(*rt);
  const std::int64_t warm_attempts = r.attempted;
  Checker checker;
  const StealMeter steal;
  const auto start = Clock::now();
  const auto end = start + to_duration(cfg.seconds);
  InFlight inflight(start, spans, checker, r);
  // Closed loop: a signature's next group goes out as soon as its window
  // has room.
  const auto pause = [] { std::this_thread::sleep_for(kBurstPoll); };
  std::int64_t idx = 0;
  while (Clock::now() < end) {
    inflight.poll();
    bool sent = false;
    for (int g = 0; g < int(kBurstSigs.size()); ++g) {
      if (inflight.size(g) + shape.group[g] >
          kBurstGroupsInFlight * shape.group[g])
        continue;
      const bool traced = traced_at(cfg, start, Clock::now());
      spans.enable(traced);
      submit_group(*rt, cfg, g, shape, idx, 2, traced, spans,
                   [&](Request q) { inflight.add(std::move(q)); });
      sent = true;
    }
    if (!sent) pause();
  }
  inflight.drain(pause);
  rt->wait_idle();
  r.layers["host.steal_pct"] = steal.pct(cfg.nproc);
  spans.enable(false);
  checker.finish();
  checker.report(r);
  const ServingCounters after(*rt);
  check_accounting(before, after, idx, r.attempted - warm_attempts, r);
  serving_layers(before, after, r);
  r.layers["load.offered_rps"] = double(idx) / r.timed_s;
  // Batch composition is fixed, so each signature's batches report one
  // device time: device_pps is then exact over one batch of each.
  bool exact = inflight.batches.size() == kBurstSigs.size();
  double cycle_problems = 0, cycle_seconds = 0;
  for (const auto& b : inflight.batches) {
    exact = exact && b.seen && b.uniform;
    cycle_problems += b.first.second;
    cycle_seconds += b.first.first;
  }
  if (exact) r.layers["device_pps"] = cycle_problems / cycle_seconds;
  r.window = 8 * shape.group[0];
  if (cfg.trace) {
    spans.enable(true);
    time_plans(*rt, kBurstSigs, 1000, spans);
    spans.enable(false);
  }
  rt->shutdown();
  return r;
}

}  // namespace perfbench
