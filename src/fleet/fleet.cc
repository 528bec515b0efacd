#include "fleet/fleet.h"

#include <stdexcept>
#include <thread>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace regla::fleet {

/// One fleet member: a named device with its stream pool, lifecycle state,
/// circuit breaker, and the obs instruments that are its only store of
/// counts. All plain fields are guarded by the fleet mutex; `killed` is
/// atomic so leased executors can poll it lock-free mid-solve.
struct Fleet::Member {
  /// fleet=<k>,device=<name>; every instrument below is resolved once, when
  /// add_device builds the member.
  std::string labels;
  obs::Counter& batches = obs::counter("fleet.batches", labels);
  obs::Counter& problems = obs::counter("fleet.problems", labels);
  obs::Counter& reroutes_away = obs::counter("fleet.reroutes", labels);
  obs::Counter& circuit_opens = obs::counter("fleet.circuit_opens", labels);
  obs::Gauge& device_seconds = obs::gauge("fleet.device_seconds", labels);
  obs::Gauge& device_pps = obs::gauge("fleet.device_pps", labels);
  obs::Gauge& state_gauge = obs::gauge("fleet.state", labels);
  obs::Gauge& inflight_gauge = obs::gauge("fleet.inflight", labels);
  obs::Gauge& queue_depth_gauge = obs::gauge("fleet.queue_depth", labels);
  obs::Gauge& circuit_open_gauge = obs::gauge("fleet.circuit_open", labels);
  obs::Gauge& killed_gauge = obs::gauge("fleet.killed", labels);
  obs::Gauge& streams_gauge = obs::gauge("fleet.streams", labels);

  int id = -1;
  std::string name;
  simt::DeviceConfig config;
  std::uint64_t fingerprint = 0;
  DeviceState state = DeviceState::active;
  std::atomic<bool> killed{false};

  std::vector<std::unique_ptr<Stream>> streams;
  std::vector<Stream*> free_streams;
  std::uint64_t last_routed = 0;

  // Circuit breaker: consecutive exhausted-retry episodes and, once tripped,
  // when routing may probe the device again.
  int consecutive_exhausted = 0;
  Clock::time_point broken_until{};

  bool circuit_open(Clock::time_point now) const {
    return broken_until > now;
  }

  /// Leased streams: the router's queue-depth numerator.
  int inflight() const {
    return static_cast<int>(streams.size() - free_streams.size());
  }

  double load() const {
    return static_cast<double>(inflight()) /
           static_cast<double>(std::max<std::size_t>(1, streams.size()));
  }

  void set_load_gauges() {
    inflight_gauge.set(inflight());
    queue_depth_gauge.set(load());
  }
};

namespace {
/// Process-wide Fleet construction ordinal (the k of fleet=<k>).
std::atomic<int> g_next_fleet{0};
}  // namespace

// --- Lease ----------------------------------------------------------------

Lease& Lease::operator=(Lease&& o) noexcept {
  if (this != &o) {
    release();
    fleet_ = o.fleet_;
    stream_ = o.stream_;
    device_ = o.device_;
    name_ = std::move(o.name_);
    circuit_open_ = o.circuit_open_;
    killed_flag_ = o.killed_flag_;
    o.fleet_ = nullptr;
    o.stream_ = nullptr;
    o.killed_flag_ = nullptr;
    o.device_ = -1;
  }
  return *this;
}

bool Lease::killed() const {
  return killed_flag_ && killed_flag_->load(std::memory_order_relaxed);
}

void Lease::release() {
  if (fleet_ && stream_) fleet_->release(stream_, device_);
  fleet_ = nullptr;
  stream_ = nullptr;
  killed_flag_ = nullptr;
  device_ = -1;
}

// --- Fleet ----------------------------------------------------------------

Fleet::Fleet(Options opt, std::shared_ptr<planner::Planner> planner)
    : opt_(std::move(opt)),
      planner_(planner ? std::move(planner)
                       : std::make_shared<planner::Planner>()),
      labels_("fleet=" + std::to_string(g_next_fleet++)),
      routed_(obs::counter("fleet.routed", labels_)),
      no_device_(obs::counter("fleet.no_device", labels_)),
      devices_gauge_(obs::gauge("fleet.devices", labels_)),
      streams_gauge_(obs::gauge("fleet.streams", labels_)) {
  REGLA_CHECK_MSG(!opt_.devices.empty(), "Fleet needs at least one device");
  int initial_streams = 0;
  for (const DeviceSpec& s : opt_.devices)
    initial_streams += std::max(1, s.streams);
  host_threads_per_stream_ = opt_.host_threads_per_stream;
  if (host_threads_per_stream_ <= 0) {
    const int hw =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    host_threads_per_stream_ = std::max(1, hw / initial_streams);
  }
  for (DeviceSpec& s : opt_.devices) add_device(std::move(s));
  opt_.devices.clear();  // moved from; membership now lives in members_
}

Fleet::~Fleet() = default;

std::optional<Lease> Fleet::try_route(const planner::ProblemDesc& desc,
                                      std::uint64_t exclude,
                                      bool* any_eligible) {
  const auto now = Clock::now();
  *any_eligible = false;
  std::vector<RouteCandidate> candidates;
  std::vector<Member*> owners;
  candidates.reserve(members_.size());
  for (const auto& up : members_) {
    Member& m = *up;
    if (m.state != DeviceState::active) continue;
    if (m.id < 64 && (exclude >> m.id) & 1u) continue;
    *any_eligible = true;
    if (m.free_streams.empty()) continue;
    RouteCandidate c;
    c.device = m.id;
    c.load = m.load();
    c.warm = planner_->cache().warm(desc, m.fingerprint);
    c.circuit_open = m.circuit_open(now);
    c.last_routed = m.last_routed;
    candidates.push_back(c);
    owners.push_back(&m);
  }
  const int idx = pick(candidates);
  if (idx < 0) return std::nullopt;
  Member& m = *owners[idx];
  Lease lease;
  lease.fleet_ = this;
  lease.stream_ = m.free_streams.back();
  m.free_streams.pop_back();
  lease.device_ = m.id;
  lease.name_ = m.name;
  lease.circuit_open_ = candidates[idx].circuit_open;
  lease.killed_flag_ = &m.killed;
  m.last_routed = ++route_stamp_;
  routed_.add();
  m.set_load_gauges();
  return lease;
}

std::optional<Lease> Fleet::acquire(const planner::ProblemDesc& desc,
                                    std::uint64_t exclude) {
  obs::Span span("fleet.route", "fleet");
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    bool any_eligible = false;
    auto lease = try_route(desc, exclude, &any_eligible);
    if (lease) return lease;
    if (!any_eligible) {
      no_device_.add();
      return std::nullopt;
    }
    // Every eligible device is busy; wait for a stream to free up or for
    // membership to change (add/drain/remove all notify).
    cv_.wait(lock);
  }
}

void Fleet::release(Stream* stream, int device) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Member& m = member_checked(device);
    m.free_streams.push_back(stream);
    m.set_load_gauges();
  }
  cv_.notify_all();
}

void Fleet::record_success(const Lease& lease, int problems,
                           double device_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  Member& m = member_checked(lease.device_id());
  m.consecutive_exhausted = 0;
  if (m.broken_until != Clock::time_point{}) {
    m.broken_until = {};  // a success closes the circuit
    m.circuit_open_gauge.set(0);
  }
  m.batches.add();
  m.problems.add(static_cast<std::uint64_t>(problems));
  m.device_seconds.add(device_seconds);
  const double busy = m.device_seconds.value();
  m.device_pps.set(
      busy > 0 ? static_cast<double>(m.problems.value()) / busy : 0);
}

bool Fleet::record_exhausted(const Lease& lease) {
  std::lock_guard<std::mutex> lock(mu_);
  Member& m = member_checked(lease.device_id());
  ++m.consecutive_exhausted;
  if (opt_.circuit_break_after > 0 &&
      m.consecutive_exhausted >= opt_.circuit_break_after &&
      !m.circuit_open(Clock::now())) {
    m.broken_until = Clock::now() + opt_.circuit_cooldown;
    m.circuit_opens.add();
    m.circuit_open_gauge.set(1);
    return true;
  }
  return false;
}

void Fleet::record_reroute_away(int device_id) {
  std::lock_guard<std::mutex> lock(mu_);
  member_checked(device_id).reroutes_away.add();
}

int Fleet::add_device(DeviceSpec spec) {
  const int streams = std::max(1, spec.streams);
  // Build the streams outside the lock — Device construction spins up host
  // workers.
  std::vector<std::unique_ptr<Stream>> built;
  built.reserve(streams);
  for (int i = 0; i < streams; ++i)
    built.push_back(std::make_unique<Stream>(spec.config, planner_,
                                             host_threads_per_stream_,
                                             opt_.replay));
  int id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(members_.size());
    std::string name =
        spec.name.empty() ? "dev" + std::to_string(id) : std::move(spec.name);
    auto m = std::make_unique<Member>(labels_ + ",device=" + name);
    m->id = id;
    m->name = std::move(name);
    m->config = spec.config;
    m->fingerprint = planner::Planner::config_fingerprint(spec.config);
    m->streams = std::move(built);
    for (auto& s : m->streams) m->free_streams.push_back(s.get());
    m->state_gauge.set(static_cast<double>(m->state));
    m->streams_gauge.set(static_cast<double>(m->streams.size()));
    members_.push_back(std::move(m));
    set_topology_gauges();
  }
  cv_.notify_all();
  return id;
}

void Fleet::drain(int id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Member& m = member_checked(id);
    if (m.state == DeviceState::active) {
      m.state = DeviceState::draining;
      m.state_gauge.set(static_cast<double>(m.state));
      set_topology_gauges();
    }
  }
  // Wake acquirers that were counting this device as eligible-but-busy: with
  // it drained they may now have no eligible device at all.
  cv_.notify_all();
}

void Fleet::remove(int id) {
  drain(id);
  std::vector<std::unique_ptr<Stream>> doomed;
  {
    std::unique_lock<std::mutex> lock(mu_);
    Member& m = member_checked(id);
    cv_.wait(lock, [&m] { return m.inflight() == 0; });
    if (m.state != DeviceState::removed) {
      m.state = DeviceState::removed;
      m.free_streams.clear();
      doomed = std::move(m.streams);  // destroyed below, outside the lock
      m.streams.clear();
      m.state_gauge.set(static_cast<double>(m.state));
      m.streams_gauge.set(0);
      set_topology_gauges();
    }
  }
  cv_.notify_all();
}

void Fleet::kill(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  Member& m = member_checked(id);
  m.killed.store(true, std::memory_order_relaxed);
  m.killed_gauge.set(1);
}

int Fleet::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(members_.size());
}

int Fleet::active_devices() const {
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  for (const auto& m : members_)
    if (m->state == DeviceState::active) ++n;
  return n;
}

int Fleet::total_streams() const {
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  for (const auto& m : members_)
    if (m->state != DeviceState::removed)
      n += static_cast<int>(m->streams.size());
  return n;
}

DeviceStats Fleet::stats_of(const Member& m) const {
  DeviceStats s;
  s.id = m.id;
  s.name = m.name;
  s.state = m.state;
  s.circuit_open = m.circuit_open(Clock::now());
  s.killed = m.killed.load(std::memory_order_relaxed);
  s.streams = static_cast<int>(m.streams.size());
  s.inflight = m.inflight();
  s.batches = m.batches.value();
  s.problems = m.problems.value();
  s.reroutes_away = m.reroutes_away.value();
  s.circuit_opens = m.circuit_opens.value();
  s.device_seconds = m.device_seconds.value();
  s.fingerprint = m.fingerprint;
  return s;
}

DeviceStats Fleet::device_stats(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_of(member_checked(id));
}

std::vector<DeviceStats> Fleet::devices() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DeviceStats> out;
  out.reserve(members_.size());
  for (const auto& m : members_) out.push_back(stats_of(*m));
  return out;
}

FleetStats Fleet::stats() const {
  FleetStats s;
  s.routed = routed_.value();
  s.no_device = no_device_.value();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& m : members_) {
    s.reroutes += m->reroutes_away.value();
    s.circuit_opens += m->circuit_opens.value();
  }
  return s;
}

simt::DeviceConfig Fleet::primary_config() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& m : members_)
    if (m->state != DeviceState::removed) return m->config;
  // Every device removed: keep answering with the first member's remembered
  // config so callers that only need a coalescing/planning target (not a
  // live device) keep working; routing still reports no_device.
  return members_.front()->config;
}

Fleet::Member& Fleet::member_checked(int id) {
  REGLA_CHECK_MSG(id >= 0 && id < static_cast<int>(members_.size()),
                  "unknown fleet device id");
  return *members_[static_cast<std::size_t>(id)];
}

const Fleet::Member& Fleet::member_checked(int id) const {
  REGLA_CHECK_MSG(id >= 0 && id < static_cast<int>(members_.size()),
                  "unknown fleet device id");
  return *members_[static_cast<std::size_t>(id)];
}

void Fleet::set_topology_gauges() {
  int active = 0, streams = 0;
  for (const auto& m : members_) {
    if (m->state == DeviceState::active) ++active;
    if (m->state != DeviceState::removed)
      streams += static_cast<int>(m->streams.size());
  }
  devices_gauge_.set(static_cast<double>(active));
  streams_gauge_.set(static_cast<double>(streams));
}

}  // namespace regla::fleet
