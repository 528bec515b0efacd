// regla_perfbench: runs one named workload against regla's public APIs and
// prints its raw measurements as one JSON object on stdout. run.py builds
// this binary, runs it, and turns the raw samples into the reported metrics.
//
//   regla_perfbench --workload direct_wave --seed 1 --seconds 10 --trace 0
//                   [--spans PATH]
//
// Exit codes: 0 ok, 2 usage, 3 the environment would measure a different
// program (replay killed or verifying, or an unoptimised build).
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

bool env_is(const char* name, bool (*pred)(const char*)) {
  const char* v = std::getenv(name);
  return v != nullptr && pred(v);
}

// The engine's own reading of these switches (simt/engine.cc).
bool is_zero(const char* v) { return std::strcmp(v, "0") == 0; }
bool is_on(const char* v) { return v[0] != '\0' && !is_zero(v); }

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

void json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

template <typename T>
void json_array(std::ostream& os, const std::vector<T>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ",";
    json_number(os, static_cast<double>(v[i]));
  }
  os << "]";
}

int usage() {
  std::fprintf(stderr,
               "usage: regla_perfbench --workload direct_wave|serve_tiny|"
               "serve_burst --seed N --seconds S --trace 0|1 [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  perfbench::RunConfig cfg;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* rest = nullptr;
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), &rest, 10);
      have_seed = rest != v.c_str() && *rest == '\0';
    } else if (k == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), &rest);
      if (rest == v.c_str() || *rest != '\0' || !(cfg.seconds > 0) ||
          cfg.seconds > 600)
        return usage();
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return usage();
      cfg.trace = v == "1";
    } else if (k == "--spans") {
      spans_path = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || workload.empty()) return usage();
  cfg.nproc = static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));

  const bool replay_killed = env_is("REGLA_REPLAY", is_zero);
  const bool replay_verify = env_is("REGLA_REPLAY_VERIFY", is_on);
  if (replay_killed || replay_verify || !kOptimized) {
    std::string why;
    const auto add = [&why](const char* reason) {
      why += (why.empty() ? "" : ", ") + std::string(reason);
    };
    if (replay_killed) add("REGLA_REPLAY=0");
    if (replay_verify) add("REGLA_REPLAY_VERIFY");
    if (!kOptimized) add("an unoptimised build");
    std::fprintf(stderr,
                 "perfbench: refusing to report timings: %s measures a "
                 "different program\n",
                 why.c_str());
    return 3;
  }

  const auto epoch = perfbench::Clock::now();
  perfbench::Spans spans(epoch);
  perfbench::RunResult r;
  try {
    if (workload == "direct_wave") {
      r = perfbench::run_direct_wave(cfg, spans);
    } else if (workload == "serve_tiny") {
      r = perfbench::run_serve_tiny(cfg, spans);
    } else if (workload == "serve_burst") {
      r = perfbench::run_serve_burst(cfg, spans);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  if (cfg.trace && !spans_path.empty() && !spans.write(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    return 1;
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  std::ostream& os = std::cout;
  os << "{\"workload\":\"" << workload << "\",\"seed\":" << cfg.seed
     << ",\"trace\":" << (cfg.trace ? 1 : 0) << ",\"env\":{\"nproc\":"
     << cfg.nproc << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"optimized\":" << (kOptimized ? "true" : "false")
     << ",\"regla_replay\":\"on\",\"regla_replay_verify\":\"off\"}"
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"mismatched\":" << r.mismatched << ",\"hung\":" << r.hung
     << ",\"worst_rel_error\":";
  json_number(os, r.worst_rel_error);
  os << ",\"peak_rss_kb\":" << ru.ru_maxrss << ",\"timed_s\":";
  json_number(os, r.timed_s);
  os << ",\"problems\":" << r.problems << ",\"window\":" << r.window
     << ",\"setup_s\":";
  json_array(os, r.setup_s);
  os << ",\"latency_ms\":";
  json_array(os, r.latency_ms);
  os << ",\"latency_traced\":";
  json_array(os, r.latency_traced);
  os << ",\"series\":{";
  bool first = true;
  for (const auto& [name, v] : r.series) {
    os << (first ? "" : ",") << "\"" << name << "\":";
    json_array(os, v);
    first = false;
  }
  os << "},\"layers\":{";
  first = true;
  for (const auto& [name, v] : r.layers) {
    os << (first ? "" : ",") << "\"" << name << "\":";
    json_number(os, v);
    first = false;
  }
  os << "}}\n";
  os.flush();
  return os ? 0 : 1;
}
