#include "spans.h"

#include <fstream>

#include "obs/json.h"

namespace perfbench {

void Spans::add(int id, const char* name, Clock::time_point start,
                Clock::time_point end, int parent, std::int64_t req,
                std::string tag, int items) {
  if (!on()) return;
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  std::lock_guard<std::mutex> lk(mu_);
  records_.push_back(
      Record{id, name, ns(start), ns(end), parent, req, std::move(tag), items});
}

bool Spans::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  std::lock_guard<std::mutex> lk(mu_);
  os << "[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    os << (i ? ",\n" : "\n") << "{\"id\":" << r.id << ",\"name\":\""
       << regla::obs::json_escape(r.name) << "\",\"start_ns\":" << r.start_ns
       << ",\"end_ns\":" << r.end_ns << ",\"parent\":" << r.parent
       << ",\"req\":" << r.req << ",\"tag\":\""
       << regla::obs::json_escape(r.tag) << "\",\"items\":" << r.items << "}";
  }
  os << "\n]\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
