#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

Tracer::Tracer(std::size_t max_spans)
    : max_spans_(max_spans), origin_(Clock::now()) {
  spans_.reserve(std::min<std::size_t>(max_spans_, 65'536));
}

std::uint64_t Tracer::new_id() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(std::uint64_t id, std::uint64_t parent,
                    std::uint64_t request, const char* name,
                    Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{id, parent, request, name, ns(start), ns(end)});
}

std::uint64_t Tracer::record(std::uint64_t parent, std::uint64_t request,
                             const char* name, Clock::time_point start,
                             Clock::time_point end) {
  const std::uint64_t id = new_id();
  record(id, parent, request, name, start, end);
  return id;
}

std::vector<LayerTime> Tracer::layer_times() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Child intervals per parent, merged so overlapping children count once.
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, LayerTime> by_name;
  for (const Span& s : spans_) {
    LayerTime& layer = by_name[s.name];
    layer.name = s.name;
    ++layer.count;
    const double total_ns = static_cast<double>(s.end_ns - s.start_ns);
    double covered_ns = 0.0;
    if (const auto it = children.find(s.id); it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t cursor = s.start_ns;
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, cursor);
        hi = std::min(hi, s.end_ns);
        if (hi > lo) {
          covered_ns += static_cast<double>(hi - lo);
          cursor = hi;
        }
      }
    }
    layer.total_us += total_ns * 1e-3;
    layer.self_us += (total_ns - covered_ns) * 1e-3;
  }
  std::vector<LayerTime> out;
  for (auto& [name, layer] : by_name) out.push_back(std::move(layer));
  return out;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "id\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (const Span& s : spans_) {
    out << s.id << '\t' << s.parent << '\t' << s.request << '\t' << s.name
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

std::size_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Tracer::rewind(std::size_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (n < spans_.size()) spans_.resize(n);
}

void print_layer_times(const Tracer& tracer) {
  std::printf("%-22s %10s %14s %14s %12s\n", "span", "count", "total_ms",
              "self_ms", "self_us/span");
  for (const LayerTime& layer : tracer.layer_times()) {
    std::printf("%-22s %10zu %14.3f %14.3f %12.3f\n", layer.name.c_str(),
                layer.count, layer.total_us * 1e-3, layer.self_us * 1e-3,
                layer.self_us / static_cast<double>(layer.count));
  }
  if (tracer.dropped() > 0) {
    std::printf("(%zu spans dropped past the in-memory cap)\n",
                tracer.dropped());
  }
}

}  // namespace perfbench
