#pragma once
// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each layer's public functions: name, start, end, parent span and request
// id. They stay in memory (bounded; overflow is counted, not stored) and are
// written out once, at exit. A layer's self time is its spans' duration
// minus the part of each interval its child spans cover.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct LayerTime {
  std::string name;
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t max_spans = 400'000);

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// A fresh span id, so a parent can be named before its children are
  /// recorded (the parent span itself is recorded when it ends). 0 when off.
  std::uint64_t new_id();

  /// Record a finished span; a no-op when tracing is off. `name` must be a
  /// string literal (spans keep the pointer).
  void record(std::uint64_t id, std::uint64_t parent, std::uint64_t request,
              const char* name, Clock::time_point start, Clock::time_point end);
  std::uint64_t record(std::uint64_t parent, std::uint64_t request,
                       const char* name, Clock::time_point start,
                       Clock::time_point end);

  /// Per-name span count, total and self time, sorted by name.
  [[nodiscard]] std::vector<LayerTime> layer_times() const;

  /// Tab-separated spans: id parent request name start_ns end_ns.
  void write(const std::string& path) const;

  [[nodiscard]] std::size_t dropped() const;

  /// Spans recorded so far; rewind(n) drops every span recorded after the
  /// first n (the spans of a discarded measurement).
  [[nodiscard]] std::size_t size() const;
  void rewind(std::size_t n);

 private:
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  bool enabled_ = false;
  std::size_t max_spans_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::size_t dropped_ = 0;
};

/// Print the per-layer self-time table of a traced run.
void print_layer_times(const Tracer& tracer);

}  // namespace perfbench
