// In-memory span recorder for the traced run, exported as Chrome
// trace-event JSON (opens offline in Perfetto or chrome://tracing).
//
// A span is one call the benchmark makes into a layer of the stack: its
// name, start and end, the span it nests in, and the operation it belongs
// to. Recording is off unless enable() was called; a disabled recorder
// costs one branch per span.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::uint64_t start_ns = 0, end_ns = 0;  // since the recorder's epoch
  std::int64_t parent = -1;                // index of the enclosing span
  std::uint64_t op = 0;
  std::uint32_t tid = 0;
  std::vector<std::pair<std::string, double>> args;
};

class SpanRecorder {
 public:
  void enable();
  /// Pause or resume recording (between phases, with no span open).
  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span and return its index (-1 when disabled).
  std::int64_t begin(const std::string& name, std::uint64_t op, std::int64_t parent = -1);
  void end(std::int64_t index);
  /// Attach a numeric argument to an open or closed span.
  void arg(std::int64_t index, const std::string& key, double value);

  /// Write {"traceEvents": [...]} with one complete ("X") event per span.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::uint64_t now_ns() const;

  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name, std::uint64_t op,
             std::int64_t parent = -1)
      : rec_(rec), index_(rec.begin(name, op, parent)) {}
  ~ScopedSpan() { rec_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t index() const { return index_; }

 private:
  SpanRecorder& rec_;
  std::int64_t index_;
};

}  // namespace perfbench
