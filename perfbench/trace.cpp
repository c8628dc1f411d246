#include "trace.hpp"

#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()) %
                                    100000);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void SpanRecorder::enable() {
  std::lock_guard<std::mutex> lock(mu_);
  epoch_ = Clock::now();
  enabled_ = true;
}

std::uint64_t SpanRecorder::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count());
}

std::int64_t SpanRecorder::begin(const std::string& name, std::uint64_t op, std::int64_t parent) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = parent;
  s.op = op;
  s.tid = thread_tag();
  s.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanRecorder::end(std::int64_t index) {
  if (index < 0) return;
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

void SpanRecorder::arg(std::int64_t index, const std::string& key, double value) {
  if (index < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].args.emplace_back(key, value);
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %lld, \"op\": %llu",
                 i == 0 ? "" : ",\n", json_escape(s.name).c_str(), s.tid,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 static_cast<long long>(s.parent), static_cast<unsigned long long>(s.op));
    for (const auto& [key, value] : s.args) {
      std::fprintf(f, ", \"%s\": %.17g", json_escape(key).c_str(), value);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
