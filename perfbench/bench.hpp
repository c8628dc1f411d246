// Shared types of the end-to-end benchmark: run arguments, the metric
// record every workload returns, and small statistics helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  // Chrome trace-event output of the traced run
};

/// Per-layer values, keyed by metric name (see README.md for the list).
using LayerRows = std::map<std::string, double>;

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // End-to-end metrics.
  double setup_s = 0;
  double latency_p50_ms = 0;
  double latency_p90_ms = 0;
  double throughput_ops_s = 0;
  double cpu_ms_per_op = 0;
  double peak_rss_mb = 0;
  double comm_bytes_per_op = 0;
  // Per-layer metrics (traced run only).
  LayerRows layers;
  /// Traced-run latency p50 over the untraced phase's, minus one.
  double trace_overhead = 0;
  std::vector<std::string> problems;  // why correct is false, for stderr
};

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// How many times setup is repeated per run; setup_s is the median.
inline constexpr int kSetupReps = 5;

RunResult run_resnet_fxp_4clients(const RunArgs& args);
RunResult run_resnet_ntt_1client(const RunArgs& args);
RunResult run_layers_fxp_2shards(const RunArgs& args);

}  // namespace perfbench
