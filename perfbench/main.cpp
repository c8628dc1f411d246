// flash_perfbench: one served private inference per operation, end to end,
// with a traced per-layer ledger. See README.md for the workloads, the
// metrics and how run.py drives this binary.
//
//   flash_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <path>]
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "ledger.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: flash_perfbench --workload <resnet-fxp-4clients|resnet-ntt-1client|"
               "layers-fxp-2shards> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>]\n");
  return 2;
}

std::string layer_unit(const std::string& name) {
  const auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with("_ms")) return "ms";
  if (ends_with("_us")) return "us";
  if (name == "serve.batch_size" || name == "shard.busy_imbalance") return "ratio";
  return "count";
}

void print_metric(bool& first, const std::string& name, double value, const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
              value, unit);
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      have_trace = true;
    } else if (key == "--trace-out") {
      args.trace_path = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || !have_trace || args.seconds <= 0) return usage();
  if (args.trace_path.empty()) args.trace_path = "trace_" + args.workload + ".json";

  RunResult r;
  try {
    if (args.workload == "resnet-fxp-4clients") {
      r = run_resnet_fxp_4clients(args);
    } else if (args.workload == "resnet-ntt-1client") {
      r = run_resnet_ntt_1client(args);
    } else if (args.workload == "layers-fxp-2shards") {
      r = run_layers_fxp_2shards(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flash_perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& p : r.problems) std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());

  if (args.trace) {
    std::printf("per-layer rows, %s (seed %llu):\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed));
    for (const std::string& name : layer_metric_names()) {
      const auto it = r.layers.find(name);
      std::printf("  %-32s %14.4f %s\n", name.c_str(), it == r.layers.end() ? 0.0 : it->second,
                  layer_unit(name).c_str());
    }
    std::printf("traced-run overhead: latency p50 %+.2f%% against the untraced half\n",
                r.trace_overhead * 100);
    std::printf("trace file: %s\n", args.trace_path.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  if (args.trace) {
    for (const std::string& name : layer_metric_names()) {
      const auto it = r.layers.find(name);
      print_metric(first, name, it == r.layers.end() ? 0.0 : it->second,
                   layer_unit(name).c_str());
    }
  } else {
    print_metric(first, "setup_s", r.setup_s, "s");
    print_metric(first, "latency_p50_ms", r.latency_p50_ms, "ms");
    print_metric(first, "latency_p90_ms", r.latency_p90_ms, "ms");
    print_metric(first, "throughput_ops_s", r.throughput_ops_s, "1/s");
    print_metric(first, "cpu_ms_per_op", r.cpu_ms_per_op, "ms");
    print_metric(first, "peak_rss_mb", r.peak_rss_mb, "MB");
    print_metric(first, "comm_bytes_per_op", r.comm_bytes_per_op, "bytes");
  }
  std::printf("}}\n");
  return 0;
}
