// The three closed-loop workloads. Each one sets up its serving stack
// kSetupReps times from cold (setup_s is the median), drives operations for
// the run length, then checks every result against a cleartext computation
// made apart from the HE stack. A traced run splits the run length into an
// untraced and a traced half and replays a sample of the traced half's
// operations through the per-layer ledger (ledger.hpp).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>

#include "bench.hpp"
#include "bfv/context.hpp"
#include "core/flash_accelerator.hpp"
#include "fft/transform_cache.hpp"
#include "ledger.hpp"
#include "serve/network_session.hpp"
#include "shard/shard_router.hpp"
#include "sysstat.hpp"
#include "tensor/quant.hpp"
#include "wire/wire_format.hpp"

namespace perfbench {

using namespace flash;

namespace {

constexpr int kBits = 4;                // W4A4, the paper's headline quantization
constexpr std::size_t kInputPool = 32;  // distinct activations per plan / network
constexpr std::size_t kReplayOps = 4;   // served inferences the ledger replays
constexpr double kWarmupSeconds = 1.0;
// The channel-scaled ResNet of both network workloads: stem width, input
// side and classes.
constexpr std::size_t kWidth = 8, kSpatial = 16, kClasses = 10;

double ms_since(Clock::time_point t0) { return seconds_between(t0, Clock::now()) * 1e3; }

/// Hands out operation indices until the deadline, then finishes the
/// current round, so every run attempts whole rounds of `round` operations.
class OpCounter {
 public:
  OpCounter(Clock::time_point deadline, std::uint64_t first, std::uint64_t round)
      : deadline_(deadline), next_(first), round_(round) {}

  std::optional<std::uint64_t> next() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_ && Clock::now() >= deadline_) {
      stopping_ = true;
      stop_at_ = (next_ + round_ - 1) / round_ * round_;
    }
    if (stopping_ && next_ >= stop_at_) return std::nullopt;
    return next_++;
  }

  std::uint64_t issued() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_;
  }

 private:
  mutable std::mutex mu_;
  Clock::time_point deadline_;
  std::uint64_t next_;
  std::uint64_t round_;
  bool stopping_ = false;
  std::uint64_t stop_at_ = 0;
};

/// Run `clients` closed-loop client threads, each calling op(index) until
/// the counter stops.
template <typename Op>
void closed_loop(std::size_t clients, OpCounter& counter, Op&& op) {
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      while (const auto i = counter.next()) op(*i);
    });
  }
  for (auto& t : threads) t.join();
}

struct PhaseStats {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t first = 0, end = 0;  // operation indices [first, end)
};

/// One correct operation of the timed phase, times from the phase start.
struct Sample {
  double start_s = 0, end_s = 0, latency_ms = 0;
};

constexpr std::size_t kMaxWindows = 5;
constexpr std::size_t kMinWindowOps = 100;  // >= 10 samples beyond p90

/// Latency and throughput are taken per equal time window of the phase and
/// the median window is reported, so a burst of host noise moves one
/// window rather than the result. Each window holds at least
/// kMinWindowOps operations on average; a short or slow run is one window.
void fill_end_to_end(RunResult& r, const std::vector<Sample>& samples, double wall_s,
                     double cpu_s) {
  if (samples.empty() || wall_s <= 0) return;
  const std::size_t windows =
      std::clamp<std::size_t>(samples.size() / kMinWindowOps, 1, kMaxWindows);
  const double len = wall_s / static_cast<double>(windows);
  const auto window_of = [&](double t) {
    return std::min(windows - 1, static_cast<std::size_t>(std::max(0.0, t) / len));
  };
  std::vector<std::vector<double>> latency(windows);
  std::vector<double> done(windows, 0);
  for (const Sample& s : samples) {
    latency[window_of(s.start_s)].push_back(s.latency_ms);
    done[window_of(s.end_s)] += 1;
  }
  std::vector<double> p50, p90, rate;
  for (std::size_t w = 0; w < windows; ++w) {
    if (latency[w].empty()) continue;
    p50.push_back(quantile(latency[w], 0.5));
    p90.push_back(quantile(latency[w], 0.9));
    rate.push_back(done[w] / len);
  }
  r.latency_p50_ms = median(p50);
  r.latency_p90_ms = median(p90);
  r.throughput_ops_s = median(rate);
  r.cpu_ms_per_op = cpu_s * 1e3 / static_cast<double>(samples.size());
}

void problem(RunResult& r, const std::string& what) {
  r.correct = false;
  r.problems.push_back(what);
}

double json_mean_ms(const std::string& json, const std::string& histogram) {
  return serve::json_number_at(json, "\"" + histogram + "\"", "mean") * 1e-6;
}

/// Median seconds of kSetupReps setups. teardown() runs untimed before each
/// build(), so every setup starts from the same cold state.
template <typename Teardown, typename Build>
double median_setup_s(SpanRecorder& rec, Teardown&& teardown, Build&& build) {
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    teardown();
    ScopedSpan span(rec, "setup", 0);
    const auto t0 = Clock::now();
    build();
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  return median(setups);
}

// ---------------------------------------------------------------------------
// The closed-loop driver and checker both workload families share.

/// What every operation's record holds; each workload adds its result.
struct OpRecord {
  std::uint64_t index = 0;
  bool completed = false;  // finished without error
  bool matches = false;    // and equals its cleartext reference
  std::string error;       // why it did not complete
  double start_s = 0, latency_ms = 0;
};

struct DriveSpec {
  const char* span = "";        // trace span around each operation
  std::size_t clients = 1;      // closed-loop clients, or requests in flight
  std::uint64_t round = 1;      // runs attempt whole rounds of this many ops
  std::uint64_t keep_traced = 0;  // traced ops whose results are kept
  std::function<double()> cpu_s = self_cpu_s;
};

template <typename Record>
struct Driven {
  std::vector<Record> records;  // sorted by index
  PhaseStats untraced, traced;
};

/// Drive spec.clients closed-loop clients through a 1 s warm-up (checked,
/// not timed: per-thread scratch and transform caches fill), then the timed
/// phase; a traced run splits it into an untraced and a traced half.
/// call(i, keep) submits operation i, waits for it and returns its handle;
/// check(handle, keep, record) fills the record's state and, when keep is
/// set, its result. keep holds for the warm-up's first operation (the
/// untraced ledger replay and the checker self-test) and for the traced
/// half's first spec.keep_traced (the traced ledger replay).
template <typename Record, typename Call, typename Check>
Driven<Record> drive(const DriveSpec& spec, const RunArgs& args, SpanRecorder& rec, Call&& call,
                     Check&& check) {
  Driven<Record> d;
  std::mutex mu;
  const auto phase = [&](double seconds, std::uint64_t first, std::uint64_t keep_until) {
    PhaseStats ps;
    const double cpu0 = spec.cpu_s();
    const auto t0 = Clock::now();
    OpCounter counter(t0 + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds)),
                      first, spec.round);
    closed_loop(spec.clients, counter, [&](std::uint64_t i) {
      Record r;
      r.index = i;
      const bool keep = i < keep_until;
      decltype(call(i, keep)) handle;
      const auto s0 = Clock::now();
      {
        ScopedSpan span(rec, spec.span, i);
        try {  // a throwing call is a failed operation, not a dead client thread
          handle = call(i, keep);
        } catch (const std::exception& e) {
          r.error = e.what();
        }
      }
      r.start_s = seconds_between(t0, s0);
      r.latency_ms = ms_since(s0);
      if (r.error.empty()) check(handle, keep, r);
      std::lock_guard<std::mutex> lock(mu);
      d.records.push_back(std::move(r));
    });
    ps.wall_s = seconds_between(t0, Clock::now());
    ps.cpu_s = spec.cpu_s() - cpu0;
    ps.first = first;
    ps.end = counter.issued();
    return ps;
  };

  rec.set_enabled(false);
  const PhaseStats warmup = phase(kWarmupSeconds, 0, 1);
  if (args.trace) {
    d.untraced = phase(args.seconds / 2, warmup.end, 0);
    rec.set_enabled(true);
    d.traced = phase(args.seconds / 2, d.untraced.end, d.untraced.end + spec.keep_traced);
  } else {
    d.untraced = phase(args.seconds, warmup.end, 0);
  }
  std::sort(d.records.begin(), d.records.end(),
            [](const Record& a, const Record& b) { return a.index < b.index; });
  return d;
}

/// Count attempted and failed operations, fill latency, throughput and CPU
/// from the untraced phase, and (traced) the tracing overhead. Runs the
/// checker self-test: corrupted_passes(copy) corrupts a copy of the first
/// operation's kept result and says whether the checker still accepts it.
/// Returns the traced half's mean latency (0 untraced).
template <typename Record, typename CorruptedPasses>
double check_and_fill(const Driven<Record>& d, const RunArgs& args, RunResult& r,
                      CorruptedPasses&& corrupted_passes) {
  std::vector<Sample> samples;
  std::vector<double> untraced, traced;
  for (const Record& op : d.records) {
    ++r.attempted;
    if (!op.completed) {
      ++r.failed;
      std::fprintf(stderr, "operation %llu did not complete: %s\n",
                   static_cast<unsigned long long>(op.index), op.error.c_str());
      continue;
    }
    if (!op.matches) {
      ++r.failed;
      problem(r, "operation " + std::to_string(op.index) + " differs from its cleartext reference");
      continue;
    }
    if (op.index >= d.untraced.first && op.index < d.untraced.end) {
      samples.push_back({op.start_s, op.start_s + op.latency_ms * 1e-3, op.latency_ms});
      untraced.push_back(op.latency_ms);
    } else if (args.trace && op.index >= d.traced.first) {
      traced.push_back(op.latency_ms);
    }
  }
  fill_end_to_end(r, samples, d.untraced.wall_s, d.untraced.cpu_s);

  if (!d.records.empty() && d.records.front().matches) {
    Record bad = d.records.front();
    if (corrupted_passes(bad)) problem(r, "checker self-test: a corrupted result passed");
  } else {
    problem(r, "checker self-test: no correct first operation to corrupt");
  }

  if (!args.trace || traced.empty()) return 0;
  r.trace_overhead = quantile(traced, 0.5) / quantile(untraced, 0.5) - 1;
  double sum = 0;
  for (const double ms : traced) sum += ms;
  return sum / static_cast<double>(traced.size());
}

// ---------------------------------------------------------------------------
// Served ResNet sessions (resnet-fxp-4clients, resnet-ntt-1client)

struct NetConfig {
  bfv::BfvParams params;
  bfv::PolyMulBackend backend = bfv::PolyMulBackend::kNtt;
  std::size_t clients = 1;
  std::size_t dispatchers = 1;
  std::uint64_t salt = 0;  // separates the workloads' weight seeds
};

struct ServedNetwork {
  std::unique_ptr<bfv::BfvContext> ctx;
  std::unique_ptr<serve::ConvServer> server;
  std::unique_ptr<serve::NetworkServer> net;
  std::shared_ptr<const serve::NetworkProgram> program;

  /// Tear down in dependency order: the server's plans point at ctx.
  void reset() {
    program.reset();
    net.reset();
    server.reset();
    ctx.reset();
  }
};

/// One inference. Its result is kept only when the driver says keep; every
/// session is checked as it completes, so memory does not grow with the run
/// length.
struct SessionRecord : OpRecord {
  tensor::Tensor3 features;
  std::vector<tensor::i64> logits;
  std::vector<tensor::Tensor3> outputs;
};

RunResult run_network(const NetConfig& cfg, const RunArgs& args) {
  RunResult r;
  SpanRecorder rec;
  if (args.trace) rec.enable();

  // Inputs: the network, its activations and the protocol seed, all from
  // the workload seed.
  std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ULL + cfg.salt);
  const tensor::LayerStack stack =
      tensor::LayerStack::resnet18_like(3, kWidth, kSpatial, kClasses, kBits, kBits, rng);
  std::vector<tensor::Tensor3> inputs;
  for (std::size_t i = 0; i < kInputPool; ++i) {
    inputs.push_back(tensor::random_activations(3, kSpatial, kSpatial, kBits, rng));
  }
  const std::uint64_t protocol_seed = rng();
  const bool approx = cfg.backend == bfv::PolyMulBackend::kApproxFft;
  const std::optional<fft::FxpFftConfig> approx_config =
      approx ? std::optional(core::high_accuracy_approx_config(cfg.params.n, cfg.params.t))
             : std::nullopt;
  std::size_t conv_layers = 0;
  for (const auto& l : stack.layers) conv_layers += l.kind == tensor::NetLayer::Kind::kConv;

  // Setup: context, keys, plan registration (certification + weight
  // spectra). The process-wide transform tables are dropped before each
  // one, so every setup builds them, as a fresh shard worker does.
  ServedNetwork served;
  r.setup_s = median_setup_s(
      rec,
      [&] {
        served.reset();
        fft::clear_transform_caches();
      },
      [&] {
        served.ctx = std::make_unique<bfv::BfvContext>(cfg.params);
        serve::ServerOptions so;
        so.max_queue = cfg.clients * conv_layers + 8;
        so.max_batch = cfg.clients;
        so.dispatchers = cfg.dispatchers;
        so.certify = serve::CertifyPolicy::kEnforce;
        served.server = std::make_unique<serve::ConvServer>(so);
        served.net = std::make_unique<serve::NetworkServer>(*served.server);
        served.program =
            std::make_shared<const serve::NetworkProgram>(serve::NetworkProgram::build(
                *served.server, stack, *served.ctx, cfg.backend, approx_config, protocol_seed,
                tensor::Shape3{3, kSpatial, kSpatial}));
      });
  for (const auto& layer : served.program->layers) {
    if (layer.op.kind != tensor::NetLayer::Kind::kConv) continue;
    const auto cert = served.server->plan_certificate(layer.plan);
    if (!cert || !cert->proven()) problem(r, "a registered plan is not certified proven");
  }

  // The cleartext forward of every input, computed apart from the HE stack.
  std::vector<tensor::NetworkResult> refs(kInputPool);
  std::vector<std::vector<tensor::Tensor3>> ref_outputs(kInputPool);
  for (std::size_t j = 0; j < kInputPool; ++j) {
    refs[j] = stack.forward(inputs[j], tensor::LayerStack::reference_executor(), &ref_outputs[j]);
  }
  const auto session_matches = [&](const SessionRecord& sr) {
    const std::size_t j = sr.index % kInputPool;
    return sr.features == refs[j].features && sr.logits == refs[j].logits &&
           (sr.outputs.empty() || sr.outputs == ref_outputs[j]);
  };

  DriveSpec spec;
  spec.span = "serve.session";
  spec.clients = cfg.clients;
  spec.keep_traced = kReplayOps;
  const Driven<SessionRecord> d = drive<SessionRecord>(
      spec, args, rec,
      [&](std::uint64_t i, bool keep) {
        serve::SessionOptions opts;
        opts.stream_base = i * serve::kSessionStreamStride;
        opts.record_layer_outputs = keep;
        serve::NetworkSession session =
            served.net->start(served.program, inputs[i % kInputPool], opts);
        session.wait();
        return session;
      },
      [&](const serve::NetworkSession& session, bool keep, SessionRecord& sr) {
        if (session.state() != serve::SessionState::kCompleted) {
          sr.error = std::string(serve::to_string(session.state())) + ": " + session.error();
          return;
        }
        sr.completed = true;
        sr.features = session.features();
        if (session.has_logits()) sr.logits = session.logits();
        if (keep) sr.outputs = session.layer_outputs();
        sr.matches = session_matches(sr);
        if (!keep) {
          sr.features = {};
          sr.logits.clear();
        }
      });
  r.peak_rss_mb = self_peak_rss_mb();
  // Checker self-test: one corrupted logit (or feature) must be caught.
  const double traced_mean_ms = check_and_fill(d, args, r, [&](SessionRecord& bad) {
    if (bad.logits.empty()) {
      bad.features.data()[0] ^= 1;
    } else {
      bad.logits[0] ^= 1;
    }
    return session_matches(bad);
  });

  // Ledger replay: bit-identity with the served outputs, the exact bytes of
  // an inference, and (traced) the per-layer rows.
  const std::uint64_t t = cfg.params.t;
  Ledger ledger(*served.ctx, cfg.backend, approx_config, protocol_seed, rec);
  std::vector<std::shared_ptr<const protocol::ConvPlan>> plans(stack.layers.size());
  {
    tensor::Shape3 shape{3, kSpatial, kSpatial};
    for (std::size_t k = 0; k < stack.layers.size(); ++k) {
      const tensor::NetLayer& l = stack.layers[k];
      if (l.kind == tensor::NetLayer::Kind::kConv) {
        bool proven = true;
        plans[k] = ledger.prepare(shape.c, shape.h, shape.w, l.weights, l.stride, l.pad,
                                  args.trace ? &proven : nullptr);
        if (!proven) problem(r, "ledger: certify_conv did not prove layer " + std::to_string(k));
      }
      shape = tensor::LayerStack::layer_output_shape(shape, l);
    }
  }
  std::vector<const SessionRecord*> replay;
  for (const SessionRecord& sr : d.records) {
    const bool want = args.trace ? (sr.index >= d.traced.first && !sr.outputs.empty())
                                 : sr.index == 0;
    if (want && sr.completed) replay.push_back(&sr);
  }
  if (replay.empty()) problem(r, "ledger: no recorded session to replay");
  double bytes = 0;
  for (const SessionRecord* sr : replay) {
    ScopedSpan op_span(rec, "ledger.op", sr->index);
    tensor::Tensor3 act = inputs[sr->index % kInputPool];
    std::vector<tensor::Tensor3> saved, outputs;
    std::uint64_t conv_index = 0;
    bool units_ok = true;
    for (std::size_t k = 0; k < stack.layers.size(); ++k) {
      const tensor::NetLayer& l = stack.layers[k];
      tensor::Tensor3 out;
      if (l.kind == tensor::NetLayer::Kind::kConv) {
        const std::uint64_t base = (sr->index * serve::kSessionStreamStride + conv_index++) << 32;
        bool ok = true;
        const protocol::ConvRunnerResult cr =
            ledger.conv(act, *plans[k], base, sr->index, op_span.index(), &ok);
        units_ok = units_ok && ok;
        bytes += static_cast<double>(cr.bytes_client_to_server + cr.bytes_server_to_client);
        const auto h0 = Clock::now();
        ScopedSpan host(rec, "tensor.host_ops", sr->index, op_span.index());
        out = cr.reconstruct(t);
        tensor::apply_conv_postops(out, l);
        ledger.add_host_ms(ms_since(h0));
      } else if (l.kind == tensor::NetLayer::Kind::kResidualAdd) {
        const auto h0 = Clock::now();
        ScopedSpan host(rec, "tensor.host_ops", sr->index, op_span.index());
        out = tensor::add(act, saved.at(l.source));
        tensor::apply_join_postops(out, l);
        ledger.add_host_ms(ms_since(h0));
      } else {
        out = tensor::Tensor3(1, 1, l.fc_out);
        if (args.trace) {
          out.data() = ledger.fc(act.data(), l.fc_weights, l.fc_out, sr->index, op_span.index());
        } else {
          out.data() = sr->logits;  // the served head is host-side; not replayed untraced
        }
      }
      if (l.save_output) saved.push_back(out);
      outputs.push_back(out);
      if (l.kind != tensor::NetLayer::Kind::kFullyConnected) act = std::move(out);
    }
    if (!units_ok) problem(r, "ledger: HConv units disagree with the runner");
    if (outputs != sr->outputs) {
      problem(r, "ledger: replay of session " + std::to_string(sr->index) +
                     " is not bit-identical to the served outputs");
    }
  }
  if (!replay.empty()) r.comm_bytes_per_op = bytes / static_cast<double>(replay.size());

  if (args.trace) {
    r.layers = ledger.rows(replay.size());
    const std::string json = served.server->metrics_json();
    r.layers["serve.queue_wait_ms"] = json_mean_ms(json, "queue_wait");
    r.layers["serve.service_ms"] = json_mean_ms(json, "service");
    r.layers["serve.batch_size"] = serve::json_number_at(json, "", "completed") /
                                   serve::json_number_at(json, "", "batches_dispatched");
    const LayerRows kernels = probe_kernels(*served.ctx, cfg.backend, approx_config, args.seed, rec);
    r.layers.insert(kernels.begin(), kernels.end());
    r.layers["trace.unattributed_ms"] =
        traced_mean_ms - r.layers["protocol.conv_ms"] - r.layers["tensor.host_ops_ms"];
    if (!rec.write_chrome_json(args.trace_path)) problem(r, "cannot write " + args.trace_path);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Sharded conv-layer traffic (layers-fxp-2shards)

constexpr std::size_t kShards = 2;
constexpr std::size_t kInFlight = 8;

/// One sharded conv request; like SessionRecord, its result is kept only
/// when the driver says keep.
struct ShardRecord : OpRecord {
  std::size_t plan = 0, input = 0;
  std::uint64_t bytes = 0;
  protocol::ConvRunnerResult result;
};

}  // namespace

RunResult run_resnet_fxp_4clients(const RunArgs& args) {
  NetConfig cfg;
  cfg.params = bfv::BfvParams::create(2048, 17, 44);
  cfg.backend = bfv::PolyMulBackend::kApproxFft;
  cfg.clients = 4;
  cfg.dispatchers = 4;
  cfg.salt = 1;
  return run_network(cfg, args);
}

RunResult run_resnet_ntt_1client(const RunArgs& args) {
  NetConfig cfg;
  cfg.params = bfv::BfvParams::create(4096, 20, 49);
  cfg.backend = bfv::PolyMulBackend::kNtt;
  cfg.clients = 1;
  cfg.dispatchers = 1;
  cfg.salt = 2;
  return run_network(cfg, args);
}

RunResult run_layers_fxp_2shards(const RunArgs& args) {
  RunResult r;
  SpanRecorder rec;
  if (args.trace) rec.enable();

  const bfv::BfvParams params = bfv::BfvParams::create(2048, 17, 44);
  const fft::FxpFftConfig approx_config = core::high_accuracy_approx_config(params.n, params.t);
  const std::vector<tensor::LayerConfig> layers =
      tensor::scale_layers_for_sweep(tensor::resnet18_conv_layers(), 16, 8);

  // The plans (weights, protocol seed) are fixed: the router places a plan
  // by a hash of its content, so seed-derived weights would move plans
  // between shards and change the load balance from seed to seed. The seed
  // makes the activations.
  std::mt19937_64 model_rng(20250808);
  std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ULL + 3);
  const std::uint64_t protocol_seed = model_rng();
  std::vector<wire::PlanSpecWire> specs;
  std::vector<std::vector<tensor::Tensor3>> inputs;
  for (const tensor::LayerConfig& l : layers) {
    wire::PlanSpecWire spec;
    spec.params = params;
    spec.backend = bfv::PolyMulBackend::kApproxFft;
    spec.approx_config = approx_config;
    spec.protocol_seed = protocol_seed;
    spec.stride = l.stride;
    spec.pad = l.pad;
    spec.in_h = l.in_h;
    spec.in_w = l.in_w;
    spec.weights = tensor::random_weights(l.out_c, l.in_c, l.kernel, kBits, model_rng);
    specs.push_back(spec);
    inputs.emplace_back();
    for (std::size_t i = 0; i < kInputPool; ++i) {
      inputs.back().push_back(tensor::random_activations(l.in_c, l.in_h, l.in_w, kBits, rng));
    }
  }
  // One round = every plan once, in inventory order; rounds repeat it.
  const std::uint64_t round = specs.size();

  // Setup: fork + handshake of the workers, plan registration (each worker
  // certifies and prepares its plans).
  std::unique_ptr<shard::ShardRouter> router;
  std::vector<shard::ShardPlanId> ids;
  r.setup_s = median_setup_s(
      rec,
      [&] {
        router.reset();
        ids.clear();
      },
      [&] {
        shard::RouterOptions ro;
        ro.shards = kShards;
        ro.certify = serve::CertifyPolicy::kEnforce;
        ro.worker_max_batch = kInFlight;
        ro.worker_dwell_ns = 0;
        router = std::make_unique<shard::ShardRouter>(ro);
        for (const auto& spec : specs) ids.push_back(router->register_plan(spec));
      });
  std::vector<std::size_t> per_shard(kShards, 0);
  for (const shard::ShardPlanId id : ids) {
    if (router->plan_verdict(id) != wire::PlanVerdict::kProven) {
      problem(r, "a registered plan is not certified proven");
    }
    ++per_shard[router->shard_of(id)];
  }

  // The cleartext conv2d of every (plan, input), computed apart from the
  // HE stack.
  std::vector<std::vector<tensor::Tensor3>> refs(specs.size());
  for (std::size_t p = 0; p < specs.size(); ++p) {
    for (const tensor::Tensor3& x : inputs[p]) {
      refs[p].push_back(tensor::conv2d(x, specs[p].weights, {specs[p].stride, specs[p].pad}));
    }
  }
  const auto shard_matches = [&](const ShardRecord& sr, const protocol::ConvRunnerResult& res) {
    return res.reconstruct(params.t) == refs[sr.plan][sr.input];
  };

  const std::vector<pid_t> workers = child_pids();
  DriveSpec spec;
  spec.span = "shard.request";
  spec.clients = kInFlight;
  spec.round = round;
  spec.keep_traced = round;
  spec.cpu_s = [&] {
    double s = self_cpu_s();
    for (const pid_t pid : workers) s += process_cpu_s(pid);
    return s;
  };
  const Driven<ShardRecord> d = drive<ShardRecord>(
      spec, args, rec,
      [&](std::uint64_t i, bool) {
        shard::ShardSubmitOptions opts;
        opts.stream = i;
        shard::ShardFuture fut =
            router->submit(ids[i % round], inputs[i % round][(i / round) % kInputPool], opts);
        fut.wait();
        return fut;
      },
      [&](const shard::ShardFuture& fut, bool keep, ShardRecord& sr) {
        sr.plan = sr.index % round;
        sr.input = (sr.index / round) % kInputPool;
        if (fut.state() != shard::ShardRequestState::kDone) {
          sr.error = std::string(shard::to_string(fut.state())) + ": " + fut.error();
          return;
        }
        sr.completed = true;
        const protocol::ConvRunnerResult& res = fut.result();
        sr.matches = shard_matches(sr, res);
        sr.bytes = res.bytes_client_to_server + res.bytes_server_to_client;
        if (keep) sr.result = res;
      });
  r.peak_rss_mb = self_peak_rss_mb();
  for (const pid_t pid : workers) r.peak_rss_mb += process_peak_rss_mb(pid);
  if (workers.size() != kShards) problem(r, "expected one live process per shard");
  // Checker self-test: one corrupted share must be caught.
  const double traced_mean_ms = check_and_fill(d, args, r, [&](ShardRecord& bad) {
    bad.result.client_share.data()[0] += 1;
    return shard_matches(bad, bad.result);
  });
  double bytes = 0, latency_sum_ms = 0, correct = 0;
  for (const ShardRecord& sr : d.records) {
    if (!sr.matches) continue;
    bytes += static_cast<double>(sr.bytes);
    latency_sum_ms += sr.latency_ms;
    correct += 1;
  }
  if (correct > 0) r.comm_bytes_per_op = bytes / correct;

  if (args.trace) {
    // Shard-side view from each worker's ConvServer metrics, per conv
    // request over the whole run.
    double busy_max = 0, busy_sum = 0, wait_ns = 0, served = 0, batches = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::string json = router->worker_metrics_json(s);
      const double n = serve::json_number_at(json, "\"service\"", "count");
      const double busy = serve::json_number_at(json, "\"service\"", "mean") * n;
      busy_max = std::max(busy_max, busy);
      busy_sum += busy;
      wait_ns += serve::json_number_at(json, "\"queue_wait\"", "mean") * n;
      served += n;
      batches += serve::json_number_at(json, "", "batches_dispatched");
    }
    r.layers["shard.busy_imbalance"] = busy_max / (busy_sum / static_cast<double>(kShards));
    r.layers["shard.worker_service_ms"] = busy_sum * 1e-6 / served;
    r.layers["shard.router_overhead_ms"] =
        latency_sum_ms / correct - (busy_sum + wait_ns) * 1e-6 / served;
    r.layers["serve.queue_wait_ms"] = wait_ns * 1e-6 / served;
    r.layers["serve.service_ms"] = busy_sum * 1e-6 / served;
    r.layers["serve.batch_size"] = served / batches;
    std::fprintf(stdout, "plans per shard:");
    for (const std::size_t n : per_shard) std::fprintf(stdout, " %zu", n);
    std::fprintf(stdout, "\n");
  }
  router.reset();  // stops and reaps the workers

  // Ledger replay of a sample of traced requests (one per plan), or of the
  // first request untraced: bit-identity with what the shards returned.
  const bfv::BfvContext ctx(params);
  Ledger ledger(ctx, bfv::PolyMulBackend::kApproxFft, approx_config, protocol_seed, rec);
  std::vector<std::shared_ptr<const protocol::ConvPlan>> plans(specs.size());
  std::vector<const ShardRecord*> replay;
  for (const ShardRecord& sr : d.records) {
    const bool want = args.trace ? sr.index >= d.traced.first && sr.index < d.traced.first + round
                                 : sr.index == 0;
    if (want && sr.completed) replay.push_back(&sr);
  }
  if (replay.empty()) problem(r, "ledger: no completed request to replay");
  double wire_encode_us = 0, wire_decode_us = 0;
  for (const ShardRecord* sr : replay) {
    const wire::PlanSpecWire& s = specs[sr->plan];
    if (!plans[sr->plan]) {
      bool proven = true;
      plans[sr->plan] = ledger.prepare(s.weights.in_channels(), s.in_h, s.in_w, s.weights,
                                       s.stride, s.pad, args.trace ? &proven : nullptr);
      if (!proven) problem(r, "ledger: certify_conv did not prove a plan");
    }
    ScopedSpan op_span(rec, "ledger.op", sr->index);
    bool units_ok = true;
    const protocol::ConvRunnerResult cr = ledger.conv(
        inputs[sr->plan][sr->input], *plans[sr->plan], sr->index << 32, sr->index,
        op_span.index(), &units_ok);
    {
      const auto h0 = Clock::now();
      ScopedSpan host(rec, "tensor.host_ops", sr->index, op_span.index());
      (void)cr.reconstruct(params.t);
      ledger.add_host_ms(ms_since(h0));
    }
    if (!units_ok) problem(r, "ledger: HConv units disagree with the runner");
    if (cr.client_share != sr->result.client_share || cr.server_share != sr->result.server_share) {
      problem(r, "ledger: replay of request " + std::to_string(sr->index) +
                     " is not bit-identical to the shard's result");
    }
    if (args.trace) {
      // The request and its result through the wire codec, as the router
      // and worker exchange them.
      wire::Bytes submit_frame, result_frame;
      auto t0 = Clock::now();
      {
        ScopedSpan span(rec, "wire.encode", sr->index, op_span.index());
        wire::ByteWriter w;
        wire::encode(wire::SubmitBody{ids[sr->plan], sr->index, inputs[sr->plan][sr->input]}, w);
        submit_frame = wire::encode_frame({wire::MsgType::kSubmit, sr->index, w.take()});
        wire::ByteWriter rw;
        wire::encode(wire::ResultBody{true, {}, sr->result}, rw);
        result_frame = wire::encode_frame({wire::MsgType::kResult, sr->index, rw.take()});
      }
      wire_encode_us += seconds_between(t0, Clock::now()) * 1e6;
      t0 = Clock::now();
      {
        ScopedSpan span(rec, "wire.decode", sr->index, op_span.index());
        const wire::Frame f = wire::decode_frame(submit_frame);
        wire::ByteReader br(f.body);
        const wire::SubmitBody body = wire::decode_submit(br);
        const wire::Frame g = wire::decode_frame(result_frame);
        wire::ByteReader rr(g.body);
        const wire::ResultBody result = wire::decode_result(rr);
        if (body.x != inputs[sr->plan][sr->input] ||
            result.result.client_share != sr->result.client_share) {
          problem(r, "wire: a decoded frame differs from what was encoded");
        }
      }
      wire_decode_us += seconds_between(t0, Clock::now()) * 1e6;
    }
  }

  if (args.trace) {
    const LayerRows rows = ledger.rows(replay.size());
    r.layers.insert(rows.begin(), rows.end());
    const double n = static_cast<double>(replay.size());
    r.layers["wire.encode_us"] = wire_encode_us / n;
    r.layers["wire.decode_us"] = wire_decode_us / n;
    r.layers["trace.unattributed_ms"] =
        traced_mean_ms - r.layers["protocol.conv_ms"] - r.layers["tensor.host_ops_ms"];
    const LayerRows kernels =
        probe_kernels(ctx, bfv::PolyMulBackend::kApproxFft, approx_config, args.seed, rec);
    r.layers.insert(kernels.begin(), kernels.end());
    if (!rec.write_chrome_json(args.trace_path)) problem(r, "cannot write " + args.trace_path);
  }
  return r;
}

}  // namespace perfbench
