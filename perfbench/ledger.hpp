// The per-layer ledger: replays served operations through the protocol
// layer's public calls with each call timed, and times the kernels those
// calls sit on.
//
// A served inference runs inside ConvServer dispatchers, out of the
// benchmark's reach. The ledger re-runs a finished operation's conv layers
// as bare ConvRunner::run calls on plans it prepared itself, with the same
// protocol seed and stream bases as the server, so the replay is
// bit-identical to what was served (checked), and then re-runs each layer's
// stride-1 HConv units through HConvProtocol::run_stream to read the
// per-phase profile and transform counts the runner does not keep.
#pragma once

#include <memory>
#include <optional>

#include "bench.hpp"
#include "bfv/polymul_engine.hpp"
#include "protocol/conv_runner.hpp"

namespace perfbench {

class Ledger {
 public:
  Ledger(const flash::bfv::BfvContext& ctx, flash::bfv::PolyMulBackend backend,
         std::optional<flash::fft::FxpFftConfig> approx_config, std::uint64_t protocol_seed,
         SpanRecorder& rec);

  /// Timed ConvRunner::prepare plus, when `proven` is given,
  /// protocol::certify_conv of one plan with *proven set to its verdict.
  std::shared_ptr<const flash::protocol::ConvPlan> prepare(
      std::size_t in_c, std::size_t in_h, std::size_t in_w, const flash::tensor::Tensor4& w,
      std::size_t stride, std::size_t pad, bool* proven);

  /// Replay one conv request: ConvRunner::run on the plan (protocol.conv),
  /// then its HConv units through run_stream (hconv.* phases and counts).
  /// Returns the runner's result; sets *units_ok to whether the units agree
  /// with the runner (count and bytes).
  flash::protocol::ConvRunnerResult conv(const flash::tensor::Tensor3& x,
                                         const flash::protocol::ConvPlan& plan,
                                         std::uint64_t stream_base, std::uint64_t op,
                                         std::int64_t parent, bool* units_ok);

  /// Replay one FC head over the protocol (HConvProtocol::run_matvec).
  std::vector<flash::tensor::i64> fc(const std::vector<flash::tensor::i64>& x,
                                     const std::vector<flash::tensor::i64>& w,
                                     std::size_t out_features, std::uint64_t op,
                                     std::int64_t parent);

  /// Time host-side tensor work (reconstruct, post-ops, joins).
  void add_host_ms(double ms) { host_ms_ += ms; }

  /// Per-op rows over `ops` replayed operations, plus the per-plan setup
  /// rows (protocol.prepare_ms, analysis.certify_ms).
  LayerRows rows(std::size_t ops) const;

 private:
  const flash::bfv::BfvContext& ctx_;
  flash::protocol::HConvProtocol protocol_;
  flash::protocol::ConvRunner runner_;
  flash::bfv::PolyMulBackend backend_;
  std::optional<flash::fft::FxpFftConfig> approx_config_;
  SpanRecorder& rec_;

  double conv_ms_ = 0, fc_ms_ = 0, host_ms_ = 0, units_ = 0;
  flash::protocol::HConvProfile phases_;
  flash::bfv::PolyMulCounters ops_;
  double prepare_ms_ = 0, certify_ms_ = 0;
  std::size_t plans_ = 0, certified_ = 0;
};

/// Median per-call microseconds of the public kernel entry points at the
/// context's ring degree: NttTables forward/inverse/batch, PolyMulEngine
/// plain (NTT and FXP), cipher, pointwise and finalize on `backend`, and
/// BFV encrypt/decrypt.
LayerRows probe_kernels(const flash::bfv::BfvContext& ctx, flash::bfv::PolyMulBackend backend,
                        const std::optional<flash::fft::FxpFftConfig>& approx_config,
                        std::uint64_t seed, SpanRecorder& rec);

/// The per-layer names every traced run reports, in print order; layers a
/// workload does not exercise read 0.
const std::vector<std::string>& layer_metric_names();

}  // namespace perfbench
