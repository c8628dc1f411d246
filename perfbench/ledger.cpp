#include "ledger.hpp"

#include "bfv/encrypt.hpp"
#include "core/flash_accelerator.hpp"
#include "protocol/conv_geometry.hpp"
#include "protocol/plan_certificate.hpp"

namespace perfbench {

using namespace flash;

namespace {

double ms_since(Clock::time_point t0) { return seconds_between(t0, Clock::now()) * 1e3; }

tensor::Tensor3 pad_input(const tensor::Tensor3& x, std::size_t pad) {
  if (pad == 0) return x;
  tensor::Tensor3 out(x.channels(), x.height() + 2 * pad, x.width() + 2 * pad);
  for (std::size_t c = 0; c < x.channels(); ++c) {
    for (std::size_t y = 0; y < x.height(); ++y) {
      for (std::size_t v = 0; v < x.width(); ++v) out.at(c, y + pad, v + pad) = x.at(c, y, v);
    }
  }
  return out;
}

/// x_ab[c, u, v] = x[c, s*u + a, s*v + b] — the runner's stride phase input.
tensor::Tensor3 subsample(const tensor::Tensor3& x, std::size_t s, std::size_t a, std::size_t b) {
  const std::size_t h = protocol::phase_extent(x.height(), s, a);
  const std::size_t w = protocol::phase_extent(x.width(), s, b);
  tensor::Tensor3 out(x.channels(), h, w);
  for (std::size_t c = 0; c < x.channels(); ++c) {
    for (std::size_t u = 0; u < h; ++u) {
      for (std::size_t v = 0; v < w; ++v) out.at(c, u, v) = x.at(c, s * u + a, s * v + b);
    }
  }
  return out;
}

/// Median microseconds of `reps` timed calls of fn.
template <typename Fn>
double median_us(int reps, Fn&& fn) {
  fn();  // warm-up: first-touch of tables and scratch
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  return median(us);
}

}  // namespace

const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = {
      "serve.queue_wait_ms",        "serve.service_ms",         "serve.batch_size",
      "protocol.conv_ms",           "protocol.fc_ms",           "protocol.hconv_units",
      "hconv.share_encode_ms",      "hconv.encrypt_ms",         "hconv.ct_transform_mul_ms",
      "hconv.mask_ms",              "hconv.decrypt_ms",         "protocol.prepare_ms",
      "analysis.certify_ms",        "kernel.plain_transforms",  "kernel.cipher_transforms",
      "kernel.inverse_transforms",  "kernel.pointwise_products", "kernel.ntt_forward_us",
      "kernel.ntt_inverse_us",      "kernel.ntt_forward_batch_us",
      "kernel.ntt_plain_transform_us", "kernel.fxp_plain_transform_us",
      "kernel.cipher_transform_us", "kernel.pointwise_us",      "kernel.finalize_us",
      "bfv.encrypt_us",             "bfv.decrypt_us",           "shard.busy_imbalance",
      "shard.worker_service_ms",    "shard.router_overhead_ms", "wire.encode_us",
      "wire.decode_us",             "tensor.host_ops_ms",       "trace.unattributed_ms",
  };
  return names;
}

Ledger::Ledger(const bfv::BfvContext& ctx, bfv::PolyMulBackend backend,
               std::optional<fft::FxpFftConfig> approx_config, std::uint64_t protocol_seed,
               SpanRecorder& rec)
    : ctx_(ctx),
      protocol_(ctx, backend, approx_config, protocol_seed),
      runner_(protocol_),
      backend_(backend),
      approx_config_(std::move(approx_config)),
      rec_(rec) {}

std::shared_ptr<const protocol::ConvPlan> Ledger::prepare(std::size_t in_c, std::size_t in_h,
                                                          std::size_t in_w,
                                                          const tensor::Tensor4& w,
                                                          std::size_t stride, std::size_t pad,
                                                          bool* proven) {
  auto t0 = Clock::now();
  std::shared_ptr<const protocol::ConvPlan> plan;
  {
    ScopedSpan span(rec_, "protocol.prepare", 0);
    plan = runner_.prepare(in_c, in_h, in_w, w, stride, pad);
  }
  prepare_ms_ += ms_since(t0);
  ++plans_;
  if (proven == nullptr) return plan;
  t0 = Clock::now();
  {
    ScopedSpan span(rec_, "analysis.certify", 0);
    *proven = protocol::certify_conv(ctx_.params(), backend_, approx_config_, in_c, in_h, in_w, w,
                                     stride, pad)
                  .proven();
  }
  certify_ms_ += ms_since(t0);
  ++certified_;
  return plan;
}

protocol::ConvRunnerResult Ledger::conv(const tensor::Tensor3& x, const protocol::ConvPlan& plan,
                                        std::uint64_t stream_base, std::uint64_t op,
                                        std::int64_t parent, bool* units_ok) {
  auto t0 = Clock::now();
  protocol::ConvRunnerResult result;
  {
    ScopedSpan span(rec_, "protocol.conv", op, parent);
    result = runner_.run(x, plan, stream_base);
  }
  conv_ms_ += ms_since(t0);

  // Unit replay: the runner's exact decomposition (conv_geometry), each
  // unit on its prepared spectra and its runner stream id.
  ScopedSpan units_span(rec_, "hconv.units", op, parent);
  const std::size_t n = ctx_.params().n;
  const tensor::Tensor3 padded = pad_input(x, plan.pad);
  std::size_t units = 0;
  std::uint64_t bytes = 0;
  for (const protocol::ConvPlan::Phase& phase : plan.phases) {
    const tensor::Tensor3 xp =
        plan.stride == 1 ? padded : subsample(padded, plan.stride, phase.a, phase.b);
    const std::size_t kh = phase.weights.kernel_h(), kw = phase.weights.kernel_w();
    const std::vector<protocol::TileTask> tiles =
        protocol::tile_grid(n, xp.height(), xp.width(), kh, kw);
    for (std::size_t i = 0; i < tiles.size(); ++i) {
      const protocol::TileTask& tk = tiles[i];
      const std::size_t ph = tk.th + kh - 1, pw = tk.tw + kw - 1;
      tensor::Tensor3 patch(xp.channels(), ph, pw);
      for (std::size_t c = 0; c < xp.channels(); ++c) {
        for (std::size_t y = 0; y < ph; ++y) {
          for (std::size_t v = 0; v < pw; ++v) patch.at(c, y, v) = xp.at(c, tk.ty + y, tk.tx + v);
        }
      }
      ScopedSpan unit(rec_, "hconv.run_stream", op, units_span.index());
      const protocol::HConvResult r = protocol_.run_stream(
          patch, phase.weights, stream_base + (phase.index << 16) + i,
          phase.tiles.at({ph, pw}).get());
      const protocol::HConvProfile& p = r.profile;
      rec_.arg(unit.index(), "share_encode_ms", p.share_encode_s * 1e3);
      rec_.arg(unit.index(), "encrypt_ms", p.encrypt_s * 1e3);
      rec_.arg(unit.index(), "ct_transform_mul_ms", p.cipher_transform_mul_s * 1e3);
      rec_.arg(unit.index(), "mask_ms", p.mask_s * 1e3);
      rec_.arg(unit.index(), "decrypt_ms", p.decrypt_s * 1e3);
      phases_.share_encode_s += p.share_encode_s;
      phases_.encrypt_s += p.encrypt_s;
      phases_.weight_transform_s += p.weight_transform_s;
      phases_.cipher_transform_mul_s += p.cipher_transform_mul_s;
      phases_.mask_s += p.mask_s;
      phases_.decrypt_s += p.decrypt_s;
      ops_.plain_transforms += r.ops.plain_transforms;
      ops_.cipher_transforms += r.ops.cipher_transforms;
      ops_.inverse_transforms += r.ops.inverse_transforms;
      ops_.pointwise_products += r.ops.pointwise_products;
      bytes += p.bytes_client_to_server + p.bytes_server_to_client;
      ++units;
    }
  }
  units_ += static_cast<double>(units);
  *units_ok = units == result.hconv_calls &&
              bytes == result.bytes_client_to_server + result.bytes_server_to_client;
  return result;
}

std::vector<tensor::i64> Ledger::fc(const std::vector<tensor::i64>& x,
                                    const std::vector<tensor::i64>& w, std::size_t out_features,
                                    std::uint64_t op, std::int64_t parent) {
  const auto t0 = Clock::now();
  ScopedSpan span(rec_, "protocol.fc", op, parent);
  const auto r = protocol_.run_matvec(x, w, out_features);
  fc_ms_ += ms_since(t0);
  return r.reconstruct(ctx_.params().t);
}

LayerRows Ledger::rows(std::size_t ops) const {
  const double k = ops == 0 ? 0.0 : 1.0 / static_cast<double>(ops);
  const double plans = plans_ == 0 ? 0.0 : 1.0 / static_cast<double>(plans_);
  const double certified = certified_ == 0 ? 0.0 : 1.0 / static_cast<double>(certified_);
  return {
      {"protocol.conv_ms", conv_ms_ * k},
      {"protocol.fc_ms", fc_ms_ * k},
      {"protocol.hconv_units", units_ * k},
      {"hconv.share_encode_ms", phases_.share_encode_s * 1e3 * k},
      {"hconv.encrypt_ms", phases_.encrypt_s * 1e3 * k},
      {"hconv.ct_transform_mul_ms", phases_.cipher_transform_mul_s * 1e3 * k},
      {"hconv.mask_ms", phases_.mask_s * 1e3 * k},
      {"hconv.decrypt_ms", phases_.decrypt_s * 1e3 * k},
      {"protocol.prepare_ms", prepare_ms_ * plans},
      {"analysis.certify_ms", certify_ms_ * certified},
      {"kernel.plain_transforms", static_cast<double>(ops_.plain_transforms) * k},
      {"kernel.cipher_transforms", static_cast<double>(ops_.cipher_transforms) * k},
      {"kernel.inverse_transforms", static_cast<double>(ops_.inverse_transforms) * k},
      {"kernel.pointwise_products", static_cast<double>(ops_.pointwise_products) * k},
      {"tensor.host_ops_ms", host_ms_ * k},
  };
}

LayerRows probe_kernels(const bfv::BfvContext& ctx, bfv::PolyMulBackend backend,
                        const std::optional<fft::FxpFftConfig>& approx_config, std::uint64_t seed,
                        SpanRecorder& rec) {
  ScopedSpan span(rec, "kernel.probe", 0);
  constexpr int kReps = 64;
  const bfv::BfvParams& p = ctx.params();
  const hemath::NttTables& ntt = ctx.ntt();
  hemath::Sampler sampler(seed);

  std::vector<std::vector<hemath::u64>> polys(8, std::vector<hemath::u64>(p.n));
  for (auto& poly : polys) {
    for (auto& c : poly) c = sampler.uniform_mod(p.q);
  }
  std::vector<hemath::u64*> ptrs;
  for (auto& poly : polys) ptrs.push_back(poly.data());

  LayerRows out;
  out["kernel.ntt_forward_us"] = median_us(kReps, [&] { ntt.forward(polys[0]); });
  out["kernel.ntt_inverse_us"] = median_us(kReps, [&] { ntt.inverse(polys[0]); });
  out["kernel.ntt_forward_batch_us"] =
      median_us(kReps, [&] { ntt.forward_batch_into(ptrs); }) / static_cast<double>(ptrs.size());

  bfv::Plaintext pt = ctx.make_plaintext();
  for (std::size_t i = 0; i < p.n; ++i) pt.poly[i] = sampler.uniform_mod(p.t);
  const bfv::PolyMulEngine ntt_engine(ctx, bfv::PolyMulBackend::kNtt);
  out["kernel.ntt_plain_transform_us"] =
      median_us(kReps, [&] { (void)ntt_engine.transform_plain(pt); });
  const bfv::PolyMulEngine fxp_engine(ctx, bfv::PolyMulBackend::kApproxFft,
                                      core::high_accuracy_approx_config(p.n, p.t));
  out["kernel.fxp_plain_transform_us"] =
      median_us(kReps, [&] { (void)fxp_engine.transform_plain(pt); });

  // Cipher-side kernels on the workload's own backend.
  const bfv::PolyMulEngine engine(ctx, backend, approx_config);
  hemath::Poly ct_poly(p.q, p.n);
  for (std::size_t i = 0; i < p.n; ++i) ct_poly[i] = polys[1][i];
  const bfv::PlainSpectrum w = engine.transform_plain(pt);
  bfv::CipherSpectrum cs;
  out["kernel.cipher_transform_us"] =
      median_us(kReps, [&] { cs = engine.transform_cipher_spectrum(ct_poly); });
  bfv::SpectralAccumulator acc;
  acc.backend = backend;
  out["kernel.pointwise_us"] = median_us(kReps, [&] { engine.multiply_accumulate(cs, w, acc); });
  out["kernel.finalize_us"] = median_us(kReps, [&] { (void)engine.finalize(acc); });

  bfv::KeyGenerator keygen(ctx, sampler);
  const bfv::SecretKey sk = keygen.secret_key();
  const bfv::PublicKey pk = keygen.public_key(sk);
  const bfv::PreparedPublicKey pk_prepared = bfv::prepare_public_key(ctx, pk);
  bfv::Encryptor encryptor(ctx, sampler);
  const bfv::Decryptor decryptor(ctx, sk);
  bfv::Ciphertext ct;
  out["bfv.encrypt_us"] = median_us(kReps, [&] { ct = encryptor.encrypt(pt, pk_prepared); });
  out["bfv.decrypt_us"] = median_us(kReps, [&] { (void)decryptor.decrypt(ct); });
  return out;
}

}  // namespace perfbench
