#include "hw/fpga_backend.hpp"

#include <stdexcept>
#include <type_traits>

#include "elm/spectral.hpp"
#include "hw/q20_kernel_glue.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernels.hpp"
#include "linalg/ops.hpp"
#include "util/timer.hpp"

namespace oselm::hw {

namespace {

namespace kernels = linalg::kernels;

}  // namespace

FpgaOsElmBackend::FpgaOsElmBackend(FpgaBackendConfig config,
                                   std::uint64_t seed)
    : rl::OsElmQBackend(nullptr),
      config_(config),
      rng_(seed),
      cycles_(config.hidden_units, config.input_dim) {
  if (config_.l2_delta < 0.0) {
    throw std::invalid_argument("FpgaBackendConfig: l2_delta < 0");
  }
  initialize();
}

void FpgaOsElmBackend::initialize() {
  const std::size_t n = config_.input_dim;
  const std::size_t units = config_.hidden_units;

  // Host side draws and (optionally) spectral-normalizes alpha in double,
  // exactly like the software designs; the PL then receives quantized
  // copies. This mirrors Algorithm 1 lines 1-4 running on the CPU.
  alpha_host_ = linalg::MatD(n, units);
  bias_host_ = linalg::VecD(units);
  rng_.fill_uniform(alpha_host_.storage(), config_.init_low,
                    config_.init_high);
  rng_.fill_uniform(bias_host_, config_.init_low, config_.init_high);
  if (config_.spectral_normalize) {
    elm::spectral_normalize_inplace(alpha_host_);
  }

  linalg::MatD beta_host(units, 1);
  rng_.fill_uniform(beta_host.storage(), config_.init_low, config_.init_high);

  alpha_ = quantize(alpha_host_);
  bias_ = quantize(bias_host_);
  beta_ = quantize(beta_host);
  beta_target_ = beta_;
  p_ = FixedMat(units, units);

  x_scratch_.assign(n, Q::zero());
  h_scratch_.assign(units, Q::zero());
  u_scratch_.assign(units, Q::zero());
  shared_scratch_.assign(units, Q::zero());
  scaled_scratch_.assign(units, Q::zero());

  initialized_ = false;
  total_pl_cycles_ = 0;
  predict_calls_ = 0;
  seq_train_calls_ = 0;
}

void FpgaOsElmBackend::hidden_fixed(const FixedVec& x) {
  // Single-MAC-unit dataflow (bias first, features in index order with a
  // saturating accumulate per step), vectorized across hidden units by
  // the bit-exact q20_hidden_mac kernel.
  kernels::Q20SatCounts sat;
  kernels::q20_hidden_mac(raw(alpha_), config_.input_dim,
                          config_.hidden_units, raw(x), raw(bias_),
                          raw(h_scratch_), /*relu=*/true, sat);
  commit(sat);
}

Q FpgaOsElmBackend::output_fixed(const FixedMat& beta) const {
  kernels::Q20SatCounts sat;
  const std::int32_t acc = kernels::q20_dot(
      raw(h_scratch_), raw(beta), h_scratch_.size(), 0, sat);
  commit(sat);
  return Q::from_raw(acc);
}

double FpgaOsElmBackend::predict_one(const linalg::VecD& sa,
                                     const FixedMat& beta) {
  if (sa.size() != config_.input_dim) {
    throw std::invalid_argument("FpgaOsElmBackend::predict: width");
  }
  {
    kernels::Q20SatCounts sat;
    kernels::q20_quantize(sa.data(), raw(x_scratch_), sa.size(), sat);
    commit(sat);
  }
  hidden_fixed(x_scratch_);
  const double q = output_fixed(beta).to_double();
  ++predict_calls_;
  total_pl_cycles_ += cycles_.predict_cycles();
  ledger_->charge_predict(initialized_, cycles_.predict_seconds());
  return q;
}

double FpgaOsElmBackend::predict_main(const linalg::VecD& sa) {
  return predict_one(sa, beta_);
}

double FpgaOsElmBackend::predict_target(const linalg::VecD& sa) {
  return predict_one(sa, beta_target_);
}

void FpgaOsElmBackend::predict_actions_loaded(
    const linalg::VecD& action_codes, rl::QNetwork which, double* q_out) {
  const std::size_t n = config_.input_dim;
  const std::size_t units = config_.hidden_units;
  const FixedMat& beta = which == rl::QNetwork::kMain ? beta_ : beta_target_;

  // Shared partial accumulation bias + alpha_state^T s, in the same
  // dataflow order as hidden_fixed (bias first, then features in index
  // order) so each per-action result — including any saturation — is
  // bit-identical to the per-action predict path.
  kernels::Q20SatCounts sat;
  kernels::q20_hidden_mac(raw(alpha_), n - 1, units, raw(x_scratch_),
                          raw(bias_), raw(shared_scratch_), /*relu=*/false,
                          sat);

  // Per-action rank-1 correction on alpha's last row fused with the
  // activation and the output MAC — the amortized schedule the cycle
  // model charges.
  const std::int32_t* last_row = raw(alpha_) + (n - 1) * units;
  for (std::size_t a = 0; a < action_codes.size(); ++a) {
    const Q code = Q::from_double(action_codes[a]);
    const std::int32_t q = kernels::q20_action_dot(
        raw(shared_scratch_), last_row, code.raw(), raw(beta), units, sat);
    q_out[a] = Q::from_raw(q).to_double();
  }
  commit(sat);
}

void FpgaOsElmBackend::predict_actions(const linalg::VecD& state,
                                       const linalg::VecD& action_codes,
                                       rl::QNetwork which,
                                       linalg::VecD& q_out) {
  const std::size_t n = config_.input_dim;
  if (state.size() + 1 != n) {
    throw std::invalid_argument("FpgaOsElmBackend::predict_actions: width");
  }
  if (q_out.size() != action_codes.size()) {
    throw std::invalid_argument(
        "FpgaOsElmBackend::predict_actions: q_out size");
  }
  {
    kernels::Q20SatCounts sat;
    kernels::q20_quantize(state.data(), raw(x_scratch_), n - 1, sat);
    commit(sat);
  }
  predict_actions_loaded(action_codes, which, q_out.data());

  predict_calls_ += action_codes.size();
  total_pl_cycles_ += cycles_.predict_batch_cycles(action_codes.size());
  ledger_->charge_predict(initialized_,
                          cycles_.predict_batch_seconds(action_codes.size()),
                          action_codes.size());
}

void FpgaOsElmBackend::predict_actions_multi(const linalg::MatD& states,
                                             const linalg::VecD& action_codes,
                                             rl::QNetwork which,
                                             linalg::MatD& q_out) {
  const std::size_t n = config_.input_dim;
  if (states.cols() + 1 != n) {
    throw std::invalid_argument(
        "FpgaOsElmBackend::predict_actions_multi: state width");
  }
  if (q_out.rows() != states.rows() || q_out.cols() != action_codes.size()) {
    throw std::invalid_argument(
        "FpgaOsElmBackend::predict_actions_multi: q_out shape");
  }
  // An empty batch performs no evaluations and charges nothing — the host
  // never raises the core for it (keeps ledger totals comparable with the
  // software backends on identical call streams).
  if (states.rows() == 0) return;
  for (std::size_t s = 0; s < states.rows(); ++s) {
    kernels::Q20SatCounts sat;
    kernels::q20_quantize(states.row_ptr(s), raw(x_scratch_), n - 1, sat);
    commit(sat);
    predict_actions_loaded(action_codes, which, q_out.row_ptr(s));
  }

  const std::size_t evaluations = states.rows() * action_codes.size();
  predict_calls_ += evaluations;
  // Timing: one amortized multi-batch for the whole coalesced call.
  total_pl_cycles_ +=
      cycles_.predict_multi_cycles(states.rows(), action_codes.size());
  ledger_->charge_predict(
      initialized_,
      cycles_.predict_multi_seconds(states.rows(), action_codes.size()),
      evaluations);
}

void FpgaOsElmBackend::init_train(const linalg::MatD& x,
                                  const linalg::MatD& t) {
  util::WallTimer timer;  // init_train runs on the CPU part (Fig. 3)
  if (x.cols() != config_.input_dim || t.cols() != 1 ||
      x.rows() != t.rows()) {
    throw std::invalid_argument("FpgaOsElmBackend::init_train: shape");
  }

  // H0 = relu(x*alpha + b) in double on the host.
  linalg::MatD h0 = linalg::matmul(x, alpha_host_);
  for (std::size_t r = 0; r < h0.rows(); ++r) {
    double* row = h0.row_ptr(r);
    for (std::size_t c = 0; c < h0.cols(); ++c) {
      row[c] = std::max(0.0, row[c] + bias_host_[c]);
    }
  }

  // Eq. 8: P0 = (H0^T H0 + delta I)^-1, beta0 = P0 H0^T t0.
  linalg::MatD gram = linalg::matmul_at_b(h0, h0);
  double ridge = config_.l2_delta;
  if (ridge <= 0.0) ridge = 1e-6;  // the fixed-point core needs bounded P
  linalg::add_diagonal_inplace(gram, ridge);
  const linalg::MatD p0 = linalg::inverse_spd(gram);
  const linalg::MatD beta0 =
      linalg::matmul(p0, linalg::matmul_at_b(h0, t));

  // CPU writes the results into the PL's BRAMs. theta_2 is NOT synced
  // here — Algorithm 1 only updates it every UPDATE_STEP episodes
  // (matching the software backend's behaviour).
  p_ = quantize(p0);
  beta_ = quantize(beta0);
  initialized_ = true;
  ledger_->charge(util::OpCategory::kInitTrain, timer.seconds());
}

void FpgaOsElmBackend::seq_train(const linalg::VecD& sa, double target) {
  if (!initialized_) {
    throw std::logic_error("FpgaOsElmBackend::seq_train: not initialized");
  }
  if (sa.size() != config_.input_dim) {
    throw std::invalid_argument("FpgaOsElmBackend::seq_train: width");
  }
  const std::size_t units = config_.hidden_units;

  kernels::Q20SatCounts sat;
  kernels::q20_quantize(sa.data(), raw(x_scratch_), sa.size(), sat);
  hidden_fixed(x_scratch_);

  // u = P h^T (single MAC unit, row-major sweep).
  kernels::q20_matvec(raw(p_), units, raw(h_scratch_), raw(u_scratch_), sat);

  // s = 1 + h·u; inv = 1/s via the divider unit.
  const Q s = Q::from_raw(kernels::q20_dot(raw(h_scratch_), raw(u_scratch_),
                                           units, Q::one().raw(), sat));
  const Q inv = Q::one() / s;

  // P -= (u * inv) u^T — rank-1 downdate (the O(N^2) PL loop).
  kernels::q20_rank1_downdate(raw(p_), units, raw(u_scratch_), inv.raw(),
                              raw(scaled_scratch_), sat);

  // e = (t - h·beta) * inv;  beta += e * u   (P_new h^T == u * inv).
  const Q pred = Q::from_raw(
      kernels::q20_dot(raw(h_scratch_), raw(beta_), units, 0, sat));
  const Q err = (Q::from_double(target) - pred) * inv;
  kernels::q20_axpy(raw(beta_), err.raw(), raw(u_scratch_), units, sat);
  commit(sat);

  ++seq_train_calls_;
  total_pl_cycles_ += cycles_.seq_train_cycles();
  ledger_->charge(util::OpCategory::kSeqTrain, cycles_.seq_train_seconds());
}

void FpgaOsElmBackend::sync_target() { beta_target_ = beta_; }

rl::QNetState FpgaOsElmBackend::export_state() const {
  // P is only meaningful once init_train has run; before that p_ is a
  // zeroed placeholder, and the snapshot mirrors OsElm's empty-P
  // convention for untrained models.
  return {dequantize(beta_), dequantize(beta_target_),
          initialized_ ? dequantize(p_) : linalg::MatD(), initialized_};
}

void FpgaOsElmBackend::import_state(const rl::QNetState& state) {
  const std::size_t units = config_.hidden_units;
  if (!state.initialized) {
    throw std::invalid_argument(
        "FpgaOsElmBackend::import_state: snapshot is untrained");
  }
  if (state.beta.rows() != units || state.beta.cols() != 1 ||
      state.beta_target.rows() != units || state.beta_target.cols() != 1 ||
      state.p.rows() != units || state.p.cols() != units) {
    throw std::invalid_argument(
        "FpgaOsElmBackend::import_state: shape mismatch");
  }
  beta_ = quantize(state.beta);
  beta_target_ = quantize(state.beta_target);
  p_ = quantize(state.p);
  initialized_ = true;
}

}  // namespace oselm::hw
