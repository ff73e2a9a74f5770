// Agent interface shared by the seven evaluated designs (§4.1) and the
// backend interface that separates Algorithm 1 from its arithmetic
// substrate (double-precision software vs fixed-point FPGA model).
#pragma once

#include <memory>
#include <span>
#include <string_view>

#include "linalg/matrix.hpp"
#include "nn/replay_buffer.hpp"  // nn::Transition
#include "util/op_accounting.hpp"
#include "util/time_ledger.hpp"

namespace oselm::rl {

/// An episodic learner driven by rl::run_training.
class Agent {
 public:
  virtual ~Agent() = default;

  /// Chooses an action for `state` (exploration included). Prediction time
  /// is charged to the agent's ledger internally.
  virtual std::size_t act(const linalg::VecD& state) = 0;

  /// Processes one environment transition (Store + Update of Algorithm 1).
  virtual void observe(const nn::Transition& transition) = 0;

  /// Hook at episode end. The argument is the 1-based count of episodes
  /// since the last weight reset — NOT a global episode number. Every
  /// §4.3 reset re-randomizes theta_1 and theta_2 together, so any
  /// schedule keyed on this count (e.g. the UPDATE_STEP target sync of
  /// lines 23-24) intentionally restarts from 1 after a reset; the fresh
  /// theta pair starts a fresh sync cadence.
  virtual void episode_end(std::size_t episodes_since_reset) = 0;

  /// Re-randomizes all weights (the §4.3 reset rule). Only called when
  /// supports_weight_reset() is true.
  virtual void reset_weights() = 0;

  /// The paper resets the ELM/OS-ELM designs but never the DQN.
  [[nodiscard]] virtual bool supports_weight_reset() const = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Per-operation time accounting (Fig. 5 categories), read from the
  /// agent's TimeLedger.
  [[nodiscard]] virtual const util::OpBreakdown& breakdown() const = 0;
};

using AgentPtr = std::unique_ptr<Agent>;

/// Selects which set of output weights a batched prediction reads:
/// theta_1 (the continuously trained network) or theta_2 (the frozen
/// target copy).
enum class QNetwork { kMain, kTarget };

/// Portable snapshot of a backend's learned Q-network state — exactly the
/// pieces that change during training: beta (theta_1), the frozen target
/// copy beta_target (theta_2), and the OS-ELM covariance inverse P. The
/// fixed random projection (alpha, bias) is NOT included: replica
/// synchronization assumes all parties were built from the same
/// BackendConfig seed and therefore share it. Matrices are always
/// double-precision; fixed-point backends dequantize on export and
/// re-quantize on import, so a round trip through the FPGA model is lossy
/// at its Q-format resolution but software round trips are bit-exact.
struct QNetState {
  linalg::MatD beta;         ///< N x 1 output weights (theta_1)
  linalg::MatD beta_target;  ///< N x 1 target copy (theta_2)
  linalg::MatD p;            ///< N x N covariance inverse (empty if !initialized)
  bool initialized = false;  ///< whether init_train has run
};

/// Arithmetic backend for the OS-ELM Q-network: the same Algorithm 1 agent
/// drives either the software (double) implementation or the fixed-point
/// FPGA functional model.
///
/// Time accounting (PR 3 redesign): every predicting/training call charges
/// the backend's own util::TimeLedger instead of returning "seconds to
/// charge" doubles. Software backends charge measured wall-clock; the FPGA
/// backend charges modeled programmable-logic time. Prediction charges
/// route through TimeLedger::charge_predict, so agents retarget them with
/// a TimeLedger::PredictScope (e.g. TD-target evaluations inside init/seq
/// training). Several sessions on one backend share its one account.
class OsElmQBackend {
 public:
  /// `ledger` is the time account this backend charges: a decorator
  /// passes the ledger of the backend it wraps; nullptr (every concrete
  /// backend) creates a private one.
  explicit OsElmQBackend(util::TimeLedgerPtr ledger)
      : ledger_(ledger ? std::move(ledger)
                       : std::make_shared<util::TimeLedger>()) {}
  virtual ~OsElmQBackend() = default;

  /// (Re)randomizes weights; applies spectral normalization when the
  /// backing configuration asks for it. Forgets any initial training.
  /// Does NOT touch the ledger — accumulated time survives §4.3 resets.
  virtual void initialize() = 0;

  /// Q_theta1(s, a) for an encoded (state, action) input.
  [[nodiscard]] virtual double predict_main(const linalg::VecD& sa) = 0;

  /// Q_theta2(s, a) — the fixed target network.
  [[nodiscard]] virtual double predict_target(const linalg::VecD& sa) = 0;

  /// Batched Q(s, .) over every action candidate in one pass.
  ///
  /// `action_codes[k]` is the scalar action feature the encoder appends to
  /// `state` (see SimplifiedOutputModel::action_code), so `state` has
  /// input_dim() - 1 entries and `q_out` must already hold
  /// `action_codes.size()` slots — the call is allocation-free.
  ///
  /// The encoded inputs differ only in that trailing feature, which is what
  /// the paper's FPGA core exploits: backends compute the shared state
  /// projection alpha_state^T s + bias once and apply a per-action rank-1
  /// correction alpha_last * code before the activation. Results match the
  /// per-action predict_main/predict_target loop (bit-exact in software,
  /// bit-faithful on the fixed-point model) and the charged time covers
  /// the whole batch (amortized: cheaper than action_codes.size() single
  /// predictions).
  virtual void predict_actions(const linalg::VecD& state,
                               const linalg::VecD& action_codes,
                               QNetwork which, linalg::VecD& q_out) = 0;

  /// Cross-session batch: Q(s_i, .) for `states.rows()` independent states
  /// (each states.cols() == input_dim() - 1 wide) over the same action
  /// codes; `q_out` must be states.rows() x action_codes.size().
  ///
  /// Row i of `q_out` is bit-identical to
  /// predict_actions(states.row(i), ...) — the serving front-end
  /// (rl::AsyncQServer) relies on that to coalesce many sessions'
  /// greedy/target evaluations into one call. The base implementation
  /// loops over predict_actions; the FPGA model overrides it to charge one
  /// amortized multi-batch (a single AXI handshake and pipeline fill for
  /// the whole coalesced batch, see CycleModel::predict_multi_cycles).
  virtual void predict_actions_multi(const linalg::MatD& states,
                                     const linalg::VecD& action_codes,
                                     QNetwork which, linalg::MatD& q_out);

  /// Initial training (Eq. 7/8) on the buffered chunk; runs on the host
  /// CPU in both backends, mirroring Fig. 3's hardware/software split.
  /// Charges kInitTrain.
  virtual void init_train(const linalg::MatD& x, const linalg::MatD& t) = 0;

  /// One sequential update (Eq. 6, k = 1) toward `target`. Charges
  /// kSeqTrain.
  virtual void seq_train(const linalg::VecD& sa, double target) = 0;

  /// One sequential update per row of `sa_rows` toward the matching
  /// entry of `targets`, as if seq_train ran on each row in order. All k
  /// targets must be computed before the call: a backend may apply the
  /// rows as one Eq. 5 update of chunk size k, which equals the k rank-1
  /// updates in exact arithmetic. Throws std::invalid_argument unless
  /// sa_rows is input_dim() wide with one row per target.
  ///
  /// The base implementation loops over seq_train, so a backend that
  /// keeps the paper's k = 1 design (the FPGA model) charges kSeqTrain
  /// per row; the software backend overrides it.
  virtual void seq_train_chunk(const linalg::MatD& sa_rows,
                               std::span<const double> targets);

  /// theta_2 <- theta_1.
  virtual void sync_target() = 0;

  [[nodiscard]] virtual bool initialized() const = 0;
  [[nodiscard]] virtual std::size_t input_dim() const = 0;
  [[nodiscard]] virtual std::size_t hidden_units() const = 0;

  /// Whether this backend implements export_state/import_state. The base
  /// returns false; callers (rl::RouterQServer's periodic averaging)
  /// must check before calling either — the defaults throw.
  [[nodiscard]] virtual bool supports_state_sync() const { return false; }

  /// Snapshot of the learned state (see QNetState). Throws
  /// std::logic_error unless supports_state_sync().
  [[nodiscard]] virtual QNetState export_state() const;

  /// Overwrites the learned state from a snapshot (shape-validated
  /// against this backend's dimensions). `state.initialized` must be
  /// true — importing an untrained snapshot is a contract error. Throws
  /// std::logic_error unless supports_state_sync().
  virtual void import_state(const QNetState& state);

  /// The time account this backend charges.
  [[nodiscard]] util::TimeLedger& ledger() noexcept { return *ledger_; }
  [[nodiscard]] const util::TimeLedger& ledger() const noexcept {
    return *ledger_;
  }
  [[nodiscard]] const util::TimeLedgerPtr& ledger_ptr() const noexcept {
    return ledger_;
  }

 protected:
  util::TimeLedgerPtr ledger_;
};

/// Backends are shared between an owning agent/server and the registry
/// callers that configured them (and, in serving, between N sessions).
using OsElmQBackendPtr = std::shared_ptr<OsElmQBackend>;

}  // namespace oselm::rl
