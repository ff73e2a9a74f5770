// Per-category time ledger — the single place operation time is charged.
//
// PR 3 redesign: backends no longer *return* "seconds to charge" doubles
// that every caller must remember to thread into an OpBreakdown. Instead
// every backend owns a TimeLedger and every predicting / training call
// charges it directly; agents read the finished OpBreakdown off the
// ledger. This mirrors the paper's Fig. 3 split between *what is computed*
// (the backend's arithmetic) and *where the time goes* (the ledger's
// categories). Several sessions share one backend — and therefore one
// time account — in the serving front-end (rl/async_server.hpp); the only
// other sharers are decorators (rl::FaultBackend), which charge the
// ledger of the backend they wrap.
//
// Prediction charges are routed by context: by default they land on
// kPredictInit/kPredictSeq depending on whether the backend has run its
// initial training, but a PredictScope can retarget them — the TD-target
// evaluations inside the agent's init_train/seq_train paths charge
// kInitTrain/kSeqTrain, exactly like the historical explicit `charge_to`
// arguments did.
//
// Thread contract: a TimeLedger is a SINGLE-WRITER structure — exactly one
// thread charges it at a time (an agent's caller thread, an AsyncQServer's
// batch thread). Ownership transfers only at quiescent points, marked by
// release_writer() (e.g. AsyncQServer::run_exclusive running inline after
// stop()). Debug builds enforce this with a util::ThreadAffinity that
// binds on the first charge; sharing one ledger across concurrently
// charging threads is a data race AND a tripped contract.
#pragma once

#include <memory>

#include "util/contract.hpp"
#include "util/op_accounting.hpp"

namespace oselm::util {

class TimeLedger {
 public:
  /// Adds `seconds` (and `invocations` op counts) to `category`.
  void charge(OpCategory category, double seconds,
              std::uint64_t invocations = 1) noexcept {
    writer_.assert_or_bind("TimeLedger charged off its writer thread");
    breakdown_.add(category, seconds, invocations);
  }

  /// Charges a prediction: to the active PredictScope's category when one
  /// is set, otherwise kPredictSeq/kPredictInit selected by `initialized`
  /// (the caller-side charge = initialized ? seq : init rule the agents
  /// used before the redesign).
  void charge_predict(bool initialized, double seconds,
                      std::uint64_t invocations = 1) noexcept {
    writer_.assert_or_bind("TimeLedger charged off its writer thread");
    breakdown_.add(predict_category(initialized), seconds, invocations);
  }

  /// Marks a legal writer handoff: the next charge from ANY thread
  /// re-binds the Debug ownership guard. Call only at quiescent points —
  /// when the previous writer provably issues no further charges (batch
  /// thread joined, agent destroyed). No-op in Release.
  void release_writer() noexcept { writer_.release(); }

  /// Where a prediction would be charged right now.
  [[nodiscard]] OpCategory predict_category(bool initialized) const noexcept {
    if (predict_override_ != OpCategory::kCount) return predict_override_;
    return initialized ? OpCategory::kPredictSeq : OpCategory::kPredictInit;
  }

  [[nodiscard]] const OpBreakdown& breakdown() const noexcept {
    return breakdown_;
  }

  /// Forgets all accumulated time and counts (not the PredictScope
  /// state). An epoch boundary: the Debug writer guard resets with the
  /// account, so a bench that reuses one ledger across measurement phases
  /// may charge the next phase from a different thread.
  void reset() noexcept {
    breakdown_ = OpBreakdown{};
    writer_.release();
  }

  /// RAII override: predictions charged while the scope is alive land on
  /// `category` regardless of backend lifecycle. Nestable; the previous
  /// routing is restored on destruction.
  class PredictScope {
   public:
    PredictScope(TimeLedger& ledger, OpCategory category) noexcept
        : ledger_(ledger), previous_(ledger.predict_override_) {
      // Scope routing state is covered by the same single-writer
      // contract as the charges it redirects.
      ledger_.writer_.assert_or_bind(
          "TimeLedger::PredictScope opened off the writer thread");
      ledger_.predict_override_ = category;
    }
    PredictScope(const PredictScope&) = delete;
    PredictScope& operator=(const PredictScope&) = delete;
    ~PredictScope() { ledger_.predict_override_ = previous_; }

   private:
    TimeLedger& ledger_;
    OpCategory previous_;
  };

 private:
  OpBreakdown breakdown_;
  /// kCount doubles as "no override active".
  OpCategory predict_override_ = OpCategory::kCount;
  /// Debug single-writer guard (inert in Release). PredictScope state is
  /// covered by the same contract: scopes live on the writer thread.
  ThreadAffinity writer_;
};

/// A backend's ledger is shared with the decorators that wrap it, hence
/// the shared_ptr alias.
using TimeLedgerPtr = std::shared_ptr<TimeLedger>;

}  // namespace oselm::util
