// Debug contract layer — machine-checked invariants for the threaded
// serving stack.
//
// The serving tiers (util::ThreadPool session workers, rl::AsyncQServer's
// batch thread, rl::RouterQServer's fleet sync) rest on conventions that
// code review alone enforces: "all backend calls happen on the batch
// thread", "P stays symmetric", "ready queues stay bounded". This header
// turns those conventions into contracts that trip loudly in Debug builds
// (and under the sanitizer CI jobs, which build Debug) and compile to
// NOTHING in Release:
//
//   * OSELM_DCHECK / OSELM_DCHECK_EQ / _NE / _LT / _LE / _GT / _GE —
//     invariant checks that print file:line plus the failed expression
//     (comparison forms include both operand values) and abort(). In
//     Release the condition operands are NOT evaluated — the whole macro
//     folds to a dead `sizeof` in an `if (false)` branch, so a DCHECK can
//     never carry side effects into production and never costs a cycle
//     (tests/util/contract_test.cpp pins both properties).
//   * OSELM_DCHECK_FINITE(x) — NaN/Inf guard for accumulating numerics.
//   * util::ThreadAffinity — a debug thread-ownership guard: the owning
//     thread bind()s, call sites assert_here(). Single-writer structures
//     (the TimeLedger, AsyncQServer's backend seam) use assert_or_bind()
//     so ownership is established on first use and explicit release()
//     marks legal handoff points (e.g. AsyncQServer::run_exclusive's
//     inline-after-stop() path).
//
// Contracts are enabled when NDEBUG is unset (the Debug/ASan/TSan CI
// builds). Define OSELM_FORCE_CONTRACTS=1 to keep them in an optimized
// build when chasing a production-only repro.
#pragma once

#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>

#if !defined(OSELM_CONTRACTS_ENABLED)
#if defined(OSELM_FORCE_CONTRACTS) && OSELM_FORCE_CONTRACTS
#define OSELM_CONTRACTS_ENABLED 1
#elif defined(NDEBUG)
#define OSELM_CONTRACTS_ENABLED 0
#else
#define OSELM_CONTRACTS_ENABLED 1
#endif
#endif

namespace oselm::util {
namespace contract_detail {

/// Prints "<file>:<line>: contract failed: <expr><detail>" to stderr and
/// aborts. Out of line so the macro expansion stays small on every call
/// site; [[noreturn]] so DCHECKs in [[nodiscard]]/noexcept paths don't
/// change control-flow warnings.
[[noreturn]] void fail(const char* file, int line, const char* expr,
                       const std::string& detail) noexcept;

/// Stringifies a comparison's operands for the failure message. Streaming
/// covers every operand type the call sites use (integers, doubles,
/// pointers, std::thread::id).
template <typename A, typename B>
std::string describe_operands(const A& a, const B& b) {
  std::ostringstream os;
  os << " (lhs = " << a << ", rhs = " << b << ")";
  return os.str();
}

}  // namespace contract_detail

/// Debug-build thread-ownership guard. All operations are no-ops in
/// Release (the owner slot itself stays, keeping the layout identical
/// across translation units whatever OSELM_FORCE_CONTRACTS does).
///
/// Two usage shapes:
///   * explicit ownership: the owning thread calls bind() once (e.g. the
///     batch thread at the top of its loop); call sites assert_here().
///   * sticky ownership: assert_or_bind() binds on first use and asserts
///     afterwards; release() marks a legal handoff point, after which the
///     next assert_or_bind() re-binds (TimeLedger's single-writer
///     contract, AsyncQServer's inline run_exclusive after stop()).
class ThreadAffinity {
 public:
  /// Binds (or re-binds) ownership to the calling thread.
  void bind() noexcept {
#if OSELM_CONTRACTS_ENABLED
    owner_.store(std::this_thread::get_id(), std::memory_order_release);
#endif
  }

  /// Drops ownership; the next bind()/assert_or_bind() establishes a new
  /// owner. Marks deliberate handoff points so they are greppable.
  void release() noexcept {
#if OSELM_CONTRACTS_ENABLED
    owner_.store(std::thread::id{}, std::memory_order_release);
#endif
  }

  /// Aborts (Debug) unless the calling thread is the bound owner. `what`
  /// names the violated contract in the failure message.
  void assert_here([[maybe_unused]] const char* what) const noexcept {
#if OSELM_CONTRACTS_ENABLED
    const std::thread::id owner = owner_.load(std::memory_order_acquire);
    if (owner != std::this_thread::get_id()) fail_affinity(what, owner);
#endif
  }

  /// Binds when unbound, asserts otherwise — the sticky single-writer
  /// shape. Not atomic as a whole: two threads racing the FIRST use can
  /// both pass, but any steady-state violation trips (and TSan catches
  /// the race itself).
  void assert_or_bind([[maybe_unused]] const char* what) noexcept {
#if OSELM_CONTRACTS_ENABLED
    const std::thread::id owner = owner_.load(std::memory_order_acquire);
    if (owner == std::thread::id{}) {
      owner_.store(std::this_thread::get_id(), std::memory_order_release);
      return;
    }
    if (owner != std::this_thread::get_id()) fail_affinity(what, owner);
#endif
  }

  /// True when some thread holds ownership (Debug; always false in
  /// Release where the contract state is inert).
  [[nodiscard]] bool bound() const noexcept {
#if OSELM_CONTRACTS_ENABLED
    return owner_.load(std::memory_order_acquire) != std::thread::id{};
#else
    return false;
#endif
  }

 private:
  [[noreturn]] static void fail_affinity(const char* what,
                                         std::thread::id owner) noexcept;

  /// Value-initialized id == "no thread". Atomic so bind()/assert_here()
  /// from different threads is itself race-free under TSan.
  std::atomic<std::thread::id> owner_{std::thread::id{}};
};

}  // namespace oselm::util

// ---------------------------------------------------------------------------
// Invariant macros
// ---------------------------------------------------------------------------
//
// Release expansion: the operands sit inside an unevaluated sizeof in a
// dead branch — they are type-checked (so a DCHECK can't rot silently)
// but never executed and fold away entirely.

#if OSELM_CONTRACTS_ENABLED

#define OSELM_DCHECK(cond)                                                \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::oselm::util::contract_detail::fail(__FILE__, __LINE__, #cond,     \
                                           std::string{});                \
    }                                                                     \
  } while (false)

#define OSELM_DCHECK_OP_(op, a, b)                                        \
  do {                                                                    \
    const auto& oselm_dcheck_a_ = (a);                                    \
    const auto& oselm_dcheck_b_ = (b);                                    \
    if (!(oselm_dcheck_a_ op oselm_dcheck_b_)) {                          \
      ::oselm::util::contract_detail::fail(                               \
          __FILE__, __LINE__, #a " " #op " " #b,                          \
          ::oselm::util::contract_detail::describe_operands(              \
              oselm_dcheck_a_, oselm_dcheck_b_));                         \
    }                                                                     \
  } while (false)

#define OSELM_DCHECK_FINITE(x)                                            \
  do {                                                                    \
    const double oselm_dcheck_v_ = static_cast<double>(x);                \
    if (!std::isfinite(oselm_dcheck_v_)) {                                \
      ::oselm::util::contract_detail::fail(                               \
          __FILE__, __LINE__, #x " is finite",                            \
          ::oselm::util::contract_detail::describe_operands(              \
              oselm_dcheck_v_, 0.0));                                     \
    }                                                                     \
  } while (false)

#else  // !OSELM_CONTRACTS_ENABLED

// `sizeof` keeps the operands ODR-used (no -Wunused-* fallout for
// variables that only feed contracts) without evaluating them.
#define OSELM_DCHECK(cond)                                                \
  do {                                                                    \
    if (false) {                                                          \
      static_cast<void>(sizeof((cond) ? 1 : 0));                          \
    }                                                                     \
  } while (false)

#define OSELM_DCHECK_OP_(op, a, b)                                        \
  do {                                                                    \
    if (false) {                                                          \
      static_cast<void>(sizeof(((a)op(b)) ? 1 : 0));                      \
    }                                                                     \
  } while (false)

#define OSELM_DCHECK_FINITE(x)                                            \
  do {                                                                    \
    if (false) {                                                          \
      static_cast<void>(sizeof(static_cast<double>(x)));                  \
    }                                                                     \
  } while (false)

#endif  // OSELM_CONTRACTS_ENABLED

#define OSELM_DCHECK_EQ(a, b) OSELM_DCHECK_OP_(==, a, b)
#define OSELM_DCHECK_NE(a, b) OSELM_DCHECK_OP_(!=, a, b)
#define OSELM_DCHECK_LT(a, b) OSELM_DCHECK_OP_(<, a, b)
#define OSELM_DCHECK_LE(a, b) OSELM_DCHECK_OP_(<=, a, b)
#define OSELM_DCHECK_GT(a, b) OSELM_DCHECK_OP_(>, a, b)
#define OSELM_DCHECK_GE(a, b) OSELM_DCHECK_OP_(>=, a, b)
