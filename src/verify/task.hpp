// Batch-verification task model.
//
// The paper's workflow (Figure 1) produces *many* independent FDR-style
// checks: one per Table III requirement, per attacker model, per property
// variant. A CheckTask describes one such check in a self-contained,
// Context-free way so the scheduler can run it on any worker thread: the
// task carries CSPm source text (or a closure that builds its own model)
// rather than ProcessRefs, and every Context the check needs lives exactly
// as long as the task. This preserves the core invariant from
// src/core/context.hpp — one verification task = one Context, no shared
// mutable state — which is what makes task-level parallelism safe without a
// single lock in the engine.
//
// Because the task's Context dies with the task, a TaskOutcome carries only
// plain data: the verdict, the stats, and the counterexample already
// rendered to text while the Context was alive.
#pragma once

#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cancel.hpp"
#include "refine/check.hpp"

namespace ecucsp::verify {

/// A check verdict with its counterexample flattened to text, safe to carry
/// out of the task once the task's Context is destroyed.
struct RenderedCheck {
  CheckResult result;
  std::string counterexample;
};

/// Flatten `r`'s counterexample (if any) using `ctx` while it is alive.
RenderedCheck render(const Context& ctx, CheckResult r);

/// One independent check. Exactly one of two modes must be populated:
///   * CSPm mode — `sources` are loaded into a fresh evaluator and the
///     assertion at `assertion_index` is run;
///   * custom mode — `custom` owns the whole check (it typically builds a
///     domain model such as ota::OtaModel, which embeds its own Context).
/// A custom closure must be self-contained: it may capture plain data
/// (strings, ints, event names) but never a Context, ProcessRef or EventId
/// from outside — those are meaningless in the Context it builds.
struct CheckTask {
  std::string name;

  // --- CSPm mode ---
  std::vector<std::string> sources;   // scripts loaded in order
  std::optional<std::size_t> assertion_index;

  // --- custom mode ---
  // Returns the verdict plus the counterexample already rendered to text,
  // because the Context the custom check builds is gone once it returns.
  // Use render() at the end of the lambda while the Context is still alive.
  std::function<RenderedCheck(CancelToken&)> custom;

  /// Opt into static pruning (--prune=static) of a CSPm-mode refinement:
  /// if verify::predict_vacuous_pass certifies a vacuous PASS, report
  /// pruned_pass() without exploring. Verdict-preserving by construction
  /// (see prune.hpp); custom closures apply their own pruning.
  bool prune = false;

  /// Per-check wall-clock budget; the worker arms the task's CancelToken
  /// with it just before the check starts.
  std::optional<std::chrono::milliseconds> timeout;
  /// Per-check state-count budget of a CSPm-mode check.
  std::size_t max_states = 1u << 22;

  /// Optional oracle for reporting: some matrix cells (e.g. R05 on the
  /// unprotected ECU under attack) are *supposed* to fail.
  std::optional<bool> expected;
};

enum class TaskStatus {
  Passed,
  Failed,        // check ran to completion, refinement does not hold
  TimedOut,      // per-check deadline fired
  Cancelled,     // batch-level cancellation fired
  StateLimit,    // exceeded the task's max_states budget
  Error,         // model construction / evaluation threw
};

std::string_view to_string(TaskStatus s);

struct TaskOutcome {
  std::string name;
  TaskStatus status = TaskStatus::Error;
  CheckStats stats;
  /// Human-readable counterexample (Counterexample::describe output plus the
  /// assertion description for CSPm tasks); empty when the check passed.
  std::string counterexample;
  /// Diagnostic text for Error / StateLimit statuses.
  std::string error;
  /// True when the verdict came out of the installed verification cache
  /// (CheckResult::from_cache) rather than a fresh exploration.
  bool cached = false;
  /// CheckResult::vacuous: the check passed but the implementation never
  /// reaches any event the spec constrains, so the PASS is suspect.
  bool vacuous = false;
  /// CheckResult::pruned: the verdict was statically certified by the
  /// --prune=static analysis instead of explored. Implies vacuous.
  bool pruned = false;
  std::chrono::nanoseconds wall{0};
  std::optional<bool> expected;

  bool passed() const { return status == TaskStatus::Passed; }
  /// Verdict matches the task's oracle (trivially true without one).
  bool as_expected() const {
    if (!expected) return true;
    if (status != TaskStatus::Passed && status != TaskStatus::Failed)
      return false;
    return passed() == *expected;
  }
};

struct BatchResult {
  /// One outcome per submitted task, in submission order regardless of the
  /// order workers finished them.
  std::vector<TaskOutcome> outcomes;
  std::chrono::nanoseconds wall{0};  // batch wall time
  std::chrono::nanoseconds cpu{0};   // sum of per-task wall times

  std::size_t count(TaskStatus s) const;
  bool all_passed() const { return count(TaskStatus::Passed) == outcomes.size(); }
  bool all_as_expected() const;
  /// cpu / wall: the effective parallelism the batch achieved.
  double speedup() const;
};

/// Run one task to completion on the calling thread, mapping engine
/// exceptions (CheckCancelled, StateLimitExceeded, ModelError, ...) to task
/// statuses. `token` must already be armed with any deadline. This is the
/// scheduler's worker body, exposed for callers that run one task inline.
TaskOutcome run_task(const CheckTask& task, CancelToken& token);

}  // namespace ecucsp::verify
