// Trace oracles: accept/reject an observed event sequence against a spec.
//
// The oracle is the "check every run against the spec" half of model-based
// conformance testing. It walks a Dfa over the observed trace and
// reports the first divergence: the index, the offending event, and what
// the spec offered instead. Because it is pure data over event-name
// strings, one oracle compiled on the main thread serves every test
// executor concurrently.
//
// Scope (documented limitation): a trace oracle checks *safety* — it
// detects commission faults (the implementation did something the spec
// forbids) but not omission faults (the implementation silently did
// nothing where the spec would eventually act). Liveness needs timed or
// refusal testing, which is out of scope here.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "conform/automaton.hpp"
#include "core/cancel.hpp"
#include "core/context.hpp"

namespace ecucsp::conform {

struct OracleVerdict {
  bool accepted = true;
  /// When rejected: index into the judged trace of the offending event.
  std::size_t divergence_index = 0;
  std::string event;
  /// What the spec automaton offered at the divergence point.
  std::vector<std::string> offered;
  std::string reason;
};

/// Resumable oracle position: the automaton node plus the global index of
/// the next event to judge. A cursor saved at a chunk boundary and restored
/// on another thread reproduces one-shot judge() exactly — this is the
/// state the offline replay sweep (src/replay) carries across chunks, and
/// divergence indices stay global because the cursor remembers how many
/// events precede it.
struct OracleCursor {
  std::uint32_t node = 0;
  std::size_t next = 0;

  friend bool operator==(const OracleCursor&, const OracleCursor&) = default;
};

struct TraceOracle {
  /// Outcomes of the step rule besides a target node.
  static constexpr std::uint32_t kSkip = 0xffffffffu;
  static constexpr std::uint32_t kRejectAlphabet = 0xfffffffeu;
  static constexpr std::uint32_t kRejectStuck = 0xfffffffdu;

  std::string name;
  /// The spec. Its name table is the oracle's alphabet, the events it
  /// constrains: an alphabet event must match an edge; anything else is
  /// skipped (or rejected under strict).
  Dfa automaton;
  /// Events skipped silently even under strict (e.g. attacker-injected
  /// frames the model deliberately has no word for).
  std::set<std::string> ignored;
  /// Reject events outside alphabet + ignored instead of skipping them.
  /// Model oracles are strict — an unknown event name there means the
  /// frame-to-event mapping and the model alphabet have drifted apart,
  /// which must surface as a failure, not a silent skip.
  bool strict = false;

  /// The step rule, written once for every walker (judge_resume,
  /// OracleSession and replay's per-trace step tables). Per event name:
  /// kSkip for an ignored event or, unless strict, one outside the
  /// alphabet; kRejectAlphabet for one outside it under strict; otherwise
  /// the event's symbol.
  std::uint32_t resolve(const std::string& event) const;
  /// Per node: the node a resolved event leads to, or kRejectStuck when
  /// `node` has no edge for it; kSkip and kRejectAlphabet pass through.
  std::uint32_t advance(std::uint32_t node, std::uint32_t resolved) const;
  std::uint32_t next(std::uint32_t node, const std::string& event) const {
    return advance(node, resolve(event));
  }

  /// The verdict for rejection code `why` of `event`, the trace's event
  /// number `at`, refused at `node`.
  OracleVerdict rejection(std::size_t at, const std::string& event,
                          std::uint32_t node, std::uint32_t why) const;

  OracleVerdict judge(const std::vector<std::string>& events) const;

  /// Fresh cursor at the automaton root, before event 0.
  OracleCursor start() const { return OracleCursor{automaton.root, 0}; }

  /// Judge events[cur.next, min(end, events.size())) resuming from `cur`,
  /// advancing the cursor as events are consumed. On acceptance the cursor
  /// sits after the last judged event; on rejection it points *at* the
  /// offending event (node unchanged), so a caller can record the
  /// divergence, bump cur.next past the event, and resume — the
  /// skip-and-continue discipline replay uses to report several
  /// divergences per log. Splitting a trace at any set of indices and
  /// resuming yields byte-identical verdicts to one-shot judge()
  /// (tests/conform_oracle_test.cpp pins this at every split point).
  OracleVerdict judge_resume(
      OracleCursor& cur, const std::vector<std::string>& events,
      std::size_t end = static_cast<std::size_t>(-1)) const;
};

/// A stateful per-query session over a TraceOracle: one event at a time,
/// with offered-set extraction at the current position. This is the shape
/// an active learner needs — a membership query walks the oracle event by
/// event, and on rejection the learner reads `offered()` to decompose the
/// counterexample (which spec events were available where the trace died).
///
/// step() is sticky-rejecting: once an event is refused the session stays
/// dead until reset(), mirroring the prefix-closure of trace languages
/// (a rejected word has no accepted extensions). Stepping a trace one
/// event at a time is byte-identical to one-shot judge() on the whole
/// trace (pinned in tests/conform_oracle_test.cpp).
class OracleSession {
 public:
  explicit OracleSession(const TraceOracle& oracle)
      : oracle_(&oracle), cur_(oracle.start()) {}

  /// Consume one event. Returns true while the oracle still accepts the
  /// trace so far; false from the first refused event onward.
  bool step(const std::string& event);

  /// True until some stepped event was refused.
  bool alive() const { return alive_; }

  /// Events the spec offers at the current node, in automaton edge order.
  /// After a rejection this is the offered set at the divergence point
  /// (the node does not advance on refusal), exactly what judge() reports.
  std::vector<std::string> offered() const {
    return oracle_->automaton.offered(cur_.node);
  }

  /// Resumable position; next counts consumed events (accepted or not),
  /// so after a full walk it equals the trace length judged so far.
  const OracleCursor& cursor() const { return cur_; }

  /// The rejection details once !alive(); a default verdict before that.
  const OracleVerdict& verdict() const { return verdict_; }

  const TraceOracle& oracle() const { return *oracle_; }

  /// Back to the root, before event 0, alive again.
  void reset() {
    cur_ = oracle_->start();
    alive_ = true;
    verdict_ = {};
  }

 private:
  const TraceOracle* oracle_;
  OracleCursor cur_;
  bool alive_ = true;
  OracleVerdict verdict_;
};

/// The reason a verdict gives for rejection code `why` (kRejectAlphabet or
/// kRejectStuck).
const char* rejection_reason(std::uint32_t why);

/// Compile a Context-bound spec process into a portable oracle: hide
/// everything outside `keep`, compile, normalize, render event names. TAU
/// never appears in a normalized automaton and TICK is dropped, since
/// observed bus traces carry neither. The name table is the rendered `keep`
/// set, not just the events on some edge: an alphabet event the spec never
/// allows must reject. Cancellation and the state budget reach both
/// exploration passes.
TraceOracle compile_oracle(Context& ctx, std::string name, ProcessRef spec,
                           const EventSet& keep, bool strict = false,
                           std::size_t max_states = 1u << 20,
                           CancelToken* cancel = nullptr);

}  // namespace ecucsp::conform
