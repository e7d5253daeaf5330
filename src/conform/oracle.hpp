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

  /// The step rule, written once for every walker (judge() and replay's
  /// per-trace step tables). Per event name: kSkip for an ignored event
  /// or, unless strict, one outside the alphabet; kRejectAlphabet for one
  /// outside it under strict; otherwise the event's symbol.
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

  /// The first divergence of `events`, or an accepting verdict.
  OracleVerdict judge(const std::vector<std::string>& events) const;
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
