// Oracle sweeps over a decoded event trace.
//
// A trace oracle is sequential by nature: the automaton node after event i
// depends on every event before it. So each oracle is one walk over the
// whole trace from its root, and the parallelism is across oracles: one
// scheduler task per oracle. A walk reads nothing but its own step table
// and the shared events, so verdicts and divergence indices are
// byte-identical at any worker count; the count only picks which thread
// walks which oracle (tests/replay_diff_test.cpp pins the walk against a
// skip-and-continue reference over TraceOracle::next).
//
// Divergence semantics are skip-and-continue: a rejected event is reported
// and then skipped (the oracle node is unchanged), so a single sweep can
// surface up to max_diverge violations per oracle instead of stopping at
// the first — truncation is flagged, never silent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "conform/harness.hpp"
#include "conform/oracle.hpp"
#include "replay/log.hpp"

namespace ecucsp::replay {

/// The event trace decoded from a merged record stream. Events are interned
/// ids (names[id] is the CSP event name); record_of maps each event back to
/// the originating LogRecord for provenance reporting. Records whose CAN id
/// the codec does not know produce a diagnostic and no event.
struct DecodedTrace {
  std::vector<std::uint32_t> events;
  std::vector<std::uint32_t> record_of;
  std::vector<std::string> names;
};

/// Decode the merged records of `log` through `codec` (direction from the
/// codec's tx_ids, MAC split from its mac_id). Unknown-id diagnostics are
/// appended to `log`.
DecodedTrace decode_trace(ParsedLog& log, const conform::FrameCodec& codec);

/// A TraceOracle compiled against one trace's interned event ids: a dense
/// node × event table of TraceOracle::advance outcomes, built from the
/// oracle's CSR rows with its step rule, so the walk is a branch-light
/// array lookup per event instead of a string probe.
struct CompiledOracle {
  const conform::TraceOracle* source = nullptr;  // offered() at divergences
  std::uint32_t n_events = 0;
  std::vector<std::uint32_t> step;  // nodes × n_events

  std::uint32_t at(std::uint32_t node, std::uint32_t event) const {
    return step[static_cast<std::size_t>(node) * n_events + event];
  }
};

CompiledOracle compile_for_trace(const conform::TraceOracle& oracle,
                                 const std::vector<std::string>& names);

struct SweepDivergence {
  std::size_t event_index = 0;  // into DecodedTrace::events
  std::uint32_t node = 0;       // oracle node at the divergence point
  std::uint32_t why = 0;        // TraceOracle rejection code
};

struct OracleSweep {
  std::vector<SweepDivergence> divergences;
  bool truncated = false;  // more divergences exist beyond max_diverge

  bool accepted() const { return divergences.empty() && !truncated; }
};

struct SweepOptions {
  /// Ignored: each oracle is one walk. Frozen until the benchmark drops it.
  std::size_t chunk = 1u << 16;
  std::size_t max_diverge = 1;  // reported divergences per oracle
};

/// Walk every oracle over the trace, one task per oracle on `sched`.
/// Returns one OracleSweep per input oracle, in order.
std::vector<OracleSweep> sweep_trace(const std::vector<CompiledOracle>& oracles,
                                     const std::vector<std::uint32_t>& events,
                                     const SweepOptions& opt,
                                     verify::VerifyScheduler& sched);

}  // namespace ecucsp::replay
