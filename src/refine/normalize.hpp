// Specification normalisation (FDR's pre-step for refinement checking).
//
// Converts an LTS into a deterministic "normal form" over visible events:
// each normal node is the tau-closure of a set of source states, annotated
// with the union of its initials, its subset-minimal acceptance sets (for
// the stable-failures model) and a divergence flag (for the
// failures-divergences model).
#pragma once

#include <cstdint>
#include <vector>

#include "core/cancel.hpp"
#include "refine/compact.hpp"

namespace ecucsp {

using NormId = std::uint32_t;

struct NormNode {
  /// Deterministic successor per visible event (TICK included), sorted by
  /// event id for binary search.
  std::vector<std::pair<EventId, NormId>> succ;
  /// Union of visible initials (including TICK) over the closure.
  EventSet initials;
  /// Subset-minimal acceptance sets contributed by stable members.
  /// Empty when the node has no stable member (it always diverges-in or
  /// ticks away) — such a node imposes no refusal constraints.
  std::vector<EventSet> min_acceptances;
  /// True iff some member state diverges (infinite tau path).
  bool divergent = false;

  NormId successor(EventId e) const;  // or NORM_NONE
};

inline constexpr NormId NORM_NONE = 0xffffffffu;

struct NormLts {
  NormId root = 0;
  std::vector<NormNode> nodes;
};

/// Normalise `lts`. `with_divergence` additionally computes per-node
/// divergence (needed for the FD model); it costs one SCC pass.
/// Normalisation is worst-case exponential in the source LTS (subset
/// construction), so like compile_lts it polls `cancel` per expanded node
/// and aborts with CheckCancelled when the token fires.
///
/// Normal nodes are keyed on source-state *sets* and explored in event
/// order, so the output depends only on the machine's weak semantics —
/// which is why normalising a compressed spec (compress_compact) yields an
/// equivalent normal form.
NormLts normalize(const CompactLts& lts, bool with_divergence,
                  CancelToken* cancel = nullptr);

/// How a normalized specification restricts events, from its nodes'
/// initials. A passing refinement whose implementation performs none of the
/// `constrained` events is vacuous; refinement checks and the static pruner
/// (verify/prune.hpp) share this one definition.
struct EventConstraints {
  EventSet always_allowed;  // the intersection of the initials
  EventSet constrained;     // the union minus the intersection, TAU/TICK out
};
EventConstraints constrained_events(const NormLts& norm);

}  // namespace ecucsp
