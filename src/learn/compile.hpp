// Learned automata as machines, plus the equivalence judgements the
// differential battery is built on.
//
// A hypothesis is a conform::Dfa, the format suite generation walks and
// trace oracles judge with. This layer (1) lays a Dfa out as a CompactLts
// so the refinement engine can check R02–R05 against the learned model
// directly, (2) decides strong-bisimulation equivalence of two Dfas by
// partitioning their disjoint union with refine's bisim_partition — the
// judge the learn_diff_test battery uses to compare learned hypotheses with
// their seeded spec automata — and (3) derives the automata learning can
// actually converge to.
#pragma once

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "conform/automaton.hpp"
#include "core/event.hpp"
#include "refine/compact.hpp"

namespace ecucsp::learn {

/// `dfa` as an explicit machine whose symbol k is labelled events[k] (TAU
/// hides it). Each row is sorted by (event, target) and deduplicated, the
/// order compile_lts gives a row.
CompactLts to_machine(const conform::Dfa& dfa,
                      const std::vector<EventId>& events);

/// Strong-bisimulation equivalence of two Dfas (every state accepting):
/// partition the disjoint union, compare root blocks. For deterministic
/// automata this coincides with language equality, so it is exactly "the
/// learner reproduced the spec". Name tables play no part.
bool strong_bisim_equivalent(const conform::Dfa& a, const conform::Dfa& b);

/// The harness-testable projection of a model automaton — the fixpoint an
/// active learner driving the quiescent conformance harness can actually
/// converge to:
///   * drop edges that are neither concretizable stimuli nor observable
///     responses (internal sends never hit the bus observation);
///   * at states offering any response edge keep only response edges (the
///     settle-window discipline guarantees pending responses land before
///     the next stimulus can be injected, so stimulus edges there are not
///     drivable);
///   * restrict to states reachable from the root afterwards.
/// The model's name table carries over. DESIGN.md §16 develops why learning
/// converges to this and not to the full model.
conform::Dfa testable_projection(
    const conform::Dfa& model,
    const std::function<bool(const std::string&)>& is_stimulus,
    const std::function<bool(const std::string&)>& is_response);

/// Strip self-loop edges labelled with `ignored` events (events the model
/// oracle deliberately has no word for, e.g. send.UpdApplyReqBad). Returns
/// the stripped automaton plus a losslessness flag: true when every
/// ignored-event edge was a self-loop. A non-self-loop ignored edge means
/// the target *reacts* to an event the spec ignores — unstrippable, and
/// exactly the signature of the DropGuard mutant — so callers must treat
/// lossless == false as "not equivalent", not strip and compare anyway.
struct StripResult {
  conform::Dfa automaton;
  bool lossless = true;
};
StripResult strip_ignored_self_loops(const conform::Dfa& a,
                                     const std::set<std::string>& ignored);

}  // namespace ecucsp::learn
