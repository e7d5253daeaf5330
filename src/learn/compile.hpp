// Hypothesis compilation: from learned hypotheses to the repo's standard
// automaton/LTS/process representations, plus the equivalence judgements
// the differential battery is built on.
//
// A Hypothesis is already a deterministic automaton over event-name
// strings; this layer (1) converts it to conform::SymAutomaton so suite
// generation can walk it, (2) interns it into a Context as a CompactLts /
// process term so the refinement engine can check R01–R05 against it, and
// (3) decides strong-bisimulation equivalence of two string-event automata
// by partitioning their disjoint union with refine's bisim_partition — the
// judge the learn_diff_test battery uses to compare learned hypotheses
// with their seeded spec automata.
#pragma once

#include <optional>
#include <string>
#include <set>
#include <vector>

#include "conform/automaton.hpp"
#include "core/context.hpp"
#include "learn/learner.hpp"
#include "refine/compact.hpp"

namespace ecucsp::learn {

/// The hypothesis as a conform automaton (live transitions only).
conform::SymAutomaton to_sym_automaton(const Hypothesis& h);

/// Intern a string-event automaton into `ctx` as an explicit machine: each
/// distinct event name becomes a field-less channel, states map 1:1.
CompactLts to_lts(Context& ctx, const conform::SymAutomaton& a);

/// to_lts wrapped into a process term (refine::lts_to_process); `name`
/// must be fresh in the Context.
ProcessRef to_process(Context& ctx, const conform::SymAutomaton& a,
                      const std::string& name);

/// Strong-bisimulation equivalence of two deterministic string-event
/// automata (every state accepting): partition the disjoint union, compare
/// root blocks. For deterministic automata this coincides with language
/// equality, so it is exactly "the learner reproduced the spec".
bool strong_bisim_equivalent(const conform::SymAutomaton& a,
                             const conform::SymAutomaton& b);

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
/// DESIGN.md §16 develops why learning converges to this and not to the
/// full model.
conform::SymAutomaton testable_projection(
    const conform::SymAutomaton& model,
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
  conform::SymAutomaton automaton;
  bool lossless = true;
};
StripResult strip_ignored_self_loops(const conform::SymAutomaton& a,
                                     const std::set<std::string>& ignored);

}  // namespace ecucsp::learn
