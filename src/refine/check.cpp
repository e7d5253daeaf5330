#include "refine/check.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <set>
#include <tuple>
#include <unordered_set>

namespace ecucsp {

namespace {

std::atomic<CheckCache*> g_check_cache{nullptr};

/// compile_lts through the installed cache's LTS tier: a hit skips the
/// exploration entirely (the dominant cost of every check below).
CompactLts compile_or_load(Context& ctx, ProcessRef root,
                           std::size_t max_states, CancelToken* cancel) {
  CheckCache* const cache = g_check_cache.load(std::memory_order_acquire);
  if (cache) {
    if (auto lts = cache->lookup_lts(ctx, root, max_states)) {
      return std::move(*lts);
    }
  }
  CompactLts lts = compile_lts(ctx, root, max_states, cancel);
  if (cache) cache->store_lts(ctx, root, max_states, lts);
  return lts;
}

}  // namespace

CheckCache* set_check_cache(CheckCache* cache) {
  return g_check_cache.exchange(cache, std::memory_order_acq_rel);
}

CheckCache* check_cache() {
  return g_check_cache.load(std::memory_order_acquire);
}

std::string to_string(Model m) {
  switch (m) {
    case Model::Traces:
      return "T";
    case Model::Failures:
      return "F";
    case Model::FailuresDivergences:
      return "FD";
  }
  return "?";
}

std::string format_trace(const Context& ctx, const std::vector<EventId>& trace) {
  std::string out = "<";
  bool first = true;
  for (EventId e : trace) {
    if (!first) out += ", ";
    first = false;
    out += ctx.event_name(e);
  }
  out += ">";
  return out;
}

std::string Counterexample::describe(const Context& ctx) const {
  std::string out;
  switch (kind) {
    case Kind::TraceViolation:
      out = "trace violation: after " + format_trace(ctx, trace) +
            " the implementation performs '" + ctx.event_name(event) +
            "', which the specification forbids";
      break;
    case Kind::AcceptanceViolation: {
      out = "acceptance violation: after " + format_trace(ctx, trace) +
            " the implementation stabilises accepting only {";
      bool first = true;
      for (EventId e : impl_acceptance) {
        if (!first) out += ", ";
        first = false;
        out += ctx.event_name(e);
      }
      out += "}, refusing more than the specification allows";
      break;
    }
    case Kind::DivergenceViolation:
      out = "divergence violation: after " + format_trace(ctx, trace) +
            " the implementation can diverge but the specification cannot";
      break;
    case Kind::Deadlock:
      out = "deadlock: after " + format_trace(ctx, trace) +
            " the process can neither engage in any event nor terminate";
      break;
    case Kind::Divergence:
      out = "divergence: after " + format_trace(ctx, trace) +
            " the process can perform internal activity forever";
      break;
    case Kind::Nondeterminism:
      out = "nondeterminism: after " + format_trace(ctx, trace) +
            " the process may either accept or refuse '" +
            ctx.event_name(event) + "'";
      break;
  }
  return out;
}

std::vector<std::string> Counterexample::trace_names(
    const Context& ctx) const {
  std::vector<std::string> out;
  out.reserve(trace.size() + 1);
  for (EventId e : trace) out.push_back(ctx.event_name(e));
  if (kind == Kind::TraceViolation || kind == Kind::Nondeterminism) {
    out.push_back(ctx.event_name(event));
  }
  return out;
}

namespace {

EventSet visible_initials(const CompactLts& lts, StateId s) {
  std::vector<EventId> out;
  for (std::uint32_t k = lts.begin(s); k < lts.end(s); ++k) {
    if (lts.events[k] != lts.tau) out.push_back(lts.global_event(lts.events[k]));
  }
  return EventSet(std::move(out));
}

bool is_stable(const CompactLts& lts, StateId s) {
  for (std::uint32_t k = lts.begin(s); k < lts.end(s); ++k) {
    if (lts.events[k] == lts.tau) return false;
  }
  return true;
}

/// Does the spec node allow a stable implementation state that accepts
/// exactly `acceptance`? True iff some minimal spec acceptance is a subset.
bool acceptance_allowed(const NormNode& spec, const EventSet& acceptance) {
  for (const EventSet& m : spec.min_acceptances) {
    if (m.subset_of(acceptance)) return true;
  }
  return false;
}

// --- the product search ------------------------------------------------------
//
// Every check is a level-order search over some graph; the adapters further
// down give product_search its view of each: root(), prune(), inspect() for
// a violation at a state, and degree()/edge() for its successors.

/// One outgoing edge: a successor state, or a violation on the edge itself
/// (a trace violation). Violations leave `trace` empty; the search fills it.
template <typename NodeT>
struct Edge {
  EventId event = TAU;  // trace label (TAU for silent steps)
  NodeT next{};
  std::optional<Counterexample> violation{};
};

/// A violation as an adapter reports it: everything but the trace.
Counterexample violation(Counterexample::Kind kind, EventId event = 0,
                         EventSet acceptance = {}) {
  Counterexample cx;
  cx.kind = kind;
  cx.event = event;
  cx.impl_acceptance = std::move(acceptance);
  return cx;
}

struct SearchOutcome {
  std::optional<Counterexample> counterexample;
  /// States numbered when the search stopped: the whole reachable set on a
  /// pass, every state through the violating BFS level on a failure.
  std::size_t visited = 0;
};

/// The canonical order on counterexamples: shorter visible trace first, then
/// the lexicographically smaller trace, then kind, event and acceptance.
auto canonical_key(const Counterexample& c) {
  return std::make_tuple(c.trace.size(), std::cref(c.trace), c.kind, c.event,
                         std::cref(c.impl_acceptance.items()));
}

/// Breadth-first search of `g` from its root. States are numbered in
/// first-discovery order, and the search stops at the end of the first BFS
/// level that holds a violation. The counterexample is the minimum of all
/// that level's violations under canonical_key, so it does not depend on
/// where in the level a violation is found.
template <typename G>
SearchOutcome product_search(const G& g, CancelToken* cancel) {
  using Node = typename G::Node;
  struct Step {  // the edge a state was first reached by
    std::uint32_t parent = 0;
    EventId event = TAU;
  };
  std::vector<Node> states{g.root()};
  std::vector<Step> reached_by(1);
  std::unordered_set<Node, typename G::NodeHash> seen{g.root()};
  std::vector<std::pair<std::uint32_t, Counterexample>> found;
  std::size_t level_end = 1;
  for (std::uint32_t i = 0; i < states.size(); ++i) {
    if (i == level_end) {
      if (!found.empty()) break;
      level_end = states.size();
    }
    if (cancel) cancel->poll();
    const Node n = states[i];  // copy: push_back below may reallocate
    if (g.prune(n)) continue;
    if (std::optional<Counterexample> v = g.inspect(n)) {
      found.emplace_back(i, std::move(*v));
      continue;
    }
    const std::size_t degree = g.degree(n);
    for (std::size_t k = 0; k < degree; ++k) {
      Edge<Node> e = g.edge(n, k);
      if (e.violation) {
        found.emplace_back(i, std::move(*e.violation));
      } else if (found.empty() && seen.insert(e.next).second) {
        // Once this level holds a violation it is the last one searched,
        // so new states no longer matter.
        states.push_back(e.next);
        reached_by.push_back({i, e.event});
      }
    }
  }

  SearchOutcome out;
  out.visited = found.empty() ? states.size() : level_end;
  for (auto& [at, cx] : found) {
    for (std::uint32_t s = at; s != 0; s = reached_by[s].parent) {
      if (reached_by[s].event != TAU) cx.trace.push_back(reached_by[s].event);
    }
    std::reverse(cx.trace.begin(), cx.trace.end());
    if (!out.counterexample ||
        canonical_key(cx) < canonical_key(*out.counterexample)) {
      out.counterexample = std::move(cx);
    }
  }
  return out;
}

// --- graph adapters ----------------------------------------------------------
//
// The adapters read only the pre-compiled CompactLts/NormLts structures,
// never a Context. The hot loops index the compact CSR arrays directly.

/// The normalized-spec × implementation product for SPEC [T=/[F=/[FD= IMPL.
struct RefinementGraph {
  const NormLts& norm;
  const CompactLts& impl;
  const std::vector<bool>* impl_diverges;  // non-null iff FD model
  bool failures;                           // model != Traces
  bool with_div;                           // model == FailuresDivergences

  /// Dense (norm node × interned impl event) successor table. The impl's
  /// alphabet is small and contiguous after interning, so when the table
  /// fits (~16M entries) every spec step in edge() is a single indexed load
  /// instead of NormNode::successor's binary search. Falls back to the
  /// search when it would be too large.
  std::vector<NormId> spec_succ;
  std::size_t width = 0;

  RefinementGraph(const NormLts& n, const CompactLts& i,
                  const std::vector<bool>* div, bool fail, bool wd)
      : norm(n), impl(i), impl_diverges(div), failures(fail), with_div(wd) {
    width = impl.alphabet.size();
    if (width > 0 && norm.nodes.size() <= (std::size_t{1} << 24) / width) {
      spec_succ.assign(norm.nodes.size() * width, NORM_NONE);
      for (std::size_t id = 0; id < norm.nodes.size(); ++id) {
        for (const auto& [event, target] : norm.nodes[id].succ) {
          const LocalEvent le = impl.local_event(event);
          if (le != NO_LOCAL_EVENT) spec_succ[id * width + le] = target;
        }
      }
    }
  }

  struct Node {
    NormId spec = 0;
    StateId impl = 0;
    bool operator==(const Node&) const = default;
  };
  struct NodeHash {
    std::size_t operator()(const Node& n) const {
      return hash_combine(n.spec, n.impl);
    }
  };

  Node root() const { return {norm.root, impl.root}; }

  // In the FD model a divergent specification node permits every behaviour
  // below it; prune the branch.
  bool prune(const Node& n) const {
    return with_div && norm.nodes[n.spec].divergent;
  }

  std::optional<Counterexample> inspect(const Node& n) const {
    if (with_div && (*impl_diverges)[n.impl]) {
      return violation(Counterexample::Kind::DivergenceViolation);
    }
    if (failures && is_stable(impl, n.impl)) {
      EventSet acceptance = visible_initials(impl, n.impl);
      if (!acceptance_allowed(norm.nodes[n.spec], acceptance)) {
        return violation(Counterexample::Kind::AcceptanceViolation, 0,
                         std::move(acceptance));
      }
    }
    return std::nullopt;
  }

  std::size_t degree(const Node& n) const { return impl.degree(n.impl); }

  Edge<Node> edge(const Node& n, std::size_t i) const {
    const std::uint32_t k = impl.begin(n.impl) + static_cast<std::uint32_t>(i);
    const LocalEvent le = impl.events[k];
    const StateId target = impl.targets[k];
    if (le == impl.tau) return {TAU, Node{n.spec, target}};
    const EventId event = impl.global_event(le);
    const NormId next_spec =
        spec_succ.empty() ? norm.nodes[n.spec].successor(event)
                          : spec_succ[n.spec * width + le];
    if (next_spec == NORM_NONE) {
      return {event, Node{},
              violation(Counterexample::Kind::TraceViolation, event)};
    }
    return {event, Node{next_spec, target}};
  }
};

/// Shared by the two adapters that walk a single compact machine.
struct LtsGraph {
  const CompactLts& lts;

  using Node = StateId;
  using NodeHash = std::hash<StateId>;

  Node root() const { return lts.root; }
  bool prune(Node) const { return false; }
  std::size_t degree(Node s) const { return lts.degree(s); }
  Edge<Node> edge(Node s, std::size_t i) const {
    const std::uint32_t k = lts.begin(s) + static_cast<std::uint32_t>(i);
    // global_event maps the interned tau back to TAU, so the search's tau
    // elision applies.
    return {lts.global_event(lts.events[k]), lts.targets[k]};
  }
};

/// IMPL :[deadlock free] — a reachability search for stuck non-terminated
/// states. Post-tick and Omega classification is baked into the compact
/// flags at compile time, so inspect() is a flag test.
struct DeadlockGraph : LtsGraph {
  std::optional<Counterexample> inspect(Node s) const {
    // States entered by a tick are successful termination, not deadlock.
    if (lts.is_deadlock(s)) {
      return violation(Counterexample::Kind::Deadlock);
    }
    return std::nullopt;
  }
};

/// IMPL :[divergence free] — reachability of a state on a tau cycle.
struct DivergenceGraph : LtsGraph {
  const std::vector<bool>& diverges;

  std::optional<Counterexample> inspect(Node s) const {
    if (diverges[s]) {
      return violation(Counterexample::Kind::Divergence);
    }
    return std::nullopt;
  }
};

/// IMPL :[deterministic] — BFS over the (deterministic) normal form. Its
/// edges carry visible events only, so every non-root edge contributes to
/// the trace.
struct DeterminismGraph {
  const NormLts& norm;

  using Node = NormId;
  using NodeHash = std::hash<NormId>;

  Node root() const { return norm.root; }
  bool prune(Node) const { return false; }

  std::optional<Counterexample> inspect(Node n) const {
    const NormNode& node = norm.nodes[n];
    if (node.divergent) {
      return violation(Counterexample::Kind::Divergence);
    }
    // Deterministic iff after every trace the process accepts exactly its
    // initials: a minimal acceptance missing some initial event means the
    // same trace can lead to both acceptance and refusal of that event.
    for (const EventSet& m : node.min_acceptances) {
      if (m == node.initials) continue;
      const EventSet missing = node.initials.set_difference(m);
      if (!missing.empty()) {
        return violation(Counterexample::Kind::Nondeterminism,
                         *missing.begin(), m);
      }
    }
    return std::nullopt;
  }

  std::size_t degree(Node n) const { return norm.nodes[n].succ.size(); }
  Edge<Node> edge(Node n, std::size_t i) const {
    const auto& [event, target] = norm.nodes[n].succ[i];
    return {event, target};
  }
};

/// Consult the installed cache around `run`, which computes the verdict
/// fresh. Cancellation/state-limit exceptions propagate before anything is
/// stored, so only completed verdicts ever enter the cache.
template <typename Run>
CheckResult with_check_cache(Context& ctx, ProcessRef spec, ProcessRef impl,
                             CheckOp op, Model model, std::size_t max_states,
                             Run run) {
  CheckCache* const cache = check_cache();
  if (cache) {
    if (auto hit = cache->lookup_check(ctx, spec, impl, op, model, max_states)) {
      hit->from_cache = true;
      return std::move(*hit);
    }
  }
  CheckResult result = run();
  if (cache) cache->store_check(ctx, spec, impl, op, model, max_states, result);
  return result;
}

/// The refinement product sweep over pre-normalized spec and compact impl —
/// the single code path every refinement entry point bottoms out in.
CheckResult refinement_sweep(const NormLts& norm, const CompactLts& impl,
                             Model model, CancelToken* cancel) {
  CheckResult result;
  const bool with_div = model == Model::FailuresDivergences;
  std::vector<bool> impl_diverges;
  if (with_div) impl_diverges = impl.divergent_states();

  result.stats.spec_norm_nodes = norm.nodes.size();
  result.stats.impl_states = impl.state_count();
  result.stats.impl_transitions = impl.transition_count();

  const RefinementGraph g{norm, impl, with_div ? &impl_diverges : nullptr,
                          model != Model::Traces, with_div};
  SearchOutcome out = product_search(g, cancel);
  result.stats.product_states = out.visited;
  if (out.counterexample) {
    result.counterexample = std::move(out.counterexample);
    return result;
  }
  result.passed = true;

  // Vacuity: if the implementation's reachable alphabet misses every event
  // the spec constrains, the pass is trivially true — flag it rather than
  // let a broken extraction "verify". The impl side is invariant under
  // check_refinement_compiled's reductions: compression never removes an
  // event from the impl's reachable alphabet without removing it everywhere.
  const EventSet constrained = constrained_events(norm).constrained;
  if (!constrained.empty()) {
    bool touched = false;
    for (std::size_t k = 0; k < impl.events.size() && !touched; ++k) {
      const EventId e = impl.global_event(impl.events[k]);
      if (e != TAU && e != TICK && constrained.contains(e)) touched = true;
    }
    result.vacuous = !touched;
  }
  return result;
}

CheckResult refinement_uncached(Context& ctx, ProcessRef spec, ProcessRef impl,
                                Model model, std::size_t max_states,
                                CancelToken* cancel) {
  const CompactLts spec_lts = compile_or_load(ctx, spec, max_states, cancel);
  const NormLts norm =
      normalize(spec_lts, model == Model::FailuresDivergences, cancel);
  CheckResult result = refinement_sweep(
      norm, compile_or_load(ctx, impl, max_states, cancel), model, cancel);
  result.stats.spec_states = spec_lts.state_count();
  return result;
}

/// The shape the unary checks share: compile `p`, record its size, and let
/// `sweep` search its compact machine (adding any stats of its own).
template <typename Sweep>
CheckResult unary_uncached(Context& ctx, ProcessRef p, std::size_t max_states,
                           CancelToken* cancel, Sweep sweep) {
  CheckResult result;
  const CompactLts lts = compile_or_load(ctx, p, max_states, cancel);
  result.stats.impl_states = lts.state_count();
  result.stats.impl_transitions = lts.transition_count();
  SearchOutcome out = sweep(lts, result.stats);
  result.counterexample = std::move(out.counterexample);
  result.passed = !result.counterexample;
  return result;
}

}  // namespace

CheckResult check_refinement_compiled(const NormLts& norm,
                                      const CompactLts& impl, Model model,
                                      CancelToken* cancel,
                                      Compression compress) {
  if (compress == Compression::None) {
    return refinement_sweep(norm, impl, model, cancel);
  }
  // The reduced machine decides the verdict; a violation is replayed on the
  // original, so the counterexample (and its canonical tie-break) is byte
  // for byte the one Compression::None reports — FDR's "debug the
  // uncompressed process" discipline.
  CheckResult result = refinement_sweep(
      norm, compress_compact(impl, compress, nullptr, cancel), model, cancel);
  if (!result.passed) result = refinement_sweep(norm, impl, model, cancel);
  return result;
}

CheckResult check_refinement(Context& ctx, ProcessRef spec, ProcessRef impl,
                             Model model, std::size_t max_states,
                             CancelToken* cancel) {
  return with_check_cache(
      ctx, spec, impl, CheckOp::Refinement, model, max_states, [&] {
        return refinement_uncached(ctx, spec, impl, model, max_states, cancel);
      });
}

CheckResult check_deadlock_free(Context& ctx, ProcessRef p,
                                std::size_t max_states, CancelToken* cancel) {
  return with_check_cache(
      ctx, nullptr, p, CheckOp::DeadlockFree, Model::Traces, max_states, [&] {
        return unary_uncached(ctx, p, max_states, cancel,
                              [&](const CompactLts& lts, CheckStats&) {
                                return product_search(DeadlockGraph{{lts}},
                                                      cancel);
                              });
      });
}

CheckResult check_divergence_free(Context& ctx, ProcessRef p,
                                  std::size_t max_states, CancelToken* cancel) {
  return with_check_cache(
      ctx, nullptr, p, CheckOp::DivergenceFree, Model::Traces, max_states, [&] {
        return unary_uncached(
            ctx, p, max_states, cancel, [&](const CompactLts& lts, CheckStats&) {
              const std::vector<bool> diverges = lts.divergent_states();
              return product_search(DivergenceGraph{{lts}, diverges}, cancel);
            });
      });
}

CheckResult check_deterministic(Context& ctx, ProcessRef p,
                                std::size_t max_states, CancelToken* cancel) {
  return with_check_cache(
      ctx, nullptr, p, CheckOp::Deterministic, Model::Traces, max_states, [&] {
        return unary_uncached(
            ctx, p, max_states, cancel,
            [&](const CompactLts& lts, CheckStats& stats) {
              const NormLts norm =
                  normalize(lts, /*with_divergence=*/true, cancel);
              stats.spec_norm_nodes = norm.nodes.size();
              return product_search(DeterminismGraph{norm}, cancel);
            });
      });
}

TraceMembership is_trace_of(Context& ctx, ProcessRef p,
                            const std::vector<EventId>& trace,
                            std::size_t max_states) {
  const CompactLts lts = compile_or_load(ctx, p, max_states, nullptr);
  // Frontier of LTS states reachable on the consumed prefix, tau-closed.
  std::set<StateId> frontier{lts.root};
  const auto tau_close = [&](std::set<StateId>& states) {
    std::vector<StateId> work(states.begin(), states.end());
    while (!work.empty()) {
      const StateId s = work.back();
      work.pop_back();
      for (std::uint32_t k = lts.begin(s); k < lts.end(s); ++k) {
        if (lts.events[k] == lts.tau && states.insert(lts.targets[k]).second) {
          work.push_back(lts.targets[k]);
        }
      }
    }
  };
  tau_close(frontier);

  TraceMembership result;
  for (const EventId e : trace) {
    const LocalEvent le = lts.local_event(e);
    std::set<StateId> next;
    for (const StateId s : frontier) {
      for (std::uint32_t k = lts.begin(s); k < lts.end(s); ++k) {
        if (lts.events[k] == le) next.insert(lts.targets[k]);
      }
    }
    if (next.empty()) {
      std::vector<EventId> offered;
      for (const StateId s : frontier) {
        for (std::uint32_t k = lts.begin(s); k < lts.end(s); ++k) {
          if (lts.events[k] != lts.tau) {
            offered.push_back(lts.global_event(lts.events[k]));
          }
        }
      }
      result.offered = EventSet(std::move(offered));
      return result;
    }
    tau_close(next);
    frontier = std::move(next);
    ++result.accepted_prefix;
  }
  result.member = true;
  return result;
}

std::vector<std::vector<EventId>> enumerate_traces(Context& ctx, ProcessRef p,
                                                   std::size_t max_length,
                                                   std::size_t max_states) {
  const CompactLts lts = compile_or_load(ctx, p, max_states, nullptr);
  std::set<std::vector<EventId>> traces;
  // BFS over (state, trace) pairs, pruned by max_length; the visited set is
  // on pairs to keep this terminating on cyclic LTSs.
  std::set<std::pair<StateId, std::vector<EventId>>> seen;
  std::deque<std::pair<StateId, std::vector<EventId>>> frontier;
  frontier.emplace_back(lts.root, std::vector<EventId>{});
  seen.insert(frontier.front());
  traces.insert(std::vector<EventId>{});  // the empty trace
  while (!frontier.empty()) {
    auto [s, trace] = std::move(frontier.front());
    frontier.pop_front();
    for (std::uint32_t k = lts.begin(s); k < lts.end(s); ++k) {
      std::vector<EventId> next = trace;
      if (lts.events[k] != lts.tau) {
        if (trace.size() >= max_length) continue;
        next.push_back(lts.global_event(lts.events[k]));
        traces.insert(next);
      }
      auto key = std::make_pair(lts.targets[k], next);
      if (seen.insert(key).second) frontier.push_back(std::move(key));
    }
  }
  return {traces.begin(), traces.end()};
}

}  // namespace ecucsp
