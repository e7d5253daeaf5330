#include "learn/compile.hpp"

#include <deque>

#include "refine/minimize.hpp"

namespace ecucsp::learn {

conform::SymAutomaton to_sym_automaton(const Hypothesis& h) {
  conform::SymAutomaton a;
  a.root = h.root;
  for (std::uint32_t s = 0; s < h.state_count(); ++s) {
    for (std::size_t k = 0; k < h.alphabet.size(); ++k) {
      if (h.succ[s][k] != Hypothesis::DEAD) {
        a.add_edge(s, h.alphabet[k], h.succ[s][k]);
      }
    }
  }
  // A hypothesis may have states with no live outgoing transition; make
  // sure the automaton still carries every state.
  if (a.succ.size() < h.state_count()) a.succ.resize(h.state_count());
  a.sort_edges();
  return a;
}

namespace {

/// Append `a`'s rows to `lts`, state ids shifted by `shift`.
void add_rows(CompactBuilder& lts, Context& ctx,
              const conform::SymAutomaton& a, StateId shift) {
  for (const auto& row : a.succ) {
    for (const conform::SymEdge& e : row) {
      lts.edge(ctx.event(ctx.channel(e.event)), shift + e.target);
    }
    lts.end_state();
  }
}

}  // namespace

CompactLts to_lts(Context& ctx, const conform::SymAutomaton& a) {
  CompactBuilder lts;
  add_rows(lts, ctx, a, 0);
  return std::move(lts).finish(a.root);
}

ProcessRef to_process(Context& ctx, const conform::SymAutomaton& a,
                      const std::string& name) {
  return lts_to_process(ctx, to_lts(ctx, a), name);
}

bool strong_bisim_equivalent(const conform::SymAutomaton& a,
                             const conform::SymAutomaton& b) {
  // Disjoint union in one fresh Context (shared event interning, shifted
  // state ids for b), then one partition refinement over ALL states —
  // bisim_partition covers the whole machine, reachable or not, so both
  // roots land in blocks of the same partition.
  Context ctx;
  CompactBuilder u;
  add_rows(u, ctx, a, 0);
  const auto shift = static_cast<StateId>(a.succ.size());
  add_rows(u, ctx, b, shift);
  const std::vector<StateId> block =
      bisim_partition(std::move(u).finish(a.root));
  return block[a.root] == block[shift + b.root];
}

conform::SymAutomaton testable_projection(
    const conform::SymAutomaton& model,
    const std::function<bool(const std::string&)>& is_stimulus,
    const std::function<bool(const std::string&)>& is_response) {
  // Pass 1: per-state edge filter.
  std::vector<std::vector<conform::SymEdge>> kept(model.succ.size());
  for (std::uint32_t s = 0; s < model.succ.size(); ++s) {
    bool has_response = false;
    for (const conform::SymEdge& e : model.succ[s]) {
      if (is_response(e.event)) has_response = true;
    }
    for (const conform::SymEdge& e : model.succ[s]) {
      if (is_response(e.event)) {
        kept[s].push_back(e);
      } else if (!has_response && is_stimulus(e.event)) {
        // Stimulus edges survive only at quiescent states: with a response
        // pending, the settle discipline delivers it before any injection
        // can land, so the model's overtaking stimulus edges there are
        // unreachable for the harness.
        kept[s].push_back(e);
      }
    }
  }

  // Pass 2: reachable restriction from the root over the kept edges.
  std::vector<std::uint32_t> renumber(model.succ.size(),
                                      conform::SymAutomaton::NONE);
  std::vector<std::uint32_t> order;
  std::deque<std::uint32_t> queue{model.root};
  renumber[model.root] = 0;
  order.push_back(model.root);
  while (!queue.empty()) {
    const std::uint32_t s = queue.front();
    queue.pop_front();
    for (const conform::SymEdge& e : kept[s]) {
      if (renumber[e.target] != conform::SymAutomaton::NONE) continue;
      renumber[e.target] = static_cast<std::uint32_t>(order.size());
      order.push_back(e.target);
      queue.push_back(e.target);
    }
  }

  conform::SymAutomaton out;
  out.root = 0;
  out.succ.resize(order.size());
  for (std::uint32_t snew = 0; snew < order.size(); ++snew) {
    for (const conform::SymEdge& e : kept[order[snew]]) {
      out.add_edge(snew, e.event, renumber[e.target]);
    }
  }
  out.sort_edges();
  return out;
}

StripResult strip_ignored_self_loops(const conform::SymAutomaton& a,
                                     const std::set<std::string>& ignored) {
  StripResult out;
  out.automaton.root = a.root;
  out.automaton.succ.resize(a.succ.size());
  for (std::uint32_t s = 0; s < a.succ.size(); ++s) {
    for (const conform::SymEdge& e : a.succ[s]) {
      if (ignored.contains(e.event)) {
        if (e.target != s) out.lossless = false;
        continue;  // self-loops vanish; non-self-loops are flagged
      }
      out.automaton.add_edge(s, e.event, e.target);
    }
  }
  out.automaton.sort_edges();
  return out;
}

}  // namespace ecucsp::learn
