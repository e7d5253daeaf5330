#include "conform/automaton.hpp"

#include <algorithm>

#include "refine/lts.hpp"
#include "refine/normalize.hpp"

namespace ecucsp::conform {

std::size_t SymAutomaton::edge_count() const {
  std::size_t n = 0;
  for (const auto& es : succ) n += es.size();
  return n;
}

const SymEdge* SymAutomaton::edge(std::uint32_t node,
                                  std::string_view event) const {
  if (node >= succ.size()) return nullptr;
  const auto& es = succ[node];
  auto it = std::lower_bound(
      es.begin(), es.end(), event,
      [](const SymEdge& e, std::string_view ev) { return e.event < ev; });
  if (it == es.end() || it->event != event) return nullptr;
  return &*it;
}

std::vector<std::string> SymAutomaton::offered(std::uint32_t node) const {
  std::vector<std::string> out;
  if (node >= succ.size()) return out;
  out.reserve(succ[node].size());
  for (const SymEdge& e : succ[node]) out.push_back(e.event);
  return out;
}

std::set<std::string> SymAutomaton::event_alphabet() const {
  std::set<std::string> out;
  for (const auto& es : succ) {
    for (const SymEdge& e : es) out.insert(e.event);
  }
  return out;
}

void SymAutomaton::add_edge(std::uint32_t from, std::string event,
                            std::uint32_t to) {
  const std::uint32_t hi = std::max(from, to);
  if (hi >= succ.size()) succ.resize(hi + 1);
  succ[from].push_back(SymEdge{std::move(event), to});
}

void SymAutomaton::sort_edges() {
  for (auto& es : succ) {
    std::sort(es.begin(), es.end(), [](const SymEdge& a, const SymEdge& b) {
      return a.event < b.event;
    });
  }
}

SymAutomaton compile_sym_automaton(Context& ctx, ProcessRef p,
                                   const EventSet& keep,
                                   std::size_t max_states,
                                   CancelToken* cancel) {
  const EventSet hidden = ctx.alphabet().set_difference(keep);
  const ProcessRef visible = hidden.empty() ? p : ctx.hide(p, hidden);
  const NormLts norm = normalize(compile_lts(ctx, visible, max_states, cancel),
                                 /*with_divergence=*/false, cancel);

  SymAutomaton out;
  out.root = norm.root;
  out.succ.resize(norm.nodes.size());
  for (std::size_t n = 0; n < norm.nodes.size(); ++n) {
    for (const auto& [event, target] : norm.nodes[n].succ) {
      if (event == TICK) continue;
      out.succ[n].push_back(SymEdge{ctx.event_name(event), target});
    }
  }
  out.sort_edges();
  return out;
}

}  // namespace ecucsp::conform
