#include "refine/normalize.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>

namespace ecucsp {

NormId NormNode::successor(EventId e) const {
  auto it = std::lower_bound(
      succ.begin(), succ.end(), e,
      [](const std::pair<EventId, NormId>& p, EventId ev) { return p.first < ev; });
  if (it == succ.end() || it->first != e) return NORM_NONE;
  return it->second;
}

namespace {

using StateSet = std::vector<StateId>;  // sorted unique

struct StateSetHash {
  std::size_t operator()(const StateSet& s) const {
    std::size_t seed = s.size();
    for (StateId v : s) {
      seed ^= v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
    }
    return seed;
  }
};

StateSet tau_closure(const CompactLts& lts, StateSet seed) {
  std::vector<StateId> stack(seed.begin(), seed.end());
  std::unordered_map<StateId, bool> in;
  for (StateId s : seed) in[s] = true;
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (std::uint32_t k = lts.begin(s); k < lts.end(s); ++k) {
      if (lts.events[k] != lts.tau) continue;
      const StateId t = lts.targets[k];
      if (!in[t]) {
        in[t] = true;
        stack.push_back(t);
      }
    }
  }
  StateSet out;
  out.reserve(in.size());
  for (const auto& [s, v] : in) {
    if (v) out.push_back(s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Keep only subset-minimal acceptance sets, in canonical (size, lex) order.
/// The order must not depend on the source machine's state numbering: it is
/// part of the normal form compared across compression levels, and it feeds
/// the determinism check's first-mismatch counterexample.
std::vector<EventSet> minimise(std::vector<EventSet> sets) {
  std::sort(sets.begin(), sets.end(),
            [](const EventSet& a, const EventSet& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return std::lexicographical_compare(a.begin(), a.end(),
                                                  b.begin(), b.end());
            });
  std::vector<EventSet> out;
  for (const EventSet& s : sets) {
    bool dominated = false;
    for (const EventSet& kept : out) {
      if (kept.subset_of(s)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.push_back(s);
  }
  // (size, lex) sorting can leave equal duplicates adjacent; subset_of
  // already filters them (a set is a subset of its duplicate).
  return out;
}

}  // namespace

NormLts normalize(const CompactLts& lts, bool with_divergence,
                  CancelToken* cancel) {
  if (cancel) cancel->poll_now();
  std::vector<bool> diverges;
  if (with_divergence) diverges = lts.divergent_states();

  NormLts norm;
  std::unordered_map<StateSet, NormId, StateSetHash> ids;
  std::deque<StateSet> frontier;

  const auto node_of = [&](StateSet closure) -> NormId {
    if (auto it = ids.find(closure); it != ids.end()) return it->second;
    const NormId id = static_cast<NormId>(norm.nodes.size());
    ids.emplace(closure, id);
    norm.nodes.emplace_back();
    frontier.push_back(std::move(closure));
    return id;
  };

  norm.root = node_of(tau_closure(lts, {lts.root}));
  // frontier entries align with node creation order; track index separately.
  NormId next = 0;
  while (next < norm.nodes.size()) {
    if (cancel) cancel->poll();
    const StateSet closure = [&] {
      const StateSet front = frontier.front();
      frontier.pop_front();
      return front;
    }();
    NormNode& node = norm.nodes[next];
    ++next;

    // Gather visible-event moves across the closure (keyed by global event
    // id, so iteration order matches the un-interned engine exactly), and
    // acceptance sets from stable members.
    std::map<EventId, StateSet> moves;
    std::vector<EventSet> acceptances;
    bool divergent = false;
    for (StateId s : closure) {
      if (with_divergence && diverges[s]) divergent = true;
      bool stable = true;
      std::vector<EventId> offered;
      for (std::uint32_t k = lts.begin(s); k < lts.end(s); ++k) {
        if (lts.events[k] == lts.tau) {
          stable = false;
          continue;
        }
        const EventId event = lts.global_event(lts.events[k]);
        moves[event].push_back(lts.targets[k]);
        offered.push_back(event);
      }
      if (stable) acceptances.push_back(EventSet(std::move(offered)));
    }
    node.divergent = divergent;
    node.min_acceptances = minimise(std::move(acceptances));

    std::vector<EventId> initials;
    std::vector<std::pair<EventId, NormId>> succ;
    for (auto& [event, targets] : moves) {
      std::sort(targets.begin(), targets.end());
      targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
      initials.push_back(event);
      succ.emplace_back(event, node_of(tau_closure(lts, std::move(targets))));
    }
    // node reference may have been invalidated by nodes.emplace_back above;
    // re-index defensively.
    NormNode& fresh = norm.nodes[next - 1];
    fresh.initials = EventSet(std::move(initials));
    fresh.succ = std::move(succ);
    fresh.divergent = divergent;
  }
  return norm;
}

EventConstraints constrained_events(const NormLts& norm) {
  EventSet allowed_union;
  EventConstraints out;
  bool first = true;
  for (const NormNode& n : norm.nodes) {
    allowed_union = allowed_union.set_union(n.initials);
    out.always_allowed = first ? n.initials
                               : out.always_allowed.set_intersection(n.initials);
    first = false;
  }
  out.constrained = allowed_union.set_difference(out.always_allowed)
                        .set_difference(EventSet{TAU, TICK});
  return out;
}

}  // namespace ecucsp
