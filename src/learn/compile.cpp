#include "learn/compile.hpp"

#include <algorithm>
#include <deque>
#include <utility>

#include "core/context.hpp"

namespace ecucsp::learn {

namespace {

/// Append `dfa`'s rows to `out`, symbol k labelled events[k] and state ids
/// shifted by `shift`.
void add_rows(CompactBuilder& out, const conform::Dfa& dfa,
              const std::vector<EventId>& events, StateId shift) {
  std::vector<std::pair<EventId, StateId>> row;
  for (std::uint32_t n = 0; n < dfa.state_count(); ++n) {
    row.clear();
    for (std::uint32_t k = dfa.begin(n); k < dfa.end(n); ++k) {
      row.emplace_back(events[dfa.labels[k]], shift + dfa.targets[k]);
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    for (const auto& [event, target] : row) out.edge(event, target);
    out.end_state();
  }
}

/// Each name of `dfa`'s table as a field-less channel event of `ctx`.
std::vector<EventId> channel_events(Context& ctx, const conform::Dfa& dfa) {
  std::vector<EventId> out;
  out.reserve(dfa.names.size());
  for (const std::string& name : dfa.names) {
    out.push_back(ctx.event(ctx.channel(name)));
  }
  return out;
}

}  // namespace

CompactLts to_machine(const conform::Dfa& dfa,
                      const std::vector<EventId>& events) {
  CompactBuilder out;
  add_rows(out, dfa, events, 0);
  return std::move(out).finish(dfa.root);
}

bool strong_bisim_equivalent(const conform::Dfa& a, const conform::Dfa& b) {
  // Disjoint union in one fresh Context (shared event interning, shifted
  // state ids for b), then one partition refinement over ALL states —
  // bisim_partition covers the whole machine, reachable or not, so both
  // roots land in blocks of the same partition.
  Context ctx;
  CompactBuilder u;
  add_rows(u, a, channel_events(ctx, a), 0);
  const auto shift = static_cast<StateId>(a.state_count());
  add_rows(u, b, channel_events(ctx, b), shift);
  const std::vector<StateId> block =
      bisim_partition(std::move(u).finish(a.root));
  return block[a.root] == block[shift + b.root];
}

conform::Dfa testable_projection(
    const conform::Dfa& model,
    const std::function<bool(const std::string&)>& is_stimulus,
    const std::function<bool(const std::string&)>& is_response) {
  const auto name = [&model](std::uint32_t k) -> const std::string& {
    return model.names[model.labels[k]];
  };

  // Pass 1: per-state edge filter, as indices into the model's edges.
  std::vector<std::vector<std::uint32_t>> kept(model.state_count());
  for (std::uint32_t s = 0; s < model.state_count(); ++s) {
    bool has_response = false;
    for (std::uint32_t k = model.begin(s); k < model.end(s); ++k) {
      if (is_response(name(k))) has_response = true;
    }
    for (std::uint32_t k = model.begin(s); k < model.end(s); ++k) {
      // Stimulus edges survive only at quiescent states: with a response
      // pending, the settle discipline delivers it before any injection
      // can land, so the model's overtaking stimulus edges there are
      // unreachable for the harness.
      if (is_response(name(k)) || (!has_response && is_stimulus(name(k)))) {
        kept[s].push_back(k);
      }
    }
  }

  // Pass 2: reachable restriction from the root over the kept edges.
  std::vector<std::uint32_t> renumber(model.state_count(), conform::Dfa::NONE);
  std::vector<std::uint32_t> order{model.root};
  std::deque<std::uint32_t> queue{model.root};
  renumber[model.root] = 0;
  while (!queue.empty()) {
    const std::uint32_t s = queue.front();
    queue.pop_front();
    for (const std::uint32_t k : kept[s]) {
      const std::uint32_t t = model.targets[k];
      if (renumber[t] != conform::Dfa::NONE) continue;
      renumber[t] = static_cast<std::uint32_t>(order.size());
      order.push_back(t);
      queue.push_back(t);
    }
  }

  conform::DfaBuilder out(model.names);
  for (const std::uint32_t s : order) {
    for (const std::uint32_t k : kept[s]) {
      out.edge(model.labels[k], renumber[model.targets[k]]);
    }
    out.end_state();
  }
  return std::move(out).finish(0);
}

StripResult strip_ignored_self_loops(const conform::Dfa& a,
                                     const std::set<std::string>& ignored) {
  StripResult out;
  conform::DfaBuilder dfa(a.names);
  for (std::uint32_t s = 0; s < a.state_count(); ++s) {
    for (std::uint32_t k = a.begin(s); k < a.end(s); ++k) {
      if (ignored.contains(a.names[a.labels[k]])) {
        if (a.targets[k] != s) out.lossless = false;
        continue;  // self-loops vanish; non-self-loops are flagged
      }
      dfa.edge(a.labels[k], a.targets[k]);
    }
    dfa.end_state();
  }
  out.automaton = std::move(dfa).finish(a.root);
  return out;
}

}  // namespace ecucsp::learn
