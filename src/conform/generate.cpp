#include "conform/generate.hpp"

#include <algorithm>
#include <deque>

#include "core/rng.hpp"

namespace ecucsp::conform {

std::uint64_t splitmix64(std::uint64_t& state) {
  // Kept as a conform-namespace entry point for existing callers (suite
  // generation, replay::synthesize_log); the definition lives in core.
  return core::splitmix64(state);
}

namespace {

/// plannable-ness per edge, indexed like Dfa::labels, precomputed once per
/// generation.
std::vector<bool> plannable_mask(const Dfa& model,
                                 const GeneratorOptions& opt) {
  std::vector<bool> mask(model.edge_count());
  for (std::size_t k = 0; k < mask.size(); ++k) {
    mask[k] = !opt.plannable || opt.plannable(model.names[model.labels[k]]);
  }
  return mask;
}

}  // namespace

std::vector<std::pair<std::uint32_t, std::uint32_t>> plannable_edges(
    const Dfa& model, const GeneratorOptions& opt) {
  const auto mask = plannable_mask(model, opt);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (std::uint32_t n = 0; n < model.state_count(); ++n) {
    for (std::uint32_t k = model.begin(n); k < model.end(n); ++k) {
      if (mask[k]) out.emplace_back(n, k - model.begin(n));
    }
  }
  return out;
}

std::vector<TestCase> generate_random(const Dfa& model,
                                      const GeneratorOptions& opt) {
  const auto mask = plannable_mask(model, opt);
  std::vector<TestCase> out;
  out.reserve(opt.tests);
  for (std::size_t t = 0; t < opt.tests; ++t) {
    // Walk t is a function of (seed, t) alone, so suites are reproducible
    // and individual tests can be re-run in isolation.
    std::uint64_t rng = opt.seed ^ (0x51'7cc1'b727'220a95ULL * (t + 1));
    TestCase tc;
    tc.name = "random-" + std::to_string(t);
    tc.strategy = "random";
    tc.seed = splitmix64(rng);
    std::uint32_t node = model.root;
    for (std::size_t step = 0; step < opt.max_len; ++step) {
      std::vector<std::uint32_t> choices;
      for (std::uint32_t k = model.begin(node); k < model.end(node); ++k) {
        if (mask[k]) choices.push_back(k);
      }
      if (choices.empty()) break;
      const std::uint32_t pick =
          choices[splitmix64(rng) % choices.size()];
      tc.events.push_back(model.names[model.labels[pick]]);
      node = model.targets[pick];
    }
    out.push_back(std::move(tc));
  }
  return out;
}

std::vector<TestCase> generate_cover(const Dfa& model,
                                     const GeneratorOptions& opt) {
  const auto mask = plannable_mask(model, opt);
  const std::size_t tour_cap = std::max<std::size_t>(4 * opt.max_len, 8);
  const std::size_t states = model.state_count();

  std::vector<bool> covered(mask.size(), false);
  std::size_t uncovered = static_cast<std::size_t>(
      std::count(mask.begin(), mask.end(), true));
  const auto has_uncovered = [&](std::uint32_t n) {
    for (std::uint32_t k = model.begin(n); k < model.end(n); ++k) {
      if (mask[k] && !covered[k]) return true;
    }
    return false;
  };

  // BFS (plannable edges only) from `from` to the nearest node with an
  // uncovered outgoing edge; returns the edge path, empty if none.
  auto path_to_uncovered = [&](std::uint32_t from,
                               std::vector<std::uint32_t>& path_edges) {
    std::vector<std::uint32_t> pred_node(states, 0);
    std::vector<std::uint32_t> pred_edge(states, 0);
    std::vector<bool> seen(states, false);
    std::deque<std::uint32_t> queue{from};
    seen[from] = true;
    std::int64_t goal = -1;
    while (!queue.empty()) {
      const std::uint32_t n = queue.front();
      queue.pop_front();
      if (has_uncovered(n)) {
        goal = n;
        break;
      }
      for (std::uint32_t k = model.begin(n); k < model.end(n); ++k) {
        if (!mask[k]) continue;
        const std::uint32_t to = model.targets[k];
        if (seen[to]) continue;
        seen[to] = true;
        pred_node[to] = n;
        pred_edge[to] = k;
        queue.push_back(to);
      }
    }
    path_edges.clear();
    if (goal < 0) return false;
    for (std::uint32_t n = static_cast<std::uint32_t>(goal); n != from;
         n = pred_node[n]) {
      path_edges.push_back(pred_edge[n]);
    }
    std::reverse(path_edges.begin(), path_edges.end());
    return true;
  };

  std::vector<TestCase> out;
  std::uint64_t rng = opt.seed ^ 0xc0fe'1234'5678'9abcULL;
  while (uncovered > 0) {
    TestCase tc;
    tc.name = "cover-" + std::to_string(out.size());
    tc.strategy = "cover";
    tc.seed = splitmix64(rng);
    std::uint32_t node = model.root;
    const auto take = [&](std::uint32_t k) {
      tc.events.push_back(model.names[model.labels[k]]);
      if (!covered[k] && mask[k]) {
        covered[k] = true;
        --uncovered;
      }
      node = model.targets[k];
    };
    while (tc.events.size() < tour_cap) {
      // Traverse the connecting path, then the first uncovered edge at its
      // end; everything walked counts as covered.
      std::vector<std::uint32_t> path_edges;
      if (!path_to_uncovered(node, path_edges)) break;
      for (const std::uint32_t k : path_edges) take(k);
      std::uint32_t next = model.end(node);
      for (std::uint32_t k = model.begin(node); k < model.end(node); ++k) {
        if (mask[k] && !covered[k]) {
          next = k;
          break;
        }
      }
      if (next == model.end(node)) break;  // the path consumed them all
      take(next);
    }
    if (tc.events.empty()) break;  // remaining edges unreachable from root
    out.push_back(std::move(tc));
  }
  return out;
}

std::optional<TestCase> bridge_counterexample(
    const std::vector<std::string>& trace,
    const std::map<std::string, std::string>& bridge,
    const std::set<std::string>& drop, std::string name) {
  TestCase tc;
  tc.name = std::move(name);
  tc.strategy = "counterexample";
  for (const std::string& e : trace) {
    if (drop.contains(e)) continue;
    auto it = bridge.find(e);
    if (it == bridge.end()) return std::nullopt;
    tc.events.push_back(it->second);
  }
  if (tc.events.empty()) return std::nullopt;
  return tc;
}

std::set<std::pair<std::uint32_t, std::uint32_t>> covered_edges(
    const Dfa& model, const std::vector<std::string>& events) {
  std::vector<bool> labels_an_edge(model.names.size(), false);
  for (const std::uint32_t l : model.labels) labels_an_edge[l] = true;
  std::set<std::pair<std::uint32_t, std::uint32_t>> out;
  std::uint32_t node = model.root;
  for (const std::string& e : events) {
    const std::uint32_t symbol = model.symbol(e);
    // Attacker frames, renamed events, alphabet names on no edge.
    if (symbol == Dfa::NONE || !labels_an_edge[symbol]) continue;
    const auto first = model.labels.begin() + model.begin(node);
    const auto last = model.labels.begin() + model.end(node);
    const auto at = std::lower_bound(first, last, symbol);
    if (at == last || *at != symbol) break;  // trace left the model here
    out.insert({node, static_cast<std::uint32_t>(at - first)});
    node = model.targets[static_cast<std::size_t>(at - model.labels.begin())];
  }
  return out;
}

}  // namespace ecucsp::conform
