// Test-suite generation from the implementation model automaton.
//
// Three strategies (ecucsp_conform --suite):
//   * random          — seeded random walks over the model;
//   * cover           — greedy transition-coverage tours (a chinese-postman
//                       style cover: BFS to the nearest uncovered edge,
//                       traverse it, repeat) guaranteeing every plannable
//                       edge is exercised;
//   * counterexamples — replay of abstract attack traces (from live spec
//                       checks and from the PR 2 verification store),
//                       bridged to concrete stimuli by the suite layer.
//
// "Plannable" edges: the harness can only *inject* frames it knows how to
// build and can only *expect* frames the node emits by itself. An edge
// whose event is neither (e.g. the extractor's consume-and-ignore self-loop
// for a message only the node itself transmits) is excluded from walks and
// from the coverage denominator — exclusions are reported, never silent.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "conform/automaton.hpp"

namespace ecucsp::conform {

struct TestCase {
  std::string name;
  std::string strategy;  // "random" | "cover" | "counterexample" | "dialogue"
  /// Planned abstract trace: stimuli the harness injects interleaved with
  /// the responses the model predicts.
  std::vector<std::string> events;
  /// Per-test harness seed (stimulus timing jitter).
  std::uint64_t seed = 0;
  /// Dialogue scenario: attach the VMG node and let it drive the exchange.
  bool dialogue = false;
  /// Fixed-time extra injections (attack frames mid-dialogue).
  std::vector<std::pair<std::uint64_t, std::string>> injections_at;
};

struct GeneratorOptions {
  std::uint64_t seed = 1;
  std::size_t tests = 16;    // random suite size
  std::size_t max_len = 12;  // random walk length cap
  /// Which edge events a planned trace may traverse (see header comment).
  std::function<bool(const std::string&)> plannable;
};

/// splitmix64 step — the repo-wide seeded stream (sim::Environment::rng
/// uses the same mixer, so seeds mean the same thing everywhere).
std::uint64_t splitmix64(std::uint64_t& state);

/// The plannable edges of `model` as (node, edge-index) pairs, sorted.
std::vector<std::pair<std::uint32_t, std::uint32_t>> plannable_edges(
    const Dfa& model, const GeneratorOptions& opt);

/// `opt.tests` seeded random walks; walk i is fully determined by
/// (opt.seed, i) and never exceeds opt.max_len events.
std::vector<TestCase> generate_random(const Dfa& model,
                                      const GeneratorOptions& opt);

/// Greedy tours covering every plannable edge reachable from the root via
/// plannable edges. Deterministic; returns as many tours as needed, each at
/// most 4 * opt.max_len events.
std::vector<TestCase> generate_cover(const Dfa& model,
                                     const GeneratorOptions& opt);

/// Map an abstract spec counterexample (event names from the hand-built
/// OTA model, e.g. "send.reqApp.forged") onto the concrete test alphabet:
/// `bridge` renames, `drop` deletes unobservable internal events, and any
/// other event makes the trace unbridgeable (nullopt) — a stored trace from
/// some unrelated model must not silently become an empty test.
std::optional<TestCase> bridge_counterexample(
    const std::vector<std::string>& trace,
    const std::map<std::string, std::string>& bridge,
    const std::set<std::string>& drop, std::string name);

/// Distinct plannable edges of `model` traversed by walking `events` from
/// the root (the walk stops at the first event with no matching edge;
/// events that label no edge of the automaton are skipped). Shared by
/// planned and observed coverage accounting.
std::set<std::pair<std::uint32_t, std::uint32_t>> covered_edges(
    const Dfa& model, const std::vector<std::string>& events);

}  // namespace ecucsp::conform
