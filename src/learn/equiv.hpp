// Equivalence queries for the learning loop.
//
// A true equivalence oracle does not exist for a black box; this layer
// offers the two approximations the Learn–Check–Test loop runs on:
//
//   * approximate_counterexample — conformance-suite testing against the
//     current hypothesis: seeded random walks and a cover suite over the
//     hypothesis automaton (probing for traces the target rejects), seeded
//     random Sigma-words (probing beyond the hypothesis language), plus
//     caller-supplied words such as store-harvested attack counterexamples.
//     Deterministic per (seed, round); the returned counterexample is the
//     shortest mismatching prefix of the first mismatching word in a fixed
//     evaluation order, so hypotheses evolve identically at any
//     parallelism.
//   * exact_counterexample — a product-automaton BFS against a known
//     target automaton (shortest mismatch, lexicographically smallest
//     among shortest). Only available white-box; the differential battery
//     uses it to drive learning to *guaranteed* convergence and then
//     cross-checks the approximate path against it.
#pragma once

#include <optional>
#include <vector>

#include "conform/automaton.hpp"
#include "learn/learner.hpp"
#include "learn/oracle.hpp"

namespace ecucsp::learn {

struct EquivOptions {
  std::uint64_t seed = 1;
  /// Mixed into every suite seed so each equivalence round explores fresh
  /// words while staying reproducible.
  std::size_t round = 0;
  /// Random-walk tests over the hypothesis and random Sigma-words, each.
  std::size_t tests = 64;
  std::size_t max_len = 12;
  /// Extra words tested first (store-harvested counterexamples, bridged
  /// into the learning alphabet).
  std::vector<Word> extra;
};

/// Search for a word on which oracle and hypothesis disagree; nullopt when
/// the whole suite agrees (the loop's convergence signal). Prefetches the
/// entire suite through the oracle before judging, so membership traffic
/// is batched while the verdict fold stays sequential.
std::optional<Word> approximate_counterexample(MembershipOracle& oracle,
                                               const Hypothesis& hypothesis,
                                               const EquivOptions& opt);

/// Shortest word accepted by exactly one of target / hypothesis (walk
/// semantics, every state accepting), lexicographically smallest among the
/// shortest; nullopt when the automata are language-equivalent. `alphabet`
/// must be sorted.
std::optional<Word> exact_counterexample(
    const conform::Dfa& target, const conform::Dfa& hyp,
    const std::vector<std::string>& alphabet);

}  // namespace ecucsp::learn
