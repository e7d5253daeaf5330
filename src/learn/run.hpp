// The OTA Learn–Check–Test pipeline: learn a model of the (possibly
// mutated) simulated ECU through the conformance harness, then run the
// R01–R05 requirement checks against the *learned* model — no CAPL source
// needed on the checking side, which is the paper's missing scenario class
// (third-party / binary-only ECUs).
//
// Determinism contract (DESIGN.md §16): the report is a pure function of
// (seed, rounds, eq_tests, max_len, mutation, ECU source). Membership
// queries are batched through the scheduler but answers are folded
// sequentially, per-run harness seeds derive from (seed, skeleton) alone,
// and the JSON deliberately carries neither jobs nor wall time (unless
// with_timing) — so reports are byte-identical at any --jobs, which CI
// diffs literally.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "conform/mutate.hpp"
#include "learn/learner.hpp"

namespace ecucsp::learn {

struct LearnRunOptions {
  std::uint64_t seed = 1;
  unsigned jobs = 0;  // scheduler workers; 0 = hardware
  /// Maximum equivalence rounds before giving up unconverged.
  std::size_t rounds = 16;
  /// Per-round equivalence tests (random walks and Sigma-words, each).
  std::size_t eq_tests = 64;
  std::size_t max_len = 12;
  /// Mutate the ECU CAPL with this seed before learning (conform/mutate).
  std::optional<std::uint64_t> mutate;
  /// On-disk store: the learned-model cache, plus counterexamples stored
  /// by ecucsp_check harvested as equivalence probes. Empty = no
  /// persistence.
  std::string cache_dir;
  std::optional<std::chrono::milliseconds> timeout;  // per refinement check
};

struct LearnCheckReport {
  std::string name;                    // R01..R05
  std::string verdict;                 // "PASS" | "FAIL" | "SKIP"
  std::string reason;                  // SKIP rationale / FAIL summary
  std::vector<std::string> counterexample;  // FAIL: impl trace, R alphabet
  /// FAIL only: the counterexample replayed through the requirement's
  /// conform::TraceOracle — "rejected@<index>" when the oracle confirms
  /// the violation (it always should; learn_mutant_test pins this).
  std::string replay;
};

struct LearnReport {
  bool ok = false;         // converged and no non-SKIP check failed
  bool converged = false;  // equivalence approximation found no cex
  std::uint64_t seed = 0;
  std::size_t rounds_used = 0;  // hypotheses built (>= 1)
  std::size_t max_rounds = 0;
  std::size_t eq_tests = 0;
  std::size_t max_len = 0;
  std::uint64_t membership_queries = 0;
  std::uint64_t harness_runs = 0;
  std::uint64_t splits = 0;
  Hypothesis hypothesis;
  std::optional<conform::MutationInfo> mutation;
  std::optional<std::uint64_t> mutation_seed;
  std::vector<LearnCheckReport> checks;
  /// Hypothesis served from the learned-model store instead of learning.
  bool from_cache = false;
  std::chrono::nanoseconds wall{0};
};

/// Learn the OTA ECU (mutated per options) and run the requirement battery
/// on the learned model.
LearnReport run_ota_learn(const LearnRunOptions& opt);

/// The learning alphabet run_ota_learn uses: the codec's concretizable
/// stimuli plus the requirement oracles' observable responses, sorted.
std::vector<std::string> ota_learning_alphabet();

std::string render_text(const LearnReport& rep);
/// learn_format:1. Deterministic: no jobs, and wall time only
/// when `with_timing`.
std::string render_json(const LearnReport& rep, bool with_timing = false);

}  // namespace ecucsp::learn
