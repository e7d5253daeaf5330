// The OTA conformance suite: the tentpole's top layer.
//
// run_ota_conformance wires everything together for the X.1373 case study:
//   1. parse the reference CAPL + CANdb sources (src/ota);
//   2. extract the ECU implementation model (faithful source — the spec
//      side must not inherit an injected fault) and compile it to a
//      portable Dfa, which doubles as the strict model oracle and
//      the test-generation model;
//   3. build the R01-R05 requirement oracles by hand and the composed
//      VMG+ECU system oracle from extract_system;
//   4. generate the selected suites (random walks, coverage tours,
//      counterexample replays scavenged from live spec checks and the
//      PR 2 verification store, plus the fixed dialogue scenarios);
//   5. execute every test as a custom CheckTask on the PR 1 scheduler
//      (parallel, per-test timeout, cooperative cancellation) against the
//      possibly-mutated ECU;
//   6. judge each observed trace with every applicable oracle, map
//      failures back to CAPL handler spans, and account transition
//      coverage of the implementation automaton.
//
// Reports are deterministic for a fixed --seed at any --jobs: generation
// happens before scheduling, every test is a pure function of plain shared
// data plus its own seed, and outcomes come back in submission order.
// Only the wall-clock fields vary; render_json(.., with_timing=false)
// omits them for byte-exact comparison.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

namespace ecucsp::conform {

struct ConformOptions {
  std::string suite = "all";  // random | cover | counterexamples | all
  std::uint64_t seed = 1;
  std::size_t tests = 16;    // random-suite size
  std::size_t max_len = 12;  // random walk length cap
  unsigned jobs = 0;         // 0 = hardware concurrency
  std::chrono::milliseconds timeout{10'000};  // per test
  std::size_t max_states = 1u << 20;
  /// Seeded ECU fault injection (mutate.hpp); the spec side stays faithful.
  std::optional<std::uint64_t> mutate_seed;
  /// Desynchronise the frame abstraction from the model alphabet — the
  /// strict model oracle must pin this as a failure.
  bool inject_alphabet_mismatch = false;
  /// PR 2 verification-store directory to scavenge counterexamples from.
  std::optional<std::filesystem::path> cache_dir;
};

struct ConformTestReport {
  std::string name;
  std::string strategy;
  std::string status;  // PASS | FAIL | TIMEOUT | CANCELLED | STATELIMIT | ERROR
  std::vector<std::string> planned;
  std::vector<std::string> observed;
  // Failure details (status FAIL):
  std::string oracle;  // first rejecting oracle
  std::int64_t divergence_index = -1;
  std::string divergence_event;
  std::vector<std::string> offered;
  std::string reason;
  std::vector<std::string> capl_spans;  // source spans of the divergence
  std::string error;                    // ERROR diagnostic
  double wall_ms = 0.0;
};

struct ConformReport {
  std::string suite;
  std::uint64_t seed = 0;
  unsigned jobs = 0;
  // Implementation-model automaton:
  std::size_t model_states = 0;
  std::size_t model_transitions = 0;
  std::size_t plannable_transitions = 0;  // coverage denominator
  // Distinct plannable transitions covered:
  std::size_t planned_covered = 0;
  std::size_t observed_covered = 0;
  // Outcome tally:
  std::size_t passed = 0;
  std::size_t failed = 0;
  std::size_t timed_out = 0;
  std::size_t errors = 0;
  /// Stored traces that could not be bridged to the concrete alphabet.
  std::size_t skipped_counterexamples = 0;
  std::string mutation;       // description when mutate_seed is set
  std::string mutation_span;  // "ECU:line:col (handler)"
  double wall_ms = 0.0;
  std::vector<ConformTestReport> tests;

  bool ok() const {
    return !tests.empty() && failed == 0 && errors == 0 && timed_out == 0;
  }
  double planned_coverage_pct() const;
  double observed_coverage_pct() const;
};

ConformReport run_ota_conformance(const ConformOptions& opt);

std::string render_text(const ConformReport& r);
/// Machine-readable report ("conform_format": 2). with_timing=false omits
/// every wall-clock field so reports compare byte-for-byte across runs.
std::string render_json(const ConformReport& r, bool with_timing = true);

}  // namespace ecucsp::conform
