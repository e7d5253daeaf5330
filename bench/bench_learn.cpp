// Active-learning throughput bench: membership queries/sec and harness
// runs/sec of the Learn–Check–Test loop across equivalence budgets.
//
// Coherence is the gate, speed is the record:
//   * hypothesis-equivalence coherence — every converged run's hypothesis
//     (ignored self-loops stripped) must be strong-bisimulation-equivalent
//     to the testable projection of the white-box model automaton, at
//     every equivalence budget and at every parallelism;
//   * report coherence — the learn_format:1 JSON is byte-identical at
//     jobs=1 and jobs=4;
//   * mutation adequacy — the DropGuard mutant's learned model must fail a
//     requirement check.
// Throughput (queries/sec) is reported but not gated.
//
// Usage: bench_learn [repeat] [out.json]
// Writes a machine-readable report (default BENCH_learn.json).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "can/dbc.hpp"
#include "conform/harness.hpp"
#include "conform/requirements.hpp"
#include "learn/compile.hpp"
#include "learn/run.hpp"
#include "ota/ota.hpp"

using namespace ecucsp;

int main(int argc, char** argv) {
  std::size_t repeat = 3;
  const char* out_path = "BENCH_learn.json";
  if (argc > 1) {
    repeat = static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10));
  }
  if (argc > 2) out_path = argv[2];
  if (repeat == 0) repeat = 1;

  // The equivalence fixpoint every converged run must land on.
  const can::DbcDatabase db = can::parse_dbc(std::string(ota::ota_dbc_text()));
  const conform::FrameCodec codec = conform::ota_codec(db);
  const conform::TraceOracle model = conform::ota_model_oracle();
  const conform::SymAutomaton projection = learn::testable_projection(
      model.automaton,
      [&codec](const std::string& e) {
        return codec.concretize(e).has_value();
      },
      [](const std::string& e) { return e.starts_with("rec."); });

  struct Config {
    std::size_t eq_tests;
    std::size_t max_len;
  };
  const std::vector<Config> configs = {{16, 8}, {64, 12}, {128, 16}};

  bool equivalence_ok = true;
  std::string results;
  for (const Config& c : configs) {
    std::uint64_t queries = 0, runs = 0;
    std::size_t rounds = 0, states = 0;
    double secs = 0;
    for (std::size_t i = 0; i < repeat; ++i) {
      learn::LearnRunOptions opt;
      opt.seed = 1 + i;  // fresh seed per repetition, same fixpoint
      opt.eq_tests = c.eq_tests;
      opt.max_len = c.max_len;
      const auto t0 = std::chrono::steady_clock::now();
      const learn::LearnReport rep = learn::run_ota_learn(opt);
      secs += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
      queries += rep.membership_queries;
      runs += rep.harness_runs;
      rounds += rep.rounds_used;
      states = rep.hypothesis.state_count();
      if (!rep.converged || !rep.ok) {
        equivalence_ok = false;
        std::printf("  NOT SECURE at eq_tests=%zu seed=%llu\n", c.eq_tests,
                    static_cast<unsigned long long>(opt.seed));
        continue;
      }
      const learn::StripResult stripped = learn::strip_ignored_self_loops(
          learn::to_sym_automaton(rep.hypothesis), model.ignored);
      if (!stripped.lossless ||
          !learn::strong_bisim_equivalent(stripped.automaton, projection)) {
        equivalence_ok = false;
        std::printf("  EQUIVALENCE MISMATCH at eq_tests=%zu seed=%llu\n",
                    c.eq_tests, static_cast<unsigned long long>(opt.seed));
      }
    }
    const double qps = secs > 0 ? static_cast<double>(queries) / secs : 0;
    const double rps = secs > 0 ? static_cast<double>(runs) / secs : 0;
    if (!results.empty()) results += ',';
    char buf[224];
    std::snprintf(buf, sizeof(buf),
                  "\n  {\"eq_tests\":%zu,\"max_len\":%zu,\"runs\":%zu,"
                  "\"rounds\":%zu,\"states\":%zu,\"queries\":%llu,"
                  "\"harness_runs\":%llu,\"wall_ms\":%.1f,"
                  "\"queries_per_sec\":%.0f,\"harness_runs_per_sec\":%.0f}",
                  c.eq_tests, c.max_len, repeat, rounds, states,
                  static_cast<unsigned long long>(queries),
                  static_cast<unsigned long long>(runs), secs * 1e3, qps, rps);
    results += buf;
    std::printf(
        "  eq_tests=%-4zu max_len=%-3zu %8.1f ms  %7.0f queries/s  "
        "%7.0f harness runs/s\n",
        c.eq_tests, c.max_len, secs * 1e3, qps, rps);
  }

  // Parallel report coherence: byte-identical JSON at different jobs.
  bool coherence_ok = true;
  {
    learn::LearnRunOptions a;
    a.jobs = 1;
    learn::LearnRunOptions b;
    b.jobs = 4;
    if (learn::render_json(learn::run_ota_learn(a)) !=
        learn::render_json(learn::run_ota_learn(b))) {
      coherence_ok = false;
      std::printf("  REPORT MISMATCH jobs=1 vs jobs=4\n");
    }
  }

  // Mutation adequacy: the DropGuard mutant must be caught.
  bool mutant_ok = false;
  {
    learn::LearnRunOptions opt;
    opt.mutate = 1;
    const learn::LearnReport rep = learn::run_ota_learn(opt);
    if (rep.converged && !rep.ok) {
      for (const learn::LearnCheckReport& c : rep.checks) {
        if (c.verdict == "FAIL" && c.replay.starts_with("rejected@")) {
          mutant_ok = true;
        }
      }
    }
  }
  std::printf("mutant kill: %s\n", mutant_ok ? "ok" : "FAILED");

  const bool ok = equivalence_ok && coherence_ok && mutant_ok;
  std::string json = "{\"bench\":\"learn\"";
  json += ",\"repeat\":" + std::to_string(repeat);
  json += ",\"configs\":[" + results + "\n ]";
  json += ",\"equivalence_ok\":";
  json += equivalence_ok ? "true" : "false";
  json += ",\"coherence_ok\":";
  json += coherence_ok ? "true" : "false";
  json += ",\"mutant_ok\":";
  json += mutant_ok ? "true" : "false";
  json += ",\"ok\":";
  json += ok ? "true" : "false";
  json += "}\n";
  std::ofstream out(out_path, std::ios::trunc);
  out << json;
  std::printf("wrote %s (%s)\n", out_path, ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
