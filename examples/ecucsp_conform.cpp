// ecucsp_conform: model-based conformance testing of the simulated ECU.
//
//   $ ./ecucsp_conform                         # full suite, text report
//   $ ./ecucsp_conform --suite cover --json    # coverage tours, JSON report
//   $ ./ecucsp_conform --mutate 3              # seeded ECU fault injection
//
// The tool compiles the CSP model extracted from the reference CAPL ECU
// into a trace oracle, generates abstract test suites from the same
// automaton (seeded random walks, transition-coverage tours, replays of
// counterexamples from live spec checks and the verification store), then
// executes every test against the *simulated* ECU by mapping CSP events to
// CAN frames. Each observed bus trace is judged by the model oracle, the
// composed-system oracle and the Table III requirement oracles; failures
// are mapped back to CAPL handler source spans.
//
// Exit code 0 when every test passes, 1 when any fails (or times out or
// errors), 2 for usage errors. Reports are deterministic for a fixed
// --seed at any --jobs (timing fields aside).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "conform/suite.hpp"

using namespace ecucsp;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "Generates conformance tests from the OTA CSP models and runs them\n"
      "against the simulated ECU, judging every run with the spec oracle.\n"
      "  --suite S       random | cover | counterexamples | all (default all)\n"
      "  --seed N        generation + harness seed (default 1)\n"
      "  --tests N       random-suite size (default 16)\n"
      "  --max-len N     random walk length cap (default 12)\n"
      "  --jobs N        parallel test workers (0 = all cores)\n"
      "  --timeout MS    per-test wall-clock budget (default 10000)\n"
      "  --max-states N  oracle compilation state budget (default 2^20)\n"
      "  --json          machine-readable report on stdout\n"
      "  --mutate SEED   execute a seeded ECU mutant (the spec side stays\n"
      "                  faithful) -- the suite must catch it\n"
      "  --inject-alphabet-mismatch\n"
      "                  desynchronise the frame abstraction from the model\n"
      "                  alphabet; the strict model oracle must pin it\n"
      "  --cache-dir D   replay counterexamples stored by ecucsp_check\n",
      argv0);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  conform::ConformOptions opt;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    // Every value option accepts both `--opt V` and `--opt=V`.
    std::string head;
    const char* inline_value = nullptr;
    if (std::strncmp(arg, "--", 2) == 0) {
      if (const char* eq = std::strchr(arg, '=')) {
        head.assign(arg, eq);
        inline_value = eq + 1;
        arg = head.c_str();
      }
    }
    auto value = [&]() -> const char* {
      if (inline_value) return inline_value;
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    std::uint64_t n = 0;
    if (std::strcmp(arg, "--suite") == 0) {
      const char* v = value();
      if (!v) return usage(argv[0]);
      opt.suite = v;
      if (opt.suite != "random" && opt.suite != "cover" &&
          opt.suite != "counterexamples" && opt.suite != "all") {
        std::fprintf(stderr, "unknown suite '%s'\n", v);
        return usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--seed") == 0) {
      const char* v = value();
      if (!v || !parse_u64(v, opt.seed)) return usage(argv[0]);
    } else if (std::strcmp(arg, "--tests") == 0) {
      const char* v = value();
      if (!v || !parse_u64(v, n)) return usage(argv[0]);
      opt.tests = static_cast<std::size_t>(n);
    } else if (std::strcmp(arg, "--max-len") == 0) {
      const char* v = value();
      if (!v || !parse_u64(v, n) || n == 0) return usage(argv[0]);
      opt.max_len = static_cast<std::size_t>(n);
    } else if (std::strcmp(arg, "--jobs") == 0) {
      const char* v = value();
      if (!v || !parse_u64(v, n)) return usage(argv[0]);
      opt.jobs = static_cast<unsigned>(n);
    } else if (std::strcmp(arg, "--timeout") == 0) {
      const char* v = value();
      if (!v || !parse_u64(v, n) || n == 0) return usage(argv[0]);
      opt.timeout = std::chrono::milliseconds(n);
    } else if (std::strcmp(arg, "--max-states") == 0) {
      const char* v = value();
      if (!v || !parse_u64(v, n) || n == 0) return usage(argv[0]);
      opt.max_states = static_cast<std::size_t>(n);
    } else if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--mutate") == 0) {
      const char* v = value();
      if (!v || !parse_u64(v, n)) return usage(argv[0]);
      opt.mutate_seed = n;
    } else if (std::strcmp(arg, "--inject-alphabet-mismatch") == 0) {
      opt.inject_alphabet_mismatch = true;
    } else if (std::strcmp(arg, "--cache-dir") == 0) {
      const char* v = value();
      if (!v) return usage(argv[0]);
      opt.cache_dir = std::filesystem::path(v);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg);
      return usage(argv[0]);
    }
  }

  try {
    const conform::ConformReport rep = conform::run_ota_conformance(opt);
    if (json) {
      std::printf("%s\n", conform::render_json(rep).c_str());
    } else {
      std::fputs(conform::render_text(rep).c_str(), stdout);
    }
    return rep.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ecucsp_conform: %s\n", e.what());
    return 2;
  }
}
