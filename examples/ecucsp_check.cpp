// ecucsp_check: a command-line refinement checker — the library's stand-in
// for invoking FDR on a .csp file, now with FDR-cluster-style batching and
// a persistent verification cache.
//
//   $ ./ecucsp_check model.csp [more.csp ...]         # one worker
//   $ ./ecucsp_check --jobs 8 model.csp [more.csp...] # eight workers
//   $ ./ecucsp_check --jobs 8 --matrix                # built-in OTA R01-R05
//                                                     #   x attacker matrix
//   $ ./ecucsp_check --matrix --cache-dir .ecucsp-cache --cache-stats
//
// Every 'assert' of the given scripts becomes one CSPm-mode CheckTask on
// the batch scheduler: the task loads all scripts into its own fresh
// Context (so an extracted implementation model and a hand-written
// specification file can be checked together) and runs exactly that
// assertion, which is safe because Contexts are never shared across tasks
// (core/context.hpp) and scripts are pure declarations. --matrix instead
// runs the paper's Table III requirement suite against all three attacker
// models. Either way the output is one batch report, and --timeout,
// --prune and --max-states mean the same at every --jobs count. Exit code
// 0 iff all checks come out as expected.
//
// Caching: --cache-dir DIR (or the ECUCSP_CACHE_DIR environment variable)
// installs a persistent content-addressed store consulted by every check;
// a rerun of unchanged models serves each verdict from disk without any
// state-space exploration. An in-memory tier is always installed so
// repeated sub-terms within one run compile once even without a directory;
// --no-cache disables both.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "cspm/eval.hpp"
#include "lint/lint.hpp"
#include "store/cache.hpp"
#include "verify/ota_batch.hpp"
#include "verify/scheduler.hpp"

using namespace ecucsp;

namespace {

int report(const verify::BatchResult& batch) {
  int unexpected = 0;
  std::size_t cached = 0;
  for (const verify::TaskOutcome& o : batch.outcomes) {
    if (o.cached) ++cached;
    std::printf("check %-58.58s %s  (%zu states, %.1f ms)%s%s%s%s\n",
                o.name.c_str(),
                std::string(verify::to_string(o.status)).c_str(),
                o.stats.impl_states, o.wall.count() / 1e6,
                o.cached ? "  (cached)" : "",
                o.pruned ? "  (pruned)" : "",
                o.vacuous ? "  VACUOUS" : "",
                o.as_expected() ? "" : "  UNEXPECTED");
    if (o.vacuous) {
      std::printf(
          "  warning: vacuous pass — the implementation never reaches any "
          "event this spec constrains\n");
    }
    if (!o.counterexample.empty()) std::printf("  %s\n", o.counterexample.c_str());
    if (!o.error.empty()) std::printf("  %s\n", o.error.c_str());
    if (!o.as_expected()) ++unexpected;
  }
  std::printf(
      "%zu check(s): %zu passed, %zu failed, %zu timed out, %zu error(s), "
      "%zu cached; wall %.1f ms, cpu %.1f ms, speedup %.2fx\n",
      batch.outcomes.size(), batch.count(verify::TaskStatus::Passed),
      batch.count(verify::TaskStatus::Failed),
      batch.count(verify::TaskStatus::TimedOut),
      batch.count(verify::TaskStatus::Error) +
          batch.count(verify::TaskStatus::StateLimit),
      cached, batch.wall.count() / 1e6, batch.cpu.count() / 1e6,
      batch.speedup());
  return unexpected == 0 ? 0 : 1;
}

void print_cache_stats(const store::VerificationCache& cache) {
  const store::CacheStats& s = cache.stats();
  std::printf(
      "cache: %llu verdict hit(s), %llu verdict miss(es), %llu LTS hit(s), "
      "%llu LTS miss(es), %llu store(s), %llu decode failure(s)\n",
      static_cast<unsigned long long>(s.verdict_hits.load()),
      static_cast<unsigned long long>(s.verdict_misses.load()),
      static_cast<unsigned long long>(s.lts_hits.load()),
      static_cast<unsigned long long>(s.lts_misses.load()),
      static_cast<unsigned long long>(s.stores.load()),
      static_cast<unsigned long long>(s.decode_failures.load()));
  std::printf("cache: %llu from memory, %llu from disk\n",
              static_cast<unsigned long long>(s.memory_hits.load()),
              static_cast<unsigned long long>(s.disk_hits.load()));
  if (const store::ObjectStore* disk = cache.disk()) {
    const store::ObjectStoreStats& d = disk->stats();
    std::printf(
        "cache: disk dir %s: %llu read(s) (%llu bytes), %llu write(s) "
        "(%llu bytes), %llu corrupt object(s) dropped\n",
        disk->dir().string().c_str(),
        static_cast<unsigned long long>(d.hits.load()),
        static_cast<unsigned long long>(d.bytes_read.load()),
        static_cast<unsigned long long>(d.puts.load()),
        static_cast<unsigned long long>(d.bytes_written.load()),
        static_cast<unsigned long long>(d.corrupt_dropped.load()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool matrix = false;
  bool no_cache = false;
  bool cache_stats = false;
  bool no_lint = false;
  bool inject_mismatch = false;
  bool prune = false;
  unsigned jobs = 1;
  std::optional<std::chrono::milliseconds> timeout;
  std::size_t max_states = 1u << 22;
  std::size_t dilation = 0;
  std::optional<std::filesystem::path> cache_dir;
  std::vector<std::string> paths;

  // Read once at startup before any thread exists, so the mt-unsafety of
  // getenv cannot bite.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("ECUCSP_CACHE_DIR"); env && *env) {
    cache_dir = env;
  }

  const cli::Tool tool{
      .synopsis = {"[options] <script.csp> [script2.csp ...]",
                   "[options] --matrix"},
      .about = "Runs every 'assert' in the given CSPm scripts, or the "
               "built-in OTA requirement x attacker matrix.",
      .options =
          {cli::number("--jobs", "N",
                       "run checks on N workers (0 = all cores; default 1)",
                       jobs, 0, cli::kMaxJobs),
           cli::number("--timeout", "MS",
                       "per-check wall-clock budget in milliseconds",
                       [&](std::uint64_t ms) {
                         timeout = std::chrono::milliseconds(ms);
                       },
                       0, cli::kMaxTimeoutMs),
           cli::number("--max-states", "N",
                       "per-check state budget (default 2^22)", max_states),
           cli::number("--dilate", "K",
                       "(--matrix) interleave K hidden cyclers per cell, "
                       "growing each state space ~3^K without changing "
                       "verdicts",
                       dilation, 0, 64),
           cli::value("--cache-dir", "D",
                      "persist verdicts and compiled LTSes under D (default: "
                      "$ECUCSP_CACHE_DIR if set)",
                      [&](std::string_view d) { cache_dir = d; }),
           cli::flag("--no-cache", "disable the verification cache entirely",
                     no_cache),
           cli::flag("--cache-stats", "print cache counters after the run",
                     cache_stats),
           cli::flag("--matrix",
                     "run the built-in OTA requirement x attacker matrix",
                     matrix),
           cli::flag("--no-lint",
                     "skip the fail-fast static-analysis pre-flight over the "
                     "input scripts",
                     no_lint),
           cli::flag("--inject-alphabet-mismatch",
                     "(--matrix) fault injection: rename the system under "
                     "test onto a primed alphabet so passing cells become "
                     "vacuous, which exercises the vacuity detector",
                     inject_mismatch),
           cli::choice("--prune", "M",
                       "static pruning of vacuous-PASS cells (default none). "
                       "'static' certifies cells whose implementation can "
                       "never reach a constrained event and skips their "
                       "exploration; verdicts and vacuity flags are "
                       "byte-identical to an unpruned run, and pruned cells "
                       "are marked (pruned)",
                       {"none", "static"},
                       [&](std::string_view m) { prune = m == "static"; })},
      .positional = [&](std::string_view p) { paths.emplace_back(p); },
  };

  return cli::run(argc, argv, tool, [&]() -> int {
    if (!matrix && paths.empty()) {
      throw cli::UsageError("no input scripts (give some, or --matrix)");
    }

    // The cache outlives the scheduler (workers may still be storing
    // results while the batch drains), and Scoped installation guarantees
    // the global hook never dangles past the run.
    std::optional<store::VerificationCache> cache;
    std::optional<ScopedCheckCache> installed;
    if (!no_cache) {
      cache.emplace(cache_dir);
      installed.emplace(&*cache);
    }

    // Fail-fast pre-flight: undefined names, misused channels and vacuous
    // assertion shapes are reported before any LTS is compiled.
    if (!no_lint && !paths.empty()) {
      lint::LintRequest lreq;
      for (const std::string& p : paths) {
        lreq.cspm.push_back({p, cli::read_file(p)});
      }
      const lint::LintReport rep = lint::run_lint(lreq);
      if (!rep.diagnostics.empty()) {
        std::fputs(lint::render_text(rep.diagnostics, rep.sources).c_str(),
                   stderr);
      }
      if (rep.has_errors()) {
        std::fprintf(stderr,
                     "error: lint found %s; fix the scripts or rerun with "
                     "--no-lint\n",
                     lint::summary_line(rep.diagnostics).c_str());
        return 2;
      }
    }

    std::vector<verify::CheckTask> tasks;
    if (matrix) {
      verify::OtaMatrixOptions opts;
      opts.timeout = timeout;
      opts.max_states = max_states;
      opts.dilation = dilation;
      opts.inject_alphabet_mismatch = inject_mismatch;
      opts.prune = prune;
      tasks = verify::ota_requirement_matrix(opts);
      for (verify::CheckTask& t : verify::ota_extended_batch(opts)) {
        tasks.push_back(std::move(t));
      }
    } else {
      // One task per assertion. Count the assertions with a throwaway
      // evaluator first; a script that does not load stops here.
      std::vector<std::string> sources;
      for (const std::string& p : paths) sources.push_back(cli::read_file(p));
      std::size_t n_asserts = 0;
      {
        Context ctx;
        cspm::Evaluator ev(ctx);
        for (const std::string& s : sources) ev.load_source(s);
        n_asserts = ev.assertion_count();
      }
      if (n_asserts == 0) {
        std::printf("no assertions found\n");
        return 0;
      }
      tasks.resize(n_asserts);
      for (std::size_t i = 0; i < n_asserts; ++i) {
        tasks[i].name = "assert #" + std::to_string(i + 1);
        tasks[i].sources = sources;
        tasks[i].assertion_index = i;
        tasks[i].timeout = timeout;
        tasks[i].max_states = max_states;
        tasks[i].prune = prune;
        // A user assertion is expected to hold, so a failure, timeout or
        // state limit drives the exit code.
        tasks[i].expected = true;
      }
    }

    verify::VerifyScheduler sched({.jobs = jobs});
    if (matrix) {
      std::printf("OTA requirement x attacker matrix on %u worker(s)\n",
                  sched.jobs());
    } else {
      std::printf("%zu assertion(s) on %u worker(s)\n", tasks.size(),
                  sched.jobs());
    }
    const int exit_code = report(sched.run(tasks));
    if (cache_stats && cache) print_cache_stats(*cache);
    return exit_code;
  });
}
