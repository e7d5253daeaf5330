// Workload "ladder": cold checks of models with many states — the CLI user's
// case. One client, closed loop, one request outstanding.
//
// Each request is one CSPm-mode verify::CheckTask run by verify::run_task in
// a fresh Context, with ecucsp_check's defaults: a fresh in-memory store
// tier, jobs 1, threads 1, compress none. The models are the interleaved
// cyclers of models.hpp at 3^8, 3^9 and 3^10 states with channel names
// unique to the request, so no cache tier can answer. A round holds every
// rung × {[T=, [F=, deadlock free} × {PASS, FAIL} once, in a seeded order
// (about 5 s). A third of the requests sit in each rung, so the median falls
// in the middle of the 3^9 rung and the tail (p80 at most: with four rounds,
// 24 samples of the 3^10 rung, 14 of them beyond it) in the 3^10 rung.
// Set-up (about 0.1 s) builds every request's source and warms up with one
// cold 3^8 request per check kind. It runs once before the measured phase
// and is repeated after every third request (see MeasuredPhase).
#include <cstdio>
#include <map>
#include <memory>

#include "bench.hpp"
#include "cspm/eval.hpp"
#include "cspm/parser.hpp"
#include "cspm/printer.hpp"
#include "models.hpp"
#include "store/cache.hpp"
#include "verify/task.hpp"

namespace perfbench {

using namespace ecucsp;

namespace {

constexpr unsigned kRungs[] = {8, 9, 10};
constexpr CheckKind kKinds[] = {CheckKind::Traces, CheckKind::Failures,
                                CheckKind::Deadlock};
constexpr auto kTimeout = std::chrono::seconds(30);
constexpr std::size_t kMaxStates = std::size_t{1} << 22;

struct Request {
  CyclerCheck check;
  std::string tag;
};

std::vector<Request> make_round(Rng& rng, std::uint64_t& serial) {
  std::vector<Request> round;
  for (const unsigned n : kRungs) {
    for (const CheckKind k : kKinds) {
      for (const bool pass : {true, false}) {
        Request r;
        r.tag = tag36(rng.next() >> 24) + "r" + std::to_string(serial++);
        r.check = cycler_check(n, k, pass, r.tag);
        round.push_back(std::move(r));
      }
    }
  }
  rng.shuffle(round);
  return round;
}

/// The measured request as a user's `ecucsp_check` run performs it.
CheckVerdict run_untraced(const Request& r) {
  verify::CheckTask task;
  task.name = "ladder " + r.tag;
  task.sources = {r.check.source};
  task.assertion_index = 0;
  task.timeout = kTimeout;
  task.max_states = kMaxStates;
  store::VerificationCache cache;  // ecucsp_check's default memory tier
  const ScopedCheckCache installed(&cache);
  CancelToken token;
  token.set_timeout(kTimeout);
  return verdict_of(verify::run_task(task, token));
}

/// The same request split into its public calls, one span each.
CheckVerdict run_traced(const Request& r) {
  CheckVerdict v;
  auto cache = std::make_unique<store::VerificationCache>();
  {
    const ScopedCheckCache installed(cache.get());
    const bool refinement = r.check.kind != CheckKind::Deadlock;
    // Unary checks have no compiled entry point: the forwarding store
    // compiles on their LTS miss, under the request's token, and hands the
    // machine back.
    ForwardingCache timed(*cache);
    const ScopedCheckCache over(&timed);
    CancelToken token;
    token.set_timeout(kTimeout);
    const CancelScope cancel(token);
    auto ctx = std::make_unique<Context>();
    auto ev = std::make_unique<cspm::Evaluator>(*ctx);
    auto machines = std::make_unique<RefinementMachines>();
    try {
      std::string description;
      Model model = Model::Traces;
      std::optional<cspm::AssertionTerms> terms;
      {
        const Span s("cspm.load");
        cspm::Script script = cspm::parse_cspm(r.check.source);
        const cspm::AssertionAst& a = script.assertions.at(0);
        if (refinement) {
          model = a.kind == cspm::AssertionAst::Kind::RefinesT
                      ? Model::Traces
                      : Model::Failures;
          description = cspm::print_expr(*a.lhs) + " [" + to_string(model) +
                        "= " + cspm::print_expr(*a.rhs);
        }
        ev->load(std::move(script));
        if (refinement) {
          terms = ev->assertion_terms(0);
        } else {
          ev->process(kImplName);  // memoised: check_assertion reuses it
        }
      }
      verify::RenderedCheck rc;
      if (refinement) {
        rc = verify::render(
            *ctx, traced_refinement(*ctx, terms->spec, terms->impl, model,
                                    kMaxStates, &token, *machines));
      } else {
        cspm::AssertionResult ar;
        {
          const Span s("refine.check");
          ar = ev->check_assertion(0, kMaxStates, &token);
        }
        description = ar.description;
        rc = verify::render(*ctx, std::move(ar.result));
      }
      v.completed = true;
      v.passed = rc.result.passed;
      if (!rc.counterexample.empty()) {
        v.counterexample = description + ": " + rc.counterexample;
      }
    } catch (const std::exception& e) {
      v.error = e.what();
    }
    const Span s("core.teardown");
    machines.reset();
    ev.reset();
    ctx.reset();
  }
  const Span s("core.teardown");
  cache.reset();
  return v;
}

const char* rung_label(unsigned cyclers) {
  switch (cyclers) {
    case 8:
      return "3^8";
    case 9:
      return "3^9";
    default:
      return "3^10";
  }
}

std::string check(const Request& r, const CheckVerdict& v) {
  const std::string what = std::to_string(r.check.cyclers) + " cyclers " +
                           to_string(r.check.kind) +
                           (r.check.pass ? " PASS" : " FAIL");
  if (!v.completed) return what + ": " + v.error;
  if (v.passed != r.check.pass) {
    return what + ": got " + (v.passed ? "PASS" : "FAIL");
  }
  if (!r.check.pass && trace_length(v.counterexample) != r.check.cx_length) {
    return what + ": counterexample length " +
           std::to_string(trace_length(v.counterexample).value_or(0)) +
           " != " + std::to_string(r.check.cx_length) + " (" +
           v.counterexample + ")";
  }
  return "";
}

}  // namespace

RunResult run_ladder(const Options& opt, Failures& fail) {
  RunResult out;
  // Mix (see the file comment): the tail may not rise into a percentile
  // whose beyond-set would leave the 3^10 rung.
  out.tail_cap = 0.8;
  const std::size_t rounds = units_for(opt, 5.0, 3);

  const auto prepare = [&] {
    // Input generation: every request's source, built before timing.
    Rng rng(opt.seed);
    std::uint64_t serial = 0;
    std::vector<std::vector<Request>> pool;
    for (std::size_t i = 0; i < rounds; ++i) {
      pool.push_back(make_round(rng, serial));
    }
    // Warm-up: one cold request per check kind at the smallest rung, with
    // its own channel names.
    for (const CheckKind k : kKinds) {
      Request w;
      w.tag = "warm" + std::to_string(out.setup_s.size());
      w.check = cycler_check(kRungs[0], k, false, w.tag);
      const CheckVerdict v = run_untraced(w);
      if (const std::string why = check(w, v); !why.empty()) {
        throw std::runtime_error("warm-up: " + why);
      }
    }
    return pool;
  };
  std::vector<std::vector<Request>> pool;
  time_setup(out, [&] { pool = prepare(); });
  const std::size_t total = rounds * pool.at(0).size();
  constexpr std::size_t kSetupRepeats = 24;

  std::map<std::string, std::string> verdicts;  // request tag -> verdict
  std::uint64_t id = 0;
  {
    CpuRotation rotation(1);
    MeasuredPhase phase(opt, out);
    for (std::size_t round = 0; round < rounds; ++round) {
      if (phase.elapsed_ns() > time_cap_ns(opt)) {
        out.notes.push_back("time cap reached after " + std::to_string(round) +
                            " of " + std::to_string(rounds) + " rounds");
        break;
      }
      for (const Request& r : pool[round]) {
        ++id;
        rotation.next();
        const std::int64_t t0 = now_ns();
        CheckVerdict v;
        {
          const RequestScope scope(id);
          v = opt.trace ? run_traced(r) : run_untraced(r);
        }
        const std::string why = check(r, v);
        const std::int64_t t1 = now_ns();
        record_request(id, t0, t1, rung_label(r.check.cyclers));
        ++out.attempted;
        if (!why.empty()) fail.add(why);
        out.add_latency(work_label(r.check), t0, t1);
        verdicts[r.tag] = (v.passed ? "PASS " : "FAIL ") + v.counterexample;
        if (setup_due(id, total, kSetupRepeats)) phase.setup(prepare);
      }
    }
  }
  set_verdicts(out, verdicts);
  return out;
}

}  // namespace perfbench
