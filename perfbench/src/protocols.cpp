// Workload "protocols": the paper's own security checks, serially, one check
// per request, each in a fresh Context.
//
// The checks are the Table III matrix of verify::ota_requirement_matrix —
// R01..R05 against no attacker, the MAC ECU and the open ECU — at dilation 6,
// plus Lowe's attack on Needham-Schroeder (security::build_nspk(false) with
// the precedence witness, which fails with the man-in-the-middle trace) and
// the fixed protocol NSL (build_nspk(true), which passes). Here compile_lts
// spends its time expanding the Dolev-Yao intruder's terms, and five checks
// build counterexamples. A round runs the matrix twelve times and each
// protocol once, in a seeded order (about 13 s); the 180 cells outnumber the
// two protocol checks so that both the median and the tail (p90 at most)
// fall among the cells: the median among the cells without the open ECU,
// the tail among the open-ECU cells, which hold the top 20% of requests.
// Set-up (about 0.4 s) builds the matrix tasks and warms up with the five
// open-ECU cells. It runs once before the measured phase and is repeated
// six times at even intervals inside it (see MeasuredPhase).
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "ota/ota.hpp"
#include "security/nspk.hpp"
#include "security/properties.hpp"
#include "verify/ota_batch.hpp"
#include "verify/task.hpp"

namespace perfbench {

using namespace ecucsp;

namespace {

constexpr std::size_t kDilation = 6;
constexpr auto kTimeout = std::chrono::seconds(60);
constexpr std::size_t kMaxStates = std::size_t{1} << 22;
// Matrix passes per protocol pair: keeps NSPK and NSL under 5% of requests,
// beyond the highest tail percentile this workload reports (p90).
constexpr int kMatrixRepeats = 12;

// The paper's Table III verdicts, row-major as ota_requirement_matrix
// orders its cells: {R01..R05} x {no attacker, MAC ECU, open ECU}.
constexpr const char* kRequirements[] = {"R01", "R02", "R03", "R04", "R05"};
constexpr verify::AttackerVariant kVariants[] = {
    verify::AttackerVariant::None, verify::AttackerVariant::MacEcu,
    verify::AttackerVariant::UnprotectedEcu};
constexpr bool kTable3[5][3] = {
    {true, false, false},  // R01: an injector can always speak first
    {true, true, true},    // R02
    {true, true, false},   // R03: the open ECU installs forged updates
    {true, true, true},    // R04
    {true, true, false},   // R05: the MAC argument, and its failure
};

enum class Kind { Cell, Nspk, Nsl };

struct Request {
  Kind kind = Kind::Cell;
  int row = 0;  // Cell: requirement index
  int col = 0;  // Cell: attacker variant index
  std::string name() const {
    if (kind == Kind::Nspk) return "NSPK";
    if (kind == Kind::Nsl) return "NSL";
    return std::string(kRequirements[row]) + " / " +
           std::string(verify::to_string(kVariants[col]));
  }
  bool expected() const {
    if (kind == Kind::Nspk) return false;
    if (kind == Kind::Nsl) return true;
    return kTable3[row][col];
  }
};

verify::CheckTask nspk_task(bool lowe_fix) {
  verify::CheckTask t;
  t.name = lowe_fix ? "NSL" : "NSPK";
  t.timeout = kTimeout;
  t.custom = [lowe_fix](CancelToken& token) {
    token.poll_now();
    auto sys = security::build_nspk(lowe_fix);
    return verify::render(
        sys->ctx, security::check_precedence_witness(
                      sys->ctx, sys->system, sys->running_ab, sys->commit_ba,
                      kMaxStates, &token));
  };
  return t;
}

/// verify/ota_batch.cpp's dilation, rebuilt from the public Context API so
/// the traced run can hand the very same terms to each layer.
ProcessRef dilate(Context& ctx, ProcessRef system, std::size_t k) {
  std::vector<Value> ids;
  std::vector<Value> phases;
  for (std::size_t i = 0; i < k; ++i) {
    ids.push_back(Value::integer(static_cast<std::int64_t>(i)));
  }
  for (int p = 0; p < 3; ++p) phases.push_back(Value::integer(p));
  const ChannelId dil = ctx.channel("verify_dil", {ids, phases});
  ctx.define("VERIFY_DIL", [dil](Context& cx, std::span<const Value> args) {
    const Value id = args[0];
    const std::int64_t phase = args[1].as_int();
    const std::int64_t next = (phase + 1) % 3;
    return cx.prefix(cx.event(dil, {id, Value::integer(phase)}),
                     cx.var("VERIFY_DIL", {id, Value::integer(next)}));
  });
  ProcessRef cyclers = ctx.var("VERIFY_DIL", {ids[0], Value::integer(0)});
  for (std::size_t i = 1; i < k; ++i) {
    cyclers = ctx.interleave(
        cyclers, ctx.var("VERIFY_DIL", {ids[i], Value::integer(0)}));
  }
  return ctx.hide(ctx.interleave(system, cyclers), ctx.events_of(dil));
}

ProcessRef system_of(ota::OtaModel& m, verify::AttackerVariant v) {
  switch (v) {
    case verify::AttackerVariant::None:
      return m.system_plain;
    case verify::AttackerVariant::MacEcu:
      return m.system_attacked;
    case verify::AttackerVariant::UnprotectedEcu:
      return m.system_unprotected;
  }
  return m.system_plain;
}

/// The same checks split into their public calls, one span each.
CheckVerdict run_traced(const Request& r) {
  CancelToken token;
  token.set_timeout(kTimeout);
  CheckVerdict v;
  std::unique_ptr<ota::OtaModel> m;
  std::unique_ptr<security::NspkSystem> sys;
  auto machines = std::make_unique<RefinementMachines>();
  try {
    verify::RenderedCheck rc;
    if (r.kind == Kind::Cell) {
      ota::RequirementCheck parts;
      {
        const Span s("security.build");
        m = ota::build_ota_model();
        const ProcessRef system =
            dilate(m->ctx, system_of(*m, kVariants[r.col]), kDilation);
        parts = ota::requirement_check_parts(*m, kRequirements[r.row], system);
      }
      rc = verify::render(
          m->ctx, traced_refinement(m->ctx, parts.spec, parts.impl, parts.model,
                                    kMaxStates, &token, *machines));
    } else {
      security::PropertyParts parts;
      {
        const Span s("security.build");
        sys = security::build_nspk(r.kind == Kind::Nsl);
        parts = security::precedence_witness_parts(
            sys->ctx, sys->system, sys->running_ab, sys->commit_ba);
      }
      rc = verify::render(
          sys->ctx, traced_refinement(sys->ctx, parts.spec, parts.impl,
                                      Model::Traces, kMaxStates, &token,
                                      *machines));
    }
    v.completed = true;
    v.passed = rc.result.passed;
    v.counterexample = std::move(rc.counterexample);
  } catch (const std::exception& e) {
    v.error = e.what();
  }
  const Span s("core.teardown");
  machines.reset();
  m.reset();
  sys.reset();
  return v;
}

std::string check(const Request& r, const CheckVerdict& v) {
  if (!v.completed) return r.name() + ": " + v.error;
  if (v.passed != r.expected()) {
    return r.name() + ": got " + (v.passed ? "PASS" : "FAIL");
  }
  if (!v.passed && !trace_length(v.counterexample)) {
    return r.name() + ": failure without a counterexample trace";
  }
  if (r.kind == Kind::Nspk && first_event(v.counterexample) != "running.a.i") {
    return "NSPK: attack trace does not start with running.a.i: " +
           v.counterexample;
  }
  return "";
}

}  // namespace

RunResult run_protocols(const Options& opt, Failures& fail) {
  RunResult out;
  out.tail_cap = 0.9;

  struct Prepared {
    std::vector<verify::CheckTask> matrix;
    verify::CheckTask nspk;
    verify::CheckTask nsl;
    std::vector<Request> base;
  };
  const auto prepare = [] {
    Prepared p;
    verify::OtaMatrixOptions mo;
    mo.dilation = kDilation;
    mo.timeout = kTimeout;
    mo.max_states = kMaxStates;
    p.matrix = verify::ota_requirement_matrix(mo);
    p.nspk = nspk_task(false);
    p.nsl = nspk_task(true);
    for (int rep = 0; rep < kMatrixRepeats; ++rep) {
      for (int row = 0; row < 5; ++row) {
        for (int col = 0; col < 3; ++col) {
          p.base.push_back({Kind::Cell, row, col});
        }
      }
    }
    p.base.push_back({Kind::Nspk, 0, 0});
    p.base.push_back({Kind::Nsl, 0, 0});
    // Warm-up: one cold pass over the matrix rows against the open ECU.
    for (int row = 0; row < 5; ++row) {
      CancelToken token;
      token.set_timeout(kTimeout);
      const Request w{Kind::Cell, row, 2};
      const std::string why =
          check(w, verdict_of(verify::run_task(p.matrix[row * 3 + 2], token)));
      if (!why.empty()) throw std::runtime_error("warm-up: " + why);
    }
    return p;
  };
  Prepared prep;
  time_setup(out, [&] { prep = prepare(); });
  constexpr std::size_t kSetupRepeats = 6;

  const std::size_t rounds = units_for(opt, 13.0, 1);
  Rng rng(opt.seed);
  std::vector<std::vector<Request>> order(rounds, prep.base);
  const std::size_t total = rounds * prep.base.size();
  for (std::vector<Request>& round : order) rng.shuffle(round);
  std::map<std::string, std::string> verdicts;  // request -> verdict
  std::uint64_t id = 0;
  {
    CpuRotation rotation(1);
    MeasuredPhase phase(opt, out);
    for (std::size_t ri = 0; ri < rounds; ++ri) {
      if (phase.elapsed_ns() > time_cap_ns(opt)) {
        out.notes.push_back("time cap reached after " + std::to_string(ri) +
                            " of " + std::to_string(rounds) + " rounds");
        break;
      }
      for (const Request& r : order[ri]) {
        ++id;
        rotation.next();
        const std::int64_t t0 = now_ns();
        CheckVerdict v;
        {
          const RequestScope scope(id);
          if (opt.trace) {
            v = run_traced(r);
          } else {
            CancelToken token;
            token.set_timeout(kTimeout);
            const verify::CheckTask& task =
                r.kind == Kind::Nspk  ? prep.nspk
                : r.kind == Kind::Nsl ? prep.nsl
                                      : prep.matrix[r.row * 3 + r.col];
            v = verdict_of(verify::run_task(task, token));
          }
        }
        const std::string why = check(r, v);
        const std::int64_t t1 = now_ns();
        record_request(id, t0, t1,
                       r.kind == Kind::Nspk  ? "NSPK"
                       : r.kind == Kind::Nsl ? "NSL"
                                             : "matrix cell");
        ++out.attempted;
        if (!why.empty()) fail.add(why);
        out.add_latency(r.name(), t0, t1);
        verdicts[std::to_string(id) + " " + r.name()] =
            (v.passed ? "PASS " : "FAIL ") + v.counterexample;
        if (setup_due(id, total, kSetupRepeats)) phase.setup(prepare);
      }
    }
  }
  set_verdicts(out, verdicts);
  return out;
}

}  // namespace perfbench
