// State-space reduction bench: check_refinement_compiled's explicit
// compression modes timed on one product sweep.
//
// The workload is K interleaved three-phase cyclers whose phase steps each
// take a *hidden* micro-step (tau after every visible event). Unreduced,
// the interleaving reaches 6^K product states (every cycler independently
// visible- or micro-pending); the hidden micro-steps of distinct cyclers
// are strongly confluent, so diamond tau-priorisation serialises them and
// bisim folds the remainder — the same semantics in ~3^K states.
//   * the passing workload checks RUN(alphabet) [T= cyclers — a full sweep
//     of the product with no violation to cut it short;
//   * the failing workload corrupts one cycler after L full loops, so the
//     BFS must clear ~3L levels of the product before the canonical
//     (shortest, lexicographically least) counterexample appears.
// LTS compilation and spec normalisation happen once and are excluded from
// the timings; each timed call is check_refinement_compiled, reduction
// included — the honest end-to-end cost a check pays for the mode.
//
// The bench sweeps both workloads at none/bisim/diamond/full, reports the
// wall-clock and reduction-factor curve, asserts verdict/counterexample
// coherence against none, and gates "reduction_ok" on the acceptance
// threshold: full must check >= 10x more raw product states per sweep than
// it visits. The process exits 1 on any mismatch or a too-small reduction.
//
// Usage: bench_compression [cyclers] [out.json]
// Writes a machine-readable report (default BENCH_compression.json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "refine/check.hpp"
#include "refine/compact.hpp"
#include "refine/lts.hpp"
#include "refine/normalize.hpp"

using namespace ecucsp;

namespace {

constexpr std::int64_t kLoops = 6;  // corrupt cycler K-1 after 6 full cycles

struct Workload {
  NormLts spec;
  CompactLts impl;
};

/// RUN over the cycler alphabet: one recursive state offering every event.
ProcessRef run_spec(Context& ctx, ChannelId cyc, std::int64_t cyclers) {
  ctx.define("BENCH_RUN", [cyc, cyclers](Context& cx, std::span<const Value>) {
    std::vector<ProcessRef> arms;
    for (std::int64_t id = 0; id < cyclers; ++id) {
      for (std::int64_t phase = 0; phase < 3; ++phase) {
        arms.push_back(cx.prefix(
            cx.event(cyc, {Value::integer(id), Value::integer(phase)}),
            cx.var("BENCH_RUN", {})));
      }
    }
    return cx.ext_choice(arms);
  });
  return ctx.var("BENCH_RUN", {});
}

/// Cyclers whose every visible phase step is followed by a hidden
/// micro-step. Hiding makes the micro-steps tau, and taus of distinct
/// interleaved cyclers commute — exactly the structure diamond's confluence
/// priorisation eliminates. The corrupt variant counts its loops and
/// eventually performs the forbidden bench_bad event — the workload's deep,
/// unique violation.
Workload build(std::int64_t cyclers, bool corrupt_last) {
  Context ctx;
  std::vector<Value> ids, phases;
  for (std::int64_t i = 0; i < cyclers; ++i) ids.push_back(Value::integer(i));
  for (int p = 0; p < 3; ++p) phases.push_back(Value::integer(p));
  const ChannelId cyc = ctx.channel("bench_cyc", {ids, phases});
  const ChannelId mic = ctx.channel("bench_mic", {ids});
  const ChannelId bad = ctx.channel("bench_bad");

  ctx.define("BENCH_HCYC", [cyc, mic](Context& cx,
                                      std::span<const Value> args) {
    const std::int64_t phase = args[1].as_int();
    return cx.prefix(
        cx.event(cyc, {args[0], Value::integer(phase)}),
        cx.prefix(cx.event(mic, {args[0]}),
                  cx.var("BENCH_HCYC",
                         {args[0], Value::integer((phase + 1) % 3)})));
  });
  ctx.define("BENCH_HCNT", [cyc, mic, bad, cyclers](
                               Context& cx, std::span<const Value> args) {
    const std::int64_t loop = args[0].as_int();
    const std::int64_t phase = args[1].as_int();
    if (loop >= kLoops) return cx.prefix(cx.event(bad), cx.stop());
    const Value id = Value::integer(cyclers - 1);
    const std::int64_t nphase = (phase + 1) % 3;
    return cx.prefix(
        cx.event(cyc, {id, Value::integer(phase)}),
        cx.prefix(cx.event(mic, {id}),
                  cx.var("BENCH_HCNT",
                         {Value::integer(loop + (nphase == 0 ? 1 : 0)),
                          Value::integer(nphase)})));
  });

  const std::int64_t plain = corrupt_last ? cyclers - 1 : cyclers;
  ProcessRef impl = ctx.var("BENCH_HCYC", {Value::integer(0), Value::integer(0)});
  for (std::int64_t i = 1; i < plain; ++i)
    impl = ctx.interleave(
        impl, ctx.var("BENCH_HCYC", {Value::integer(i), Value::integer(0)}));
  if (corrupt_last)
    impl = ctx.interleave(
        impl, ctx.var("BENCH_HCNT", {Value::integer(0), Value::integer(0)}));

  std::vector<EventId> micro;
  for (std::int64_t i = 0; i < cyclers; ++i)
    micro.push_back(ctx.event(mic, {Value::integer(i)}));
  impl = ctx.hide(impl, EventSet(std::move(micro)));

  const ProcessRef spec = run_spec(ctx, cyc, cyclers);
  Workload w;
  w.impl = compile_lts(ctx, impl);
  w.spec = normalize(compile_lts(ctx, spec), /*with_divergence=*/false);
  return w;
}

std::string cx_key(const CheckResult& r) {
  if (!r.counterexample) return "-";
  std::string key = std::to_string(static_cast<int>(r.counterexample->kind));
  for (const EventId e : r.counterexample->trace) {
    key += ',';
    key += std::to_string(e);
  }
  key += '!';
  key += std::to_string(r.counterexample->event);
  return key;
}

/// Verdict-level coherence only: compressed PASS sweeps legitimately visit
/// fewer product states, so the state counts are not compared (they are the
/// measurement).
bool verdict_coherent(const CheckResult& ref, const CheckResult& got) {
  return ref.passed == got.passed && ref.vacuous == got.vacuous &&
         cx_key(ref) == cx_key(got);
}

/// Best of three compressed sweeps, reduction inside the timer.
double time_ms(const Workload& w, Compression mode, CheckResult& out) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    out = check_refinement_compiled(w.spec, w.impl, Model::Traces, nullptr,
                                    mode);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  // 6^K unreduced product states and a ~2^K reduction factor: at the
  // default K = 5, 7776 unreduced states fold to ~243, a ~32x factor that
  // clears the >= 10x acceptance bar while staying cheap enough for
  // unoptimised CI legs.
  const std::int64_t cyclers = argc > 1 ? std::strtol(argv[1], nullptr, 10) : 5;
  const char* out_path = argc > 2 ? argv[2] : "BENCH_compression.json";
  if (cyclers < 2) {
    std::fprintf(stderr, "need at least 2 cyclers\n");
    return 2;
  }

  const Workload pass = build(cyclers, /*corrupt_last=*/false);
  const Workload fail = build(cyclers, /*corrupt_last=*/true);
  std::printf("state-space reduction bench: %ld hidden-micro cyclers\n",
              (long)cyclers);
  std::printf("  pass sweep: %zu impl states, %zu transitions\n",
              pass.impl.state_count(), pass.impl.transition_count());
  std::printf("  fail sweep: %zu impl states, violation after %ld loops\n\n",
              fail.impl.state_count(), (long)kLoops);
  std::printf("%-8s| %-12s| %-12s| %-14s| %-10s| %s\n", "mode", "pass (ms)",
              "fail (ms)", "product states", "reduction", "verdicts");
  std::printf(
      "--------+-------------+-------------+---------------+-----------+"
      "---------\n");

  CheckResult pass_ref, fail_ref;
  std::size_t none_product = 0;
  double reduction_full = 1.0;
  bool ok = true;
  std::string rows;
  for (const Compression mode : {Compression::None, Compression::Bisim,
                                 Compression::Diamond, Compression::Full}) {
    CheckResult p, f;
    const double pms = time_ms(pass, mode, p);
    const double fms = time_ms(fail, mode, f);
    if (mode == Compression::None) {
      pass_ref = p;
      fail_ref = f;
      none_product = p.stats.product_states;
      if (!p.passed || f.passed || !f.counterexample) {
        std::fprintf(stderr, "workload verdicts wrong at none\n");
        return 1;
      }
    }
    const bool same =
        verdict_coherent(pass_ref, p) && verdict_coherent(fail_ref, f);
    ok &= same;
    const double reduction = p.stats.product_states == 0
                                 ? 1.0
                                 : static_cast<double>(none_product) /
                                       static_cast<double>(p.stats.product_states);
    if (mode == Compression::Full) reduction_full = reduction;
    std::printf("%-8s| %11.1f | %11.1f | %13zu | %8.1fx | %s\n",
                std::string(to_string(mode)).c_str(), pms, fms,
                p.stats.product_states, reduction,
                same ? "coherent" : "MISMATCH");
    if (!rows.empty()) rows += ",";
    rows += "{\"mode\":\"" + std::string(to_string(mode)) + "\"" +
            ",\"pass_ms\":" + std::to_string(pms) +
            ",\"fail_ms\":" + std::to_string(fms) +
            ",\"pass_product_states\":" + std::to_string(p.stats.product_states) +
            ",\"reduction_factor\":" + std::to_string(reduction) +
            ",\"coherent\":" + (same ? "true" : "false") + "}";
  }
  // The acceptance bar: full compression must let the same sweep stand in
  // for >= 10x as many raw product states.
  const bool reduction_ok = reduction_full >= 10.0;
  std::printf("full-mode reduction factor %.1fx (>= 10x required): %s\n",
              reduction_full, reduction_ok ? "ok" : "TOO LOW");

  std::FILE* out = std::fopen(out_path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 2;
  }
  std::fprintf(out,
               "{\"bench_format\":1,\"bench\":\"compression\","
               "\"cyclers\":%ld,\"unreduced_product_states\":%zu,"
               "\"fail_product_states\":%zu,\"runs\":[%s],"
               "\"reduction_factor\":%.3f,\"reduction_ok\":%s,"
               "\"coherent\":%s}\n",
               (long)cyclers, none_product, fail_ref.stats.product_states,
               rows.c_str(), reduction_full, reduction_ok ? "true" : "false",
               ok && reduction_ok ? "true" : "false");
  std::fclose(out);

  std::printf("\n%s; report written to %s\n",
              ok && reduction_ok ? "all compression modes coherent"
                                 : "MISMATCH or insufficient reduction",
              out_path);
  return ok && reduction_ok ? 0 : 1;
}
