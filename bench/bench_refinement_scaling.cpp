// Refinement-checker scaling (added experiment S2).
//
// The paper leans on FDR's ability to handle "the scale needed for the
// sophisticated ECUs now seen in vehicles" (Section VII-A); this bench
// quantifies our engine on two classic state-space families and reports
// the states/second the checker sustains, plus the relative cost of the
// three semantic models — the ablation DESIGN.md calls out.
//
//   * Chain(n):  a sequential counter, n states, linear growth.
//   * Toggles(n): n interleaved two-state components, 2^n states.
#include <benchmark/benchmark.h>

#include "refine/check.hpp"
#include "refine/compact.hpp"
#include "refine/minimize.hpp"
#include "refine/normalize.hpp"

using namespace ecucsp;

namespace {

/// A linear counter process: tick.0 -> tick.1 -> ... -> STOP.
ProcessRef chain(Context& ctx, int n) {
  std::vector<Value> domain;
  for (int i = 0; i < n; ++i) domain.push_back(Value::integer(i));
  const ChannelId tick = ctx.channel("tick", {domain});
  ProcessRef p = ctx.stop();
  for (int i = n - 1; i >= 0; --i) {
    p = ctx.prefix(ctx.event(tick, {Value::integer(i)}), p);
  }
  return p;
}

/// n independent two-state toggles: state space 2^n.
ProcessRef toggles(Context& ctx, int n) {
  std::vector<Value> domain;
  for (int i = 0; i < n; ++i) domain.push_back(Value::integer(i));
  const std::vector<Value> phase{Value::integer(0), Value::integer(1)};
  const ChannelId flip = ctx.channel("flip", {domain});
  ProcessRef out = nullptr;
  for (int i = 0; i < n; ++i) {
    const std::string name = "TGL" + std::to_string(i);
    const EventId e = ctx.event(flip, {Value::integer(i)});
    ctx.define(name,
               [e, s = ctx.sym(name)](Context& cx, std::span<const Value> args) {
                 const std::int64_t ph = args[0].as_int();
                 return cx.prefix(e, cx.var(s, {Value::integer(1 - ph)}));
               });
    const ProcessRef cell = ctx.var(name, {Value::integer(0)});
    out = out ? ctx.interleave(out, cell) : cell;
  }
  return out;
}

void ChainSelfRefinement(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::size_t states = 0;
  for (auto _ : state) {
    Context ctx;
    const ProcessRef p = chain(ctx, n);
    const CheckResult r = check_refinement(ctx, p, p, Model::Traces);
    if (!r.passed) state.SkipWithError("self-refinement failed");
    states = r.stats.impl_states;
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(ChainSelfRefinement)->RangeMultiplier(4)->Range(64, 16384);

void TogglesDeadlockFreedom(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::size_t states = 0;
  for (auto _ : state) {
    Context ctx;
    const CheckResult r = check_deadlock_free(ctx, toggles(ctx, n));
    if (!r.passed) state.SkipWithError("unexpected deadlock");
    states = r.stats.impl_states;
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(TogglesDeadlockFreedom)->DenseRange(6, 16, 2);

void SemanticModelCost(benchmark::State& state) {
  // Same check in T / F / FD — the per-model overhead ablation.
  const Model model = static_cast<Model>(state.range(0));
  const int n = 10;
  for (auto _ : state) {
    Context ctx;
    const ProcessRef p = toggles(ctx, n);
    const CheckResult r = check_refinement(ctx, p, p, model);
    if (!r.passed) state.SkipWithError("self-refinement failed");
  }
  std::string label = "[";
  label += to_string(model);
  state.SetLabel(label + "= on 2^10 states");
}
BENCHMARK(SemanticModelCost)
    ->Arg(static_cast<int>(Model::Traces))
    ->Arg(static_cast<int>(Model::Failures))
    ->Arg(static_cast<int>(Model::FailuresDivergences));

void NormalisationCost(benchmark::State& state) {
  // Spec normalisation (the FDR pre-step) in isolation.
  const int n = static_cast<int>(state.range(0));
  std::size_t nodes = 0;
  for (auto _ : state) {
    Context ctx;
    const CompactLts lts = compile_lts(ctx, toggles(ctx, n));
    const NormLts norm = normalize(lts, /*with_divergence=*/true);
    nodes = norm.nodes.size();
    benchmark::DoNotOptimize(norm);
  }
  state.counters["norm_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(NormalisationCost)->DenseRange(6, 12, 2);

/// A k-state cycle on one event; every state is bisimilar, so sbisim
/// collapses the component to a single state.
ProcessRef cycle(Context& ctx, int copy, int k) {
  const EventId e = ctx.event(ctx.channel("cyc" + std::to_string(copy)));
  const std::string name = "CYC" + std::to_string(copy);
  const Symbol s = ctx.sym(name);
  ctx.define(name, [e, k, s](Context& cx, std::span<const Value> args) {
    const std::int64_t j = args[0].as_int();
    return cx.prefix(e, cx.var(s, {Value::integer((j + 1) % k)}));
  });
  return ctx.var(name, {Value::integer(0)});
}

void CompressionAblation(benchmark::State& state) {
  // FDR-style *compositional* compression: minimise each component before
  // composing. Raw composition of m k-state cycles has k^m states; the
  // compressed components have one state each.
  const bool compressed = state.range(0) == 1;
  const int m = 3;
  const int k = 8;
  std::size_t states = 0;
  int fresh = 0;
  for (auto _ : state) {
    Context ctx;
    ProcessRef sys = nullptr;
    for (int i = 0; i < m; ++i) {
      ProcessRef component = cycle(ctx, i, k);
      if (compressed) {
        component =
            compress(ctx, component, "_SBISIM" + std::to_string(fresh++));
      }
      sys = sys ? ctx.interleave(sys, component) : component;
    }
    const CheckResult r = check_deadlock_free(ctx, sys);
    if (!r.passed) state.SkipWithError("unexpected deadlock");
    states = r.stats.impl_states;
  }
  state.counters["checked_states"] = static_cast<double>(states);
  state.SetLabel(compressed ? "components compressed (sbisim)" : "raw");
}
BENCHMARK(CompressionAblation)->Arg(0)->Arg(1);

/// The in-check reduction workload: n two-phase toggles whose every flip is
/// followed by a *hidden* micro-step. Interleaved raw, the product reaches
/// 2^n states (each toggle independently flip- or micro-pending); the micro
/// taus of distinct toggles are confluent, so diamond tau-priorisation
/// serialises them and bisim folds the residue to ~n states.
struct CompressWorkload {
  NormLts spec;
  CompactLts impl;
};

CompressWorkload hidden_workload(int n) {
  Context ctx;
  std::vector<Value> domain;
  for (int i = 0; i < n; ++i) domain.push_back(Value::integer(i));
  const ChannelId flip = ctx.channel("flip", {domain});
  const ChannelId micro = ctx.channel("micro", {domain});

  ProcessRef impl = nullptr;
  std::vector<EventId> hidden;
  for (int i = 0; i < n; ++i) {
    const std::string name = "HTGL" + std::to_string(i);
    const EventId f = ctx.event(flip, {Value::integer(i)});
    const EventId m = ctx.event(micro, {Value::integer(i)});
    hidden.push_back(m);
    ctx.define(name, [f, m, s = ctx.sym(name)](Context& cx,
                                               std::span<const Value>) {
      return cx.prefix(f, cx.prefix(m, cx.var(s, {})));
    });
    const ProcessRef cell = ctx.var(ctx.sym(name), {});
    impl = impl ? ctx.interleave(impl, cell) : cell;
  }
  impl = ctx.hide(impl, EventSet(std::move(hidden)));

  // RUN over the flip alphabet: one recursive state offering every flip.
  ctx.define("CRUN", [flip, n](Context& cx, std::span<const Value>) {
    ProcessRef p = nullptr;
    for (int i = 0; i < n; ++i) {
      const ProcessRef arm = cx.prefix(cx.event(flip, {Value::integer(i)}),
                                       cx.var("CRUN", {}));
      p = p ? cx.ext_choice(p, arm) : arm;
    }
    return p;
  });

  CompressWorkload w;
  w.impl = compile_lts(ctx, impl);
  w.spec = normalize(compile_lts(ctx, ctx.var("CRUN", {})),
                     /*with_divergence=*/false);
  return w;
}

void InCheckCompression(benchmark::State& state) {
  // check_refinement_compiled's reductions of the composed machine (vs
  // CompressionAblation's compositional sbisim): the same product sweep at
  // each Compression mode, reduction inside the measured region. Verdicts
  // are mode-invariant by the fail-replay contract; product_states is the
  // measurement.
  const Compression mode = static_cast<Compression>(state.range(0));
  const int n = 7;
  const CompressWorkload w = hidden_workload(n);
  const CheckResult base = check_refinement_compiled(
      w.spec, w.impl, Model::Traces, nullptr, Compression::None);
  std::size_t states = 0;
  for (auto _ : state) {
    const CheckResult r = check_refinement_compiled(w.spec, w.impl,
                                                    Model::Traces, nullptr,
                                                    mode);
    if (!r.passed) state.SkipWithError("refinement failed");
    states = r.stats.product_states;
  }
  state.counters["product_states"] = static_cast<double>(states);
  state.counters["reduction_factor"] =
      static_cast<double>(base.stats.product_states) /
      static_cast<double>(states == 0 ? 1 : states);
  state.SetLabel("compress=" + std::string(to_string(mode)) + " on 2^" +
                 std::to_string(n) + " raw states");
}
BENCHMARK(InCheckCompression)
    ->Arg(static_cast<int>(Compression::None))
    ->Arg(static_cast<int>(Compression::Bisim))
    ->Arg(static_cast<int>(Compression::Diamond))
    ->Arg(static_cast<int>(Compression::Full));

void MinimizationCost(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::size_t before = 0, after = 0;
  for (auto _ : state) {
    Context ctx;
    const CompactLts lts = compile_lts(ctx, toggles(ctx, n));
    const CompactLts min = compress_compact(lts, Compression::Bisim);
    before = lts.state_count();
    after = min.state_count();
  }
  state.counters["states_before"] = static_cast<double>(before);
  state.counters["states_after"] = static_cast<double>(after);
}
BENCHMARK(MinimizationCost)->DenseRange(6, 12, 2);

}  // namespace

BENCHMARK_MAIN();
