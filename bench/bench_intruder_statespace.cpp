// Intruder cost (added experiment S5).
//
// How much state space does adding a Dolev-Yao intruder cost? Compares the
// OTA model with and without the attacker, and the full NSPK/NSL protocol
// systems where the intruder's knowledge set is part of the state.
#include <benchmark/benchmark.h>

#include "ota/ota.hpp"
#include "security/intruder_factored.hpp"
#include "security/nspk.hpp"
#include "security/properties.hpp"

using namespace ecucsp;

namespace {

void OtaWithAndWithoutAttacker(benchmark::State& state) {
  const bool attacked = state.range(0) == 1;
  std::size_t states = 0, transitions = 0;
  for (auto _ : state) {
    auto model = ota::build_ota_model();
    const CompactLts lts = compile_lts(
        model->ctx, attacked ? model->system_attacked : model->system_plain);
    states = lts.state_count();
    transitions = lts.transition_count();
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["transitions"] = static_cast<double>(transitions);
  state.SetLabel(attacked ? "with attacker" : "no attacker");
}
BENCHMARK(OtaWithAndWithoutAttacker)->Arg(0)->Arg(1);

void NspkAuthenticationCheck(benchmark::State& state) {
  const bool fix = state.range(0) == 1;
  std::size_t states = 0;
  std::size_t universe = 0;
  bool passed = false;
  for (auto _ : state) {
    auto sys = security::build_nspk(fix);
    const CheckResult r = security::check_precedence(
        sys->ctx, sys->system, sys->running_ab, sys->commit_ba);
    states = r.stats.impl_states;
    universe = sys->universe_size;
    passed = r.passed;
  }
  state.counters["impl_states"] = static_cast<double>(states);
  state.counters["universe_terms"] = static_cast<double>(universe);
  state.SetLabel(fix ? (passed ? "NSL: secure" : "NSL: BROKEN?!")
                     : (passed ? "NSPK: secure?!" : "NSPK: attack found"));
}
BENCHMARK(NspkAuthenticationCheck)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void NspkAttackWitness(benchmark::State& state) {
  // Full-alphabet witness search (larger product: spec tracks all events).
  std::size_t trace_len = 0;
  for (auto _ : state) {
    auto sys = security::build_nspk(false);
    const CheckResult r = security::check_precedence_witness(
        sys->ctx, sys->system, sys->running_ab, sys->commit_ba);
    if (r.passed) state.SkipWithError("attack not found");
    trace_len = r.counterexample->trace.size() + 1;
  }
  state.counters["attack_steps"] = static_cast<double>(trace_len);
}
BENCHMARK(NspkAttackWitness)->Unit(benchmark::kMillisecond);

void ExplicitVsFactoredIntruder(benchmark::State& state) {
  // Ablation: the explicit knowledge-set intruder vs the factored
  // parallel-cell construction, compiled standalone over the same universe
  // (n nested pairs over a base alphabet).
  const bool factored = state.range(0) == 1;
  const int depth = static_cast<int>(state.range(1));
  std::size_t states = 0;
  for (auto _ : state) {
    Context ctx;
    security::TermAlgebra T(ctx);
    const Value a = T.atom("a");
    const Value b = T.atom("b");
    std::vector<Value> agents{a, b};
    std::vector<Value> universe{a, b};
    Value acc = a;
    for (int i = 0; i < depth; ++i) {
      acc = T.pair(acc, b);
      universe.push_back(acc);
    }
    security::IntruderConfig cfg;
    cfg.universe = universe;
    cfg.messages = universe;
    cfg.initial_knowledge = {b};
    cfg.hear_channel = ctx.channel("h", {agents, agents, universe});
    cfg.say_channel = ctx.channel("s", {agents, agents, universe});
    cfg.agents = agents;
    cfg.name = factored ? "BF" : "BE";
    const ProcessRef intruder =
        factored ? security::build_factored_intruder(T, cfg)
                 : security::build_intruder(T, cfg);
    states = compile_lts(ctx, intruder).state_count();
  }
  state.counters["states"] = static_cast<double>(states);
  state.SetLabel(factored ? "factored cells" : "explicit knowledge sets");
}
BENCHMARK(ExplicitVsFactoredIntruder)
    ->Args({0, 3})
    ->Args({1, 3})
    ->Args({0, 6})
    ->Args({1, 6});

}  // namespace

BENCHMARK_MAIN();
