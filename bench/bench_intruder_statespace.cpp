// Intruder cost (added experiment S5).
//
// How much state space does adding a Dolev-Yao intruder cost? Compares the
// OTA model with and without the attacker, and the full NSPK/NSL protocol
// systems where the intruder's knowledge set is part of the state.
#include <benchmark/benchmark.h>

#include "ota/ota.hpp"
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
    universe = sys->intruder.universe.size();
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

}  // namespace

BENCHMARK_MAIN();
