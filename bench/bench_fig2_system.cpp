// Figure 2 reproduction: the case-study scope (VMG <-> target ECU) as a
// composed CSP system. Reports the state spaces of the three composition
// variants and times the requirement checks over them.
#include <benchmark/benchmark.h>

#include "ota/ota.hpp"
#include "security/properties.hpp"

using namespace ecucsp;

namespace {

void BuildModel(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(ota::build_ota_model());
  }
}
BENCHMARK(BuildModel);

void CompileVariant(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  std::size_t states = 0, transitions = 0;
  for (auto _ : state) {
    auto model = ota::build_ota_model();
    const ProcessRef p = which == 0   ? model->system_plain
                         : which == 1 ? model->system_attacked
                                      : model->system_unprotected;
    const CompactLts lts = compile_lts(model->ctx, p);
    states = lts.state_count();
    transitions = lts.transition_count();
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["transitions"] = static_cast<double>(transitions);
  state.SetLabel(which == 0   ? "plain"
                 : which == 1 ? "attacked_mac"
                              : "attacked_open");
}
BENCHMARK(CompileVariant)->Arg(0)->Arg(1)->Arg(2);

void CheckRequirement(benchmark::State& state) {
  const auto& reqs = ota::requirements();
  const auto& req = reqs[static_cast<std::size_t>(state.range(0))];
  bool passed = false;
  for (auto _ : state) {
    auto model = ota::build_ota_model();
    passed = ota::check_requirement(*model, req.id).passed;
  }
  state.SetLabel(req.id + (passed ? " holds" : " FAILS"));
}
BENCHMARK(CheckRequirement)->DenseRange(0, 4);

void IntegrityUnderAttack(benchmark::State& state) {
  const bool mac = state.range(0) == 1;
  bool passed = false;
  for (auto _ : state) {
    auto model = ota::build_ota_model();
    passed = security::check_precedence_witness(
                 model->ctx,
                 mac ? model->system_attacked : model->system_unprotected,
                 model->send_reqApp, model->install)
                 .passed;
  }
  state.SetLabel(mac ? (passed ? "mac_ecu holds" : "mac_ecu FAILS")
                     : (passed ? "open_ecu holds?!" : "open_ecu violated"));
}
BENCHMARK(IntegrityUnderAttack)->Arg(1)->Arg(0);

}  // namespace

BENCHMARK_MAIN();
