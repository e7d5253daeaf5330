#include "verify/prune.hpp"

#include "lint/cspm_reach.hpp"
#include "refine/lts.hpp"
#include "refine/normalize.hpp"

namespace ecucsp::verify {

bool predict_vacuous_pass(Context& ctx, ProcessRef spec, ProcessRef impl,
                          Model model, std::size_t max_states) {
  if (model != Model::Traces) return false;
  try {
    // Spec side: exact. Compile and normalize the specification the same
    // way the sweep would, and take the sweep's own constrained set.
    const NormLts norm =
        normalize(compile_lts(ctx, spec, max_states), /*with_divergence=*/false);
    const EventConstraints events = constrained_events(norm);
    if (events.constrained.empty()) return false;  // dynamic run would not flag it

    // Impl side: over-approximate. reach includes TICK when any component
    // may terminate and never includes TAU, so the subset test against
    // always_allowed also covers termination (a spec that cannot always tick
    // rejects an impl that might).
    const EventSet reach = lint::reachable_events_over(ctx, impl);
    if (reach.intersects(events.constrained)) return false;
    return reach.subset_of(events.always_allowed);
  } catch (const std::exception&) {
    // Spec too large for the budget, unresolved reference, cancelled — the
    // prediction abstains and the cell runs normally.
    return false;
  }
}

CheckResult pruned_pass() {
  CheckResult r;
  r.passed = true;
  r.vacuous = true;
  r.pruned = true;
  return r;
}

}  // namespace ecucsp::verify
