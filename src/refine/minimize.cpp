#include "refine/minimize.hpp"

#include <stdexcept>
#include <vector>

namespace ecucsp {

ProcessRef lts_to_process(Context& ctx, const CompactLts& lts,
                          const std::string& name) {
  // One parameterised definition; the argument selects the state.
  const Symbol sym = ctx.sym(name);
  // The closure owns a copy of the machine.
  ctx.define(name, [lts, sym](Context& cx, std::span<const Value> args) {
    const auto s = static_cast<std::size_t>(args[0].as_int());
    if (s >= lts.state_count()) throw std::out_of_range("no such LTS state");
    std::vector<ProcessRef> visible;
    std::vector<ProcessRef> tau_targets;
    for (std::uint32_t k = lts.offsets[s]; k < lts.offsets[s + 1]; ++k) {
      const ProcessRef target = cx.var(
          sym, {Value::integer(static_cast<std::int64_t>(lts.targets[k]))});
      const EventId e = lts.global_event(lts.events[k]);
      if (e == TAU) {
        tau_targets.push_back(target);
      } else if (e == TICK) {
        visible.push_back(cx.skip());
      } else {
        visible.push_back(cx.prefix(e, target));
      }
    }
    const ProcessRef base = cx.ext_choice(visible);  // STOP when empty
    if (tau_targets.empty()) return base;
    return cx.sliding(base, cx.int_choice(tau_targets));
  });
  return ctx.var(sym,
                 {Value::integer(static_cast<std::int64_t>(lts.root))});
}

ProcessRef compress(Context& ctx, ProcessRef p, const std::string& name,
                    std::size_t max_states, CancelToken* cancel) {
  const CompactLts lts = compile_lts(ctx, p, max_states, cancel);
  return lts_to_process(
      ctx, compress_compact(lts, Compression::Bisim, nullptr, cancel), name);
}

}  // namespace ecucsp
