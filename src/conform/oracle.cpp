#include "conform/oracle.hpp"

#include "refine/lts.hpp"
#include "refine/normalize.hpp"

namespace ecucsp::conform {

std::uint32_t TraceOracle::resolve(const std::string& event) const {
  if (ignored.contains(event)) return kSkip;
  const std::uint32_t symbol = automaton.symbol(event);
  if (symbol != Dfa::NONE) return symbol;
  return strict ? kRejectAlphabet : kSkip;
}

std::uint32_t TraceOracle::advance(std::uint32_t node,
                                   std::uint32_t resolved) const {
  if (resolved == kSkip || resolved == kRejectAlphabet) return resolved;
  const std::uint32_t target = automaton.step(node, resolved);
  return target == Dfa::NONE ? kRejectStuck : target;
}

const char* rejection_reason(std::uint32_t why) {
  return why == TraceOracle::kRejectAlphabet
             ? "event outside the oracle alphabet"
             : "spec offers no such event here";
}

OracleVerdict TraceOracle::rejection(std::size_t at, const std::string& event,
                                     std::uint32_t node,
                                     std::uint32_t why) const {
  OracleVerdict v;
  v.accepted = false;
  v.divergence_index = at;
  v.event = event;
  v.offered = automaton.offered(node);
  v.reason = rejection_reason(why);
  return v;
}

OracleVerdict TraceOracle::judge(const std::vector<std::string>& events) const {
  std::uint32_t node = automaton.root;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint32_t to = next(node, events[i]);
    if (to == kSkip) continue;
    if (to >= kRejectStuck) return rejection(i, events[i], node, to);
    node = to;
  }
  return {};
}

TraceOracle compile_oracle(Context& ctx, std::string name, ProcessRef spec,
                           const EventSet& keep, bool strict,
                           std::size_t max_states, CancelToken* cancel) {
  const EventSet hidden = ctx.alphabet().set_difference(keep);
  const ProcessRef visible = hidden.empty() ? spec : ctx.hide(spec, hidden);
  const NormLts norm = normalize(compile_lts(ctx, visible, max_states, cancel),
                                 /*with_divergence=*/false, cancel);

  std::vector<std::string> names;
  for (EventId e : keep) names.push_back(ctx.event_name(e));
  DfaBuilder dfa(std::move(names));
  for (const NormNode& node : norm.nodes) {
    for (const auto& [event, target] : node.succ) {
      if (event != TICK) dfa.edge(ctx.event_name(event), target);
    }
    dfa.end_state();
  }
  return TraceOracle{std::move(name), std::move(dfa).finish(norm.root), {},
                     strict};
}

}  // namespace ecucsp::conform
