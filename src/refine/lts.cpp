#include "refine/lts.hpp"

#include <unordered_map>
#include <vector>

namespace ecucsp {

CompactLts compile_lts(Context& ctx, ProcessRef root, std::size_t max_states,
                       CancelToken* cancel) {
  if (cancel) cancel->poll_now();
  std::unordered_map<ProcessRef, StateId> ids;
  std::vector<ProcessRef> terms;  // state id -> canonical term

  const auto state_of = [&](ProcessRef term) -> StateId {
    term = ctx.canonical(term);
    if (auto it = ids.find(term); it != ids.end()) return it->second;
    if (ids.size() >= max_states) throw StateLimitExceeded(max_states);
    const StateId id = static_cast<StateId>(terms.size());
    ids.emplace(term, id);
    terms.push_back(term);
    return id;
  };

  // States are discovered in id order and expanded in id order, so terms
  // is its own FIFO frontier and each row is appended exactly once.
  CompactBuilder lts;
  const StateId start = state_of(root);
  for (StateId s = 0; s < terms.size(); ++s) {
    if (cancel) cancel->poll();
    const ProcessRef term = terms[s];
    for (const Transition& t : ctx.transitions(term)) {
      lts.edge(t.event, state_of(t.target));
    }
    lts.end_state(term->op() == Op::Omega);
  }
  return std::move(lts).finish(start);
}

}  // namespace ecucsp
