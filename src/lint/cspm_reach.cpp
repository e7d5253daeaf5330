#include "lint/cspm_reach.hpp"

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "lint/dataflow.hpp"

namespace ecucsp::lint {

EventSet reachable_events_over(Context& ctx, ProcessRef p) {
  // Discover every distinct term reachable from p, expanding Var through
  // the (memoised) environment. Hash-consing makes ProcessRef identity
  // structural identity, so the index is exact.
  std::vector<ProcessRef> nodes{p};
  std::unordered_map<ProcessRef, std::size_t> index{{p, 0}};
  std::vector<std::vector<std::size_t>> kids_of;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const ProcessRef q = nodes[i];
    std::vector<ProcessRef> kids;
    if (q->op() == Op::Var) {
      kids.push_back(ctx.resolve(q->var_name(), q->var_args()));
    } else {
      kids.assign(q->kids().begin(), q->kids().end());
    }
    std::vector<std::size_t> ki;
    ki.reserve(kids.size());
    for (const ProcessRef k : kids) {
      const auto [it, fresh] = index.emplace(k, nodes.size());
      if (fresh) nodes.push_back(k);
      ki.push_back(it->second);
    }
    kids_of.push_back(std::move(ki));
  }

  // R is monotone in every operand (union / set-minus-constant / pointwise
  // rename), so the equation system has a least fixpoint the generic solver
  // reaches. deps_of[i] = parents that must be re-evaluated when R(i) grows.
  std::vector<std::vector<std::size_t>> parents_of(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (const std::size_t k : kids_of[i]) parents_of[k].push_back(i);
  }

  const auto join = [](EventSet& into, const EventSet& from) {
    const std::size_t before = into.size();
    into = into.set_union(from);
    return into.size() != before;
  };

  const auto eval = [&](std::size_t i,
                        const std::vector<EventSet>& r) -> EventSet {
    const ProcessRef q = nodes[i];
    const auto union_of_kids = [&] {
      EventSet out;
      for (const std::size_t k : kids_of[i]) out = out.set_union(r[k]);
      return out;
    };
    switch (q->op()) {
      case Op::Stop:
      case Op::Omega:
        return {};
      case Op::Skip:
        return EventSet{TICK};
      case Op::Prefix: {
        EventSet out = r[kids_of[i][0]];
        out.insert(q->event());
        return out;
      }
      case Op::ExtChoice:
      case Op::IntChoice:
      case Op::Seq:
      case Op::Par:
      case Op::Interrupt:
      case Op::Sliding:
        return union_of_kids();
      case Op::Hide:
        return r[kids_of[i][0]].set_difference(q->events());
      case Op::Rename: {
        EventSet out;
        for (const EventId e : r[kids_of[i][0]]) {
          bool renamed = false;
          for (const RenamePair& pair : q->renaming()) {
            if (pair.from == e) {
              out.insert(pair.to);
              renamed = true;
            }
          }
          if (!renamed) out.insert(e);
        }
        return out;
      }
      case Op::Var:
        return r[kids_of[i][0]];
    }
    return {};
  };

  const std::vector<EventSet> r =
      solve_equations<EventSet>(nodes.size(), parents_of, join, eval);
  return r[0].set_difference(EventSet{TAU});
}

void collect_cspm_names(const cspm::Expr* e, std::set<std::string>& out) {
  if (!e) return;
  if (e->kind == cspm::ExprKind::Name || e->kind == cspm::ExprKind::Call) {
    out.insert(e->name);
  }
  for (const auto& kid : e->kids) collect_cspm_names(kid.get(), out);
  collect_cspm_names(e->head.get(), out);
  for (const auto& f : e->fields) {
    collect_cspm_names(f.restriction.get(), out);
    collect_cspm_names(f.expr.get(), out);
  }
  for (const auto& g : e->gens) collect_cspm_names(g.set.get(), out);
  for (const auto& r : e->renames) {
    collect_cspm_names(r.from.get(), out);
    collect_cspm_names(r.to.get(), out);
  }
  for (const auto& b : e->bindings) collect_cspm_names(b.body.get(), out);
}

std::set<std::string> reachable_cspm_channels(const cspm::Script& script,
                                              const cspm::Expr* e) {
  std::set<std::string> channels;
  for (const auto& c : script.channels) {
    for (const auto& n : c.names) channels.insert(n);
  }
  std::set<std::string> defs;
  for (const auto& d : script.definitions) defs.insert(d.name);

  std::set<std::string> names;
  collect_cspm_names(e, names);
  std::vector<std::string> work(names.begin(), names.end());
  std::set<std::string> seen_defs;
  while (!work.empty()) {
    const std::string cur = work.back();
    work.pop_back();
    if (!defs.count(cur) || !seen_defs.insert(cur).second) continue;
    for (const auto& d : script.definitions) {
      if (d.name != cur) continue;
      std::set<std::string> inner;
      collect_cspm_names(d.body.get(), inner);
      for (const auto& n : inner) {
        if (names.insert(n).second) work.push_back(n);
      }
    }
  }
  std::set<std::string> chans;
  for (const auto& n : names) {
    if (channels.count(n)) chans.insert(n);
  }
  return chans;
}

}  // namespace ecucsp::lint
