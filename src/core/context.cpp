#include "core/context.hpp"

#include <algorithm>
#include <array>

namespace ecucsp {

namespace {

std::size_t node_hash(const Op op, const EventId event,
                      const std::vector<ProcessRef>& kids,
                      const EventSet& events,
                      const std::vector<RenamePair>& renaming,
                      const Symbol var_name, const std::vector<Value>& args) {
  std::size_t seed = static_cast<std::size_t>(op);
  seed = hash_combine(seed, event);
  for (ProcessRef k : kids) {
    seed = hash_combine(seed, std::hash<const void*>{}(k));
  }
  seed = hash_combine(seed, events.hash());
  for (const RenamePair& rp : renaming) {
    seed = hash_combine(seed, hash_combine(rp.from, rp.to));
  }
  seed = hash_combine(seed, var_name);
  seed = hash_combine(seed, hash_values(args));
  return seed;
}

}  // namespace

bool Context::NodeEq::operator()(const ProcessNode* a,
                                 const ProcessNode* b) const {
  return a->op() == b->op() && a->event() == b->event() &&
         std::ranges::equal(a->kids(), b->kids()) &&
         a->renaming() == b->renaming() && a->events() == b->events() &&
         a->var_name() == b->var_name() && a->var_args() == b->var_args();
}

Context::Context() {
  // Reserve slots for TAU and TICK so EventId indexes line up.
  const ChannelId tau_chan = channel("_tau");
  const ChannelId tick_chan = channel("_tick");
  event_chan_.push_back(tau_chan);
  event_fields_.emplace_back();
  event_chan_.push_back(tick_chan);
  event_fields_.emplace_back();

  ProcessNode stop_node;
  stop_node.op_ = Op::Stop;
  stop_node.hash_ = node_hash(Op::Stop, 0, {}, {}, {}, 0, {});
  stop_ = intern(std::move(stop_node));

  ProcessNode skip_node;
  skip_node.op_ = Op::Skip;
  skip_node.hash_ = node_hash(Op::Skip, 0, {}, {}, {}, 0, {});
  skip_ = intern(std::move(skip_node));

  ProcessNode omega_node;
  omega_node.op_ = Op::Omega;
  omega_node.hash_ = node_hash(Op::Omega, 0, {}, {}, {}, 0, {});
  omega_ = intern(std::move(omega_node));
}

// --- channels and events ---------------------------------------------------

ChannelId Context::channel(std::string_view name,
                           std::vector<std::vector<Value>> field_domains) {
  const Symbol s = sym(name);
  if (auto it = channel_ids_.find(s); it != channel_ids_.end()) {
    const ChannelDecl& existing = channels_[it->second];
    if (existing.field_domains != field_domains) {
      throw ModelError("channel '" + std::string(name) +
                       "' re-declared with a different type");
    }
    return it->second;
  }
  const ChannelId id = static_cast<ChannelId>(channels_.size());
  channels_.push_back(ChannelDecl{s, std::move(field_domains)});
  channel_ids_.emplace(s, id);
  return id;
}

std::optional<ChannelId> Context::find_channel(std::string_view name) const {
  for (ChannelId id = 0; id < channels_.size(); ++id) {
    if (symbols_.name(channels_[id].name) == name) return id;
  }
  return std::nullopt;
}

EventId Context::event(ChannelId chan, std::vector<Value> fields) {
  const ChannelDecl& decl = channels_.at(chan);
  if (fields.size() != decl.field_domains.size()) {
    throw ModelError("event on channel '" + symbols_.name(decl.name) +
                     "' has wrong arity: got " + std::to_string(fields.size()) +
                     ", expected " + std::to_string(decl.field_domains.size()));
  }
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const auto& domain = decl.field_domains[i];
    if (std::find(domain.begin(), domain.end(), fields[i]) == domain.end()) {
      throw ModelError("value " + fields[i].to_string(symbols_) +
                       " outside the declared domain of field " +
                       std::to_string(i) + " of channel '" +
                       symbols_.name(decl.name) + "'");
    }
  }
  EventKey key{chan, fields};
  if (auto it = event_ids_.find(key); it != event_ids_.end()) return it->second;
  const EventId id = static_cast<EventId>(event_chan_.size());
  event_chan_.push_back(chan);
  event_fields_.push_back(std::move(fields));
  event_ids_.emplace(std::move(key), id);
  return id;
}

EventId Context::event(std::string_view chan_name, std::vector<Value> fields) {
  auto id = find_channel(chan_name);
  if (!id) {
    throw ModelError("unknown channel '" + std::string(chan_name) + "'");
  }
  return event(*id, std::move(fields));
}

EventSet Context::events_of(ChannelId chan) const {
  // Enumerate the full Cartesian product of the declared field domains.
  // Note: const_cast-free design would require event() to be non-interning;
  // instead we enumerate over *already interned* ids plus force-intern the
  // rest through a mutable helper. To keep events_of const and total, the
  // product is interned eagerly here via a const_cast on the interner only.
  auto& self = const_cast<Context&>(*this);
  const ChannelDecl& decl = channels_.at(chan);
  // A product with an empty factor is empty (channel c : {}).
  if (std::ranges::any_of(decl.field_domains,
                          [](const auto& d) { return d.empty(); })) {
    return {};
  }
  std::vector<EventId> out;
  std::vector<std::size_t> idx(decl.field_domains.size(), 0);
  for (;;) {
    std::vector<Value> fields;
    fields.reserve(idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
      fields.push_back(decl.field_domains[i][idx[i]]);
    }
    out.push_back(self.event(chan, std::move(fields)));
    // Odometer increment.
    std::size_t i = idx.size();
    while (i > 0) {
      --i;
      if (++idx[i] < decl.field_domains[i].size()) break;
      idx[i] = 0;
      if (i == 0) return EventSet(std::move(out));
    }
    if (idx.empty()) return EventSet(std::move(out));
  }
}

EventSet Context::events_of(std::span<const ChannelId> chans) const {
  EventSet out;
  for (ChannelId c : chans) out = out.set_union(events_of(c));
  return out;
}

EventSet Context::events_of(
    std::initializer_list<std::string_view> names) const {
  EventSet out;
  for (std::string_view n : names) {
    auto id = find_channel(n);
    if (!id) throw ModelError("unknown channel '" + std::string(n) + "'");
    out = out.set_union(events_of(*id));
  }
  return out;
}

EventSet Context::alphabet() const {
  std::vector<EventId> out;
  for (EventId e = FIRST_USER_EVENT; e < event_chan_.size(); ++e) {
    out.push_back(e);
  }
  return EventSet(std::move(out));
}

ChannelId Context::event_channel(EventId e) const { return event_chan_.at(e); }

const std::vector<Value>& Context::event_fields(EventId e) const {
  return event_fields_.at(e);
}

std::string Context::event_name(EventId e) const {
  if (e == TAU) return "tau";
  if (e == TICK) return "tick";
  const ChannelDecl& decl = channels_.at(event_chan_.at(e));
  std::string out = symbols_.name(decl.name);
  for (const Value& v : event_fields_.at(e)) {
    out += ".";
    out += v.to_string(symbols_);
  }
  return out;
}

// --- process constructors ----------------------------------------------------

ProcessRef Context::intern(ProcessNode&& node) {
  auto it = interned_.find(&node);
  if (it != interned_.end()) return *it;
  arena_.push_back(std::move(node));
  ProcessRef ref = &arena_.back();
  interned_.insert(ref);
  return ref;
}

ProcessRef Context::stop() { return stop_; }
ProcessRef Context::skip() { return skip_; }
ProcessRef Context::omega() { return omega_; }

ProcessRef Context::prefix(EventId e, ProcessRef p) {
  if (e == TAU || e == TICK) {
    throw ModelError("prefix on reserved event '" + event_name(e) + "'");
  }
  ProcessNode n;
  n.op_ = Op::Prefix;
  n.event_ = e;
  n.kids_ = {p};
  n.hash_ = node_hash(Op::Prefix, e, n.kids_, {}, {}, 0, {});
  return intern(std::move(n));
}

ProcessRef Context::prefix_seq(std::span<const EventId> events, ProcessRef p) {
  ProcessRef out = p;
  for (std::size_t i = events.size(); i > 0; --i) {
    out = prefix(events[i - 1], out);
  }
  return out;
}

ProcessRef Context::choice(Op op, std::span<const ProcessRef> operands) {
  ProcessNode n;
  n.op_ = op;
  for (ProcessRef p : operands) {
    if (p->op() == op) {
      n.kids_.insert(n.kids_.end(), p->kids_.begin(), p->kids_.end());
    } else {
      n.kids_.push_back(p);
    }
  }
  std::ranges::sort(n.kids_);
  n.kids_.erase(std::unique(n.kids_.begin(), n.kids_.end()), n.kids_.end());
  if (n.kids_.size() == 1) return n.kids_[0];
  n.hash_ = node_hash(op, 0, n.kids_, {}, {}, 0, {});
  return intern(std::move(n));
}

ProcessRef Context::ext_choice(ProcessRef p, ProcessRef q) {
  return choice(Op::ExtChoice, std::array{p, q});
}

ProcessRef Context::ext_choice(std::span<const ProcessRef> ps) {
  return ps.empty() ? stop() : choice(Op::ExtChoice, ps);
}

ProcessRef Context::int_choice(ProcessRef p, ProcessRef q) {
  return choice(Op::IntChoice, std::array{p, q});
}

ProcessRef Context::int_choice(std::span<const ProcessRef> ps) {
  if (ps.empty()) throw ModelError("empty internal choice");
  return choice(Op::IntChoice, ps);
}

ProcessRef Context::seq(ProcessRef p, ProcessRef q) {
  ProcessNode n;
  n.op_ = Op::Seq;
  n.kids_ = {p, q};
  n.hash_ = node_hash(Op::Seq, 0, n.kids_, {}, {}, 0, {});
  return intern(std::move(n));
}

ProcessRef Context::par(ProcessRef p, EventSet sync, ProcessRef q) {
  if (sync.contains(TAU) || sync.contains(TICK)) {
    throw ModelError("parallel synchronisation set contains a reserved event");
  }
  ProcessNode n;
  n.op_ = Op::Par;
  n.kids_ = {p, q};
  n.events_ = std::move(sync);
  n.hash_ = node_hash(Op::Par, 0, n.kids_, n.events_, {}, 0, {});
  return intern(std::move(n));
}

ProcessRef Context::interleave(ProcessRef p, ProcessRef q) {
  return par(p, EventSet{}, q);
}

ProcessRef Context::hide(ProcessRef p, EventSet hidden) {
  if (hidden.contains(TICK)) {
    throw ModelError("cannot hide successful termination");
  }
  if (hidden.empty()) return p;
  ProcessNode n;
  n.op_ = Op::Hide;
  n.kids_ = {p};
  n.events_ = std::move(hidden);
  n.hash_ = node_hash(Op::Hide, 0, n.kids_, n.events_, {}, 0, {});
  return intern(std::move(n));
}

ProcessRef Context::rename(ProcessRef p, std::vector<RenamePair> pairs) {
  if (pairs.empty()) return p;
  std::sort(pairs.begin(), pairs.end(), [](const RenamePair& a, const RenamePair& b) {
    return std::tie(a.from, a.to) < std::tie(b.from, b.to);
  });
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  for (const RenamePair& rp : pairs) {
    if (rp.from <= TICK || rp.to <= TICK) {
      throw ModelError("renaming touches a reserved event");
    }
  }
  ProcessNode n;
  n.op_ = Op::Rename;
  n.kids_ = {p};
  n.renaming_ = std::move(pairs);
  n.hash_ = node_hash(Op::Rename, 0, n.kids_, {}, n.renaming_, 0, {});
  return intern(std::move(n));
}

ProcessRef Context::interrupt(ProcessRef p, ProcessRef q) {
  ProcessNode n;
  n.op_ = Op::Interrupt;
  n.kids_ = {p, q};
  n.hash_ = node_hash(Op::Interrupt, 0, n.kids_, {}, {}, 0, {});
  return intern(std::move(n));
}

ProcessRef Context::sliding(ProcessRef p, ProcessRef q) {
  ProcessNode n;
  n.op_ = Op::Sliding;
  n.kids_ = {p, q};
  n.hash_ = node_hash(Op::Sliding, 0, n.kids_, {}, {}, 0, {});
  return intern(std::move(n));
}

ProcessRef Context::var(Symbol name, std::vector<Value> args) {
  ProcessNode n;
  n.op_ = Op::Var;
  n.var_name_ = name;
  n.var_args_ = std::move(args);
  n.hash_ = node_hash(Op::Var, 0, {}, {}, {}, name, n.var_args_);
  return intern(std::move(n));
}

ProcessRef Context::var(std::string_view name, std::vector<Value> args) {
  return var(sym(name), std::move(args));
}

ProcessRef Context::run(const EventSet& a) {
  const std::string name = "_RUN" + std::to_string(run_counter_++);
  const Symbol s = sym(name);
  define(name, [a, s](Context& ctx, std::span<const Value>) {
    std::vector<ProcessRef> branches;
    branches.reserve(a.size());
    for (EventId e : a) branches.push_back(ctx.prefix(e, ctx.var(s)));
    return ctx.ext_choice(branches);
  });
  return var(s);
}

ProcessRef Context::chaos(const EventSet& a) {
  const std::string name = "_CHAOS" + std::to_string(run_counter_++);
  const Symbol s = sym(name);
  define(name, [a, s](Context& ctx, std::span<const Value>) {
    std::vector<ProcessRef> branches;
    branches.push_back(ctx.stop());
    for (EventId e : a) branches.push_back(ctx.prefix(e, ctx.var(s)));
    return ctx.int_choice(branches);
  });
  return var(s);
}

// --- named definitions --------------------------------------------------------

void Context::define(std::string_view name, DefBody body) {
  const Symbol s = sym(name);
  defs_[s] = std::move(body);
  // Invalidate memoised resolutions of this name (redefinition in tests).
  std::erase_if(resolved_, [s](const auto& kv) { return kv.first.name == s; });
}

void Context::define(std::string_view name, ProcessRef body) {
  define(name, [body](Context&, std::span<const Value>) { return body; });
}

ProcessRef Context::resolve(Symbol name, const std::vector<Value>& args) {
  VarKey key{name, args};
  if (auto it = resolved_.find(key); it != resolved_.end()) return it->second;
  auto def = defs_.find(name);
  if (def == defs_.end()) {
    throw ModelError("undefined process '" + symbols_.name(name) + "'");
  }
  ProcessRef body = def->second(*this, std::span<const Value>(args));
  resolved_.emplace(std::move(key), body);
  return body;
}

ProcessRef Context::canonical(ProcessRef p) {
  if (p->op() != Op::Var) return p;
  if (auto it = canonical_cache_.find(p); it != canonical_cache_.end()) {
    return it->second;
  }
  ProcessRef cur = p;
  std::vector<ProcessRef> chain;
  while (cur->op() == Op::Var) {
    if (std::find(chain.begin(), chain.end(), cur) != chain.end()) {
      throw ModelError("unguarded recursion through '" +
                       symbols_.name(cur->var_name()) + "'");
    }
    chain.push_back(cur);
    cur = resolve(cur->var_name(), cur->var_args());
  }
  for (ProcessRef link : chain) canonical_cache_.emplace(link, cur);
  return cur;
}

// --- operational semantics -----------------------------------------------------

const std::vector<Transition>& Context::transitions(ProcessRef p) {
  if (auto it = transition_cache_.find(p); it != transition_cache_.end()) {
    return it->second;
  }
  auto [it, inserted] = transition_cache_.emplace(p, compute_transitions(p));
  (void)inserted;
  return it->second;
}

std::vector<Transition> Context::compute_transitions(ProcessRef p) {
  std::vector<Transition> out;
  switch (p->op()) {
    case Op::Stop:
    case Op::Omega:
      break;

    case Op::Skip:
      out.push_back({TICK, omega()});
      break;

    case Op::Prefix:
      out.push_back({p->event(), p->kid(0)});
      break;

    case Op::ExtChoice: {
      // tau moves keep the choice pending; visible events and tick resolve it.
      const std::span<const ProcessRef> kids = p->kids();
      for (std::size_t i = 0; i < kids.size(); ++i) {
        for (const Transition& t : transitions(kids[i])) {
          if (t.event == TAU) {
            std::vector<ProcessRef> pending(kids.begin(), kids.end());
            pending[i] = t.target;
            out.push_back({TAU, ext_choice(pending)});
          } else {
            out.push_back(t);
          }
        }
      }
      break;
    }

    case Op::IntChoice:
      for (ProcessRef k : p->kids()) out.push_back({TAU, k});
      break;

    case Op::Seq: {
      // P;Q runs P; P's successful termination becomes an internal handover.
      ProcessRef l = p->kid(0);
      ProcessRef r = p->kid(1);
      for (const Transition& t : transitions(l)) {
        if (t.event == TICK) {
          out.push_back({TAU, r});
        } else {
          out.push_back({t.event, seq(t.target, r)});
        }
      }
      break;
    }

    case Op::Par: {
      ProcessRef l = p->kid(0);
      ProcessRef r = p->kid(1);
      const EventSet& sync = p->events();
      // Distributed termination (Roscoe's Omega rule): each side's tick
      // retires that side; the composition ticks once both have retired.
      if (l->op() == Op::Omega && r->op() == Op::Omega) {
        out.push_back({TICK, omega()});
        break;
      }
      const auto& lt = transitions(l);
      const auto& rt = transitions(r);
      for (const Transition& t : lt) {
        if (t.event == TICK) {
          out.push_back({TAU, par(omega(), sync, r)});
        } else if (t.event == TAU || !sync.contains(t.event)) {
          out.push_back({t.event, par(t.target, sync, r)});
        }
      }
      for (const Transition& t : rt) {
        if (t.event == TICK) {
          out.push_back({TAU, par(l, sync, omega())});
        } else if (t.event == TAU || !sync.contains(t.event)) {
          out.push_back({t.event, par(l, sync, t.target)});
        }
      }
      // Synchronised events: both sides must fire together.
      for (const Transition& a : lt) {
        if (a.event == TAU || a.event == TICK || !sync.contains(a.event)) {
          continue;
        }
        for (const Transition& b : rt) {
          if (b.event != a.event) continue;
          out.push_back({a.event, par(a.target, sync, b.target)});
        }
      }
      break;
    }

    case Op::Hide: {
      const EventSet& hidden = p->events();
      for (const Transition& t : transitions(p->kid(0))) {
        const EventId e = hidden.contains(t.event) ? TAU : t.event;
        out.push_back({e, hide(t.target, hidden)});
      }
      break;
    }

    case Op::Rename: {
      const auto& pairs = p->renaming();
      for (const Transition& t : transitions(p->kid(0))) {
        ProcessRef wrapped = rename(t.target, pairs);
        if (t.event == TAU || t.event == TICK) {
          out.push_back({t.event, wrapped});
          continue;
        }
        bool mapped = false;
        for (const RenamePair& rp : pairs) {
          if (rp.from == t.event) {
            out.push_back({rp.to, wrapped});
            mapped = true;
          }
        }
        if (!mapped) out.push_back({t.event, wrapped});
      }
      break;
    }

    case Op::Interrupt: {
      // P's behaviour continues under the interrupt; any visible event of Q
      // transfers control permanently. Q's taus keep the interrupt armed.
      ProcessRef l = p->kid(0);
      ProcessRef r = p->kid(1);
      for (const Transition& t : transitions(l)) {
        if (t.event == TICK) {
          out.push_back({TICK, t.target});  // successful termination wins
        } else {
          out.push_back({t.event, interrupt(t.target, r)});
        }
      }
      for (const Transition& t : transitions(r)) {
        if (t.event == TAU) {
          out.push_back({TAU, interrupt(l, t.target)});
        } else {
          out.push_back(t);
        }
      }
      break;
    }

    case Op::Sliding: {
      // P [> Q: P's visible behaviour resolves the choice; an internal
      // transition may discard P in favour of Q at any moment.
      ProcessRef l = p->kid(0);
      ProcessRef r = p->kid(1);
      for (const Transition& t : transitions(l)) {
        if (t.event == TAU) {
          out.push_back({TAU, sliding(t.target, r)});
        } else {
          out.push_back(t);
        }
      }
      out.push_back({TAU, r});
      break;
    }

    case Op::Var: {
      VarKey key{p->var_name(), p->var_args()};
      if (!resolving_.insert(key).second) {
        throw ModelError("unguarded recursion through '" +
                         symbols_.name(p->var_name()) + "'");
      }
      ProcessRef body = resolve(p->var_name(), p->var_args());
      out = transitions(body);
      resolving_.erase(key);
      break;
    }
  }
  // Deduplicate identical transitions (hash-consing makes targets comparable).
  std::sort(out.begin(), out.end(), [](const Transition& a, const Transition& b) {
    return std::tie(a.event, a.target) < std::tie(b.event, b.target);
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Transition& a, const Transition& b) {
                          return a.event == b.event && a.target == b.target;
                        }),
            out.end());
  return out;
}

}  // namespace ecucsp
