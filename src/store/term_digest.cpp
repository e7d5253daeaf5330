#include "store/term_digest.hpp"

#include <algorithm>

namespace ecucsp::store {

namespace {

// Per-construct framing tags. Part of the digest format: renumbering them
// invalidates every stored key, which is exactly what bumping
// kStoreFormatVersion does anyway.
enum Tag : std::uint8_t {
  kInt = 1,
  kSym = 2,
  kTuple = 3,
  kEvent = 4,
  kTau = 5,
  kTick = 6,
  kEventSet = 7,
  kOpBase = 0x10,  // + static_cast<uint8_t>(Op)
  kRename = 0x41,
};

}  // namespace

Digest TermDigester::term(ProcessRef root) {
  // Unfolding re-walks a node wherever it meets it, so a node met again
  // while its own walk is open continues there: its last started kid, then
  // the rest. Each node keeps one cursor over its kids, so each node and
  // each instance is entered once, in the order unfolding first meets them.
  struct Walk {
    std::size_t next = 0;  // kids started
    bool done = false;
  };
  std::unordered_map<ProcessRef, Walk> walks;  // the nodes and instances met
  std::vector<std::pair<Digest, Digest>> definitions;
  std::vector<std::pair<ProcessRef, bool>> open;  // (node, met again)
  const auto meet = [&](ProcessRef p) {
    while (p->op() == Op::Var) {
      if (!walks.try_emplace(p).second) return;
      const ProcessRef body = ctx_.resolve(p->var_name(), p->var_args());
      definitions.emplace_back(content(p), content(body));
      p = body;
    }
    const auto [it, fresh] = walks.try_emplace(p);
    if (!it->second.done) open.emplace_back(p, !fresh);
  };
  meet(root);
  while (!open.empty()) {
    const auto [p, again] = open.back();
    Walk& w = walks.at(p);
    if (again) {
      open.back().second = false;
      meet(p->kids()[w.next - 1]);
    } else if (w.next < p->kid_count()) {
      meet(p->kids()[w.next++]);
    } else {
      w.done = true;
      open.pop_back();
    }
  }

  Hasher h;
  h.digest(content(root));
  std::sort(definitions.begin(), definitions.end());
  for (const auto& [var, body] : definitions) h.digest(var).digest(body);
  return h.finish();
}

Digest TermDigester::event(EventId e) {
  if (auto it = event_memo_.find(e); it != event_memo_.end()) return it->second;
  Hasher h;
  feed_event(h, e);
  const Digest d = h.finish();
  event_memo_.emplace(e, d);
  return d;
}

void TermDigester::feed_value(Hasher& h, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::Int:
      h.u8(kInt).i64(v.as_int());
      return;
    case Value::Kind::Sym:
      h.u8(kSym).str(ctx_.symbols().name(v.as_sym()));
      return;
    case Value::Kind::Tuple: {
      const std::vector<Value>& fields = v.as_tuple();
      h.u8(kTuple).u64(fields.size());
      for (const Value& f : fields) feed_value(h, f);
      return;
    }
  }
}

void TermDigester::feed_event(Hasher& h, EventId e) {
  if (e == TAU) {
    h.u8(kTau);
    return;
  }
  if (e == TICK) {
    h.u8(kTick);
    return;
  }
  const ChannelDecl& chan = ctx_.channel_decl(ctx_.event_channel(e));
  h.u8(kEvent).str(ctx_.symbols().name(chan.name));
  const std::vector<Value>& fields = ctx_.event_fields(e);
  h.u64(fields.size());
  for (const Value& f : fields) feed_value(h, f);
}

void TermDigester::feed_event_set(Hasher& h, const EventSet& es) {
  // EventSets are sorted by EventId, which is an interning-order accident;
  // sort the per-event digests so the set digest is Context-independent.
  std::vector<Digest> ds;
  ds.reserve(es.size());
  for (const EventId e : es) ds.push_back(event(e));
  std::sort(ds.begin(), ds.end());
  h.u8(kEventSet).u64(ds.size());
  for (const Digest& d : ds) h.digest(d);
}

Digest TermDigester::content(ProcessRef root) {
  // Post-order from an explicit stack: a node once its kids are digested.
  std::vector<ProcessRef> todo{root};
  while (!todo.empty()) {
    const ProcessRef p = todo.back();
    const std::size_t pending = todo.size();
    if (!content_.contains(p)) {
      for (ProcessRef k : p->kids()) {
        if (!content_.contains(k)) todo.push_back(k);
      }
      if (todo.size() != pending) continue;
      content_.emplace(p, node_content(p));
    }
    todo.pop_back();
  }
  return content_.at(root);
}

Digest TermDigester::node_content(ProcessRef p) {
  Hasher self;
  self.u8(
      static_cast<std::uint8_t>(kOpBase + static_cast<std::uint8_t>(p->op())));
  switch (p->op()) {
    case Op::Stop:
    case Op::Skip:
    case Op::Omega:
    case Op::Seq:
    case Op::Interrupt:
    case Op::Sliding:
      break;
    case Op::Prefix:
      self.digest(event(p->event()));
      break;
    case Op::ExtChoice:
    case Op::IntChoice: {
      // A choice's operands are in arena-pointer order — an allocation
      // accident that must not reach the digest. Feed each operand's
      // H(content) in digest order and without a count, which keeps
      // two-operand store keys stable: every order and association hashes
      // alike.
      std::vector<Digest> ds;
      ds.reserve(p->kid_count());
      for (ProcessRef k : p->kids()) {
        Hasher operand;
        operand.digest(content_.at(k));
        ds.push_back(operand.finish());
      }
      std::sort(ds.begin(), ds.end());
      for (const Digest& d : ds) self.digest(d);
      return self.finish();
    }
    case Op::Par:
    case Op::Hide:
      feed_event_set(self, p->events());
      break;
    case Op::Rename:
      self.u8(kRename).u64(p->renaming().size());
      for (const RenamePair& r : p->renaming()) {
        self.digest(event(r.from));
        self.digest(event(r.to));
      }
      break;
    case Op::Var:
      self.str(ctx_.symbols().name(p->var_name()));
      self.u64(p->var_args().size());
      for (const Value& a : p->var_args()) feed_value(self, a);
      break;
  }
  // Every other operator feeds its operands in order, after its fields.
  for (ProcessRef k : p->kids()) self.digest(content_.at(k));
  return self.finish();
}

Digest digest_term(Context& ctx, ProcessRef p) {
  TermDigester d(ctx);
  return d.term(p);
}

}  // namespace ecucsp::store
