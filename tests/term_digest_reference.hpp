// Test support: the unfolding term digester that store::TermDigester
// replaced, kept verbatim as an independent reference. It digests a Var by
// unfolding its body, emits a back-reference marker when it re-enters a
// definition instance that is still open, and turns its memo off while any
// instance is open, so it walks every path through a definition graph.
// The one-walk digester in src/store must put terms into the same key
// classes, keep the bytes of terms that reach no Var, and resolve
// definitions in the same order.
#pragma once

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "core/context.hpp"
#include "store/digest.hpp"

namespace ecucsp::store::reference {

class ReferenceTermDigester {
 public:
  explicit ReferenceTermDigester(Context& ctx) : ctx_(ctx) {}

  Digest term(ProcessRef p);
  Digest event(EventId e);
  Digest value(const Value& v);
  Digest event_set(const EventSet& es);

 private:
  /// Feeds p's digest into h; returns the depth of the outermost still-open
  /// recursion binder the subtree back-referenced (kClosed when none), which
  /// gates memoisation — see the comment in the implementation.
  int feed_term(Hasher& h, ProcessRef p);
  void feed_event(Hasher& h, EventId e);
  void feed_value(Hasher& h, const Value& v);
  void feed_event_set(Hasher& h, const EventSet& es);

  Context& ctx_;
  std::unordered_map<ProcessRef, Digest> memo_;  // closed nodes only
  std::unordered_map<EventId, Digest> event_memo_;
  std::unordered_map<ProcessRef, int> open_;  // Var nodes being unfolded -> depth
};

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
  kOpBase = 0x10,     // + static_cast<uint8_t>(Op)
  kVarBackRef = 0x40,
  kRename = 0x41,
};

constexpr int kClosed = std::numeric_limits<int>::max();

}  // namespace

inline Digest ReferenceTermDigester::term(ProcessRef p) {
  Hasher h;
  feed_term(h, p);
  return h.finish();
}

inline Digest ReferenceTermDigester::event(EventId e) {
  if (auto it = event_memo_.find(e); it != event_memo_.end()) return it->second;
  Hasher h;
  feed_event(h, e);
  const Digest d = h.finish();
  event_memo_.emplace(e, d);
  return d;
}

inline Digest ReferenceTermDigester::value(const Value& v) {
  Hasher h;
  feed_value(h, v);
  return h.finish();
}

inline Digest ReferenceTermDigester::event_set(const EventSet& es) {
  Hasher h;
  feed_event_set(h, es);
  return h.finish();
}

inline void ReferenceTermDigester::feed_value(Hasher& h, const Value& v) {
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

inline void ReferenceTermDigester::feed_event(Hasher& h, EventId e) {
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

inline void ReferenceTermDigester::feed_event_set(Hasher& h, const EventSet& es) {
  // EventSets are sorted by EventId, which is an interning-order accident;
  // sort the per-event digests so the set digest is Context-independent.
  std::vector<Digest> ds;
  ds.reserve(es.size());
  for (const EventId e : es) ds.push_back(event(e));
  std::sort(ds.begin(), ds.end());
  h.u8(kEventSet).u64(ds.size());
  for (const Digest& d : ds) h.digest(d);
}

inline int ReferenceTermDigester::feed_term(Hasher& h, ProcessRef p) {
  // A node's digest is memoisable only if it is *closed*: digesting it
  // touched no recursion binder that is still open above this position
  // (otherwise the memoised digest would bake a back-reference in and leak
  // it to positions where the binder is not open). feed_term returns the
  // depth of the outermost open binder the subtree referenced, or kClosed.
  //
  // Symmetrically, memo *lookups* are only sound while no binder is open:
  // under an open binder a fresh traversal of a node that references that
  // binder emits back-reference bytes, while its memoised digest (computed
  // standalone) unfolds it — hitting the memo there would make a node's
  // digest depend on what the digester saw earlier. Positions with open
  // binders are recomputed instead, so digests are pure in the term.
  if (open_.empty()) {
    if (auto it = memo_.find(p); it != memo_.end()) {
      h.digest(it->second);
      return kClosed;
    }
  }

  Hasher self;
  int min_ref = kClosed;
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
      // accident that must not reach the digest. Feed the operand digests
      // in digest order and without a count, which keeps two-operand store
      // keys stable: every order and association hashes alike.
      std::vector<Digest> ds;
      ds.reserve(p->kid_count());
      for (ProcessRef k : p->kids()) {
        Hasher sub;
        min_ref = std::min(min_ref, feed_term(sub, k));
        ds.push_back(sub.finish());
      }
      std::sort(ds.begin(), ds.end());
      for (const Digest& d : ds) self.digest(d);
      break;
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
    case Op::Var: {
      self.str(ctx_.symbols().name(p->var_name()));
      self.u64(p->var_args().size());
      for (const Value& a : p->var_args()) feed_value(self, a);
      if (auto it = open_.find(p); it != open_.end()) {
        // Recursive back-edge, identified by the name/args fed above.
        self.u8(kVarBackRef);
        h.digest(self.finish());
        return it->second;
      }
      const int depth = static_cast<int>(open_.size());
      open_.emplace(p, depth);
      const ProcessRef body = ctx_.resolve(p->var_name(), p->var_args());
      const int body_ref = feed_term(self, body);
      open_.erase(p);
      // References to this binder (or ones opened inside the body, which
      // have all closed again by now) are resolved here; only references
      // to binders opened *above* keep the node open.
      min_ref = body_ref < depth ? body_ref : kClosed;
      break;
    }
  }
  // Every other operator feeds its operands in order, after its fields.
  if (p->op() != Op::ExtChoice && p->op() != Op::IntChoice) {
    for (ProcessRef k : p->kids()) {
      min_ref = std::min(min_ref, feed_term(self, k));
    }
  }

  const Digest d = self.finish();
  if (min_ref == kClosed) memo_.emplace(p, d);
  h.digest(d);
  return min_ref;
}

}  // namespace ecucsp::store::reference
