// Context-independent structural digests of process terms: the store's keys.
//
// A key must be identical across Contexts, processes and runs whenever the
// term is structurally the same model — EventIds, Symbols and ProcessRef
// pointers are per-Context accidents, so keys are computed over *names*:
// channel names, symbol spellings, field values and operator structure.
//
// content(p) digests a node's operator, fields and kids' contents; a Var is
// its name and arguments, never its body, so content is memoised per node.
// term(p) is H(content(p)), extended by the sorted pairs (content(V),
// content(body of V)) of every definition instance V that p reaches. Two
// terms share a key when their roots and the definitions they reach are the
// same, so editing one CAPL handler changes exactly the keys of the terms
// that reach it. One walk resolves the instances, in the order a
// depth-first unfolding first meets them (lazily built bodies intern their
// events in that order), and visits each node and instance once.
//
// A TermDigester memoises per ProcessRef *within one Context*; construct
// one per Context (or per check) and never share across Contexts.
#pragma once

#include <unordered_map>

#include "core/context.hpp"
#include "store/digest.hpp"

namespace ecucsp::store {

class TermDigester {
 public:
  explicit TermDigester(Context& ctx) : ctx_(ctx) {}

  Digest term(ProcessRef p);
  Digest event(EventId e);

 private:
  Digest content(ProcessRef p);
  /// p's content from its kids' contents, which must be memoised already.
  Digest node_content(ProcessRef p);
  void feed_event(Hasher& h, EventId e);
  void feed_value(Hasher& h, const Value& v);
  void feed_event_set(Hasher& h, const EventSet& es);

  Context& ctx_;
  std::unordered_map<ProcessRef, Digest> content_;
  std::unordered_map<EventId, Digest> event_memo_;
};

/// One-shot convenience.
Digest digest_term(Context& ctx, ProcessRef p);

}  // namespace ecucsp::store
