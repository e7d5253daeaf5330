#include "security/terms.hpp"

namespace ecucsp::security {

TermIndex::TermIndex(const TermAlgebra& terms, std::span<const Value> universe,
                     std::span<const Value> extra) {
  std::vector<Id> composable;
  for (const Value& v : universe) composable.push_back(visit(terms, v));
  for (const Value& v : extra) visit(terms, v);

  for (Id c = 0; c < nodes_.size(); ++c) {
    Node& n = nodes_[c];
    if (n.ctor == Ctor::Senc) nodes_[n.a].opens.push_back(c);
    if (n.ctor != Ctor::Aenc || !terms.is_pk(terms_[n.a])) continue;
    const auto secret = ids_.find(terms.sk(terms.arg(terms_[n.a], 0)));
    if (secret == ids_.end()) continue;
    n.secret = secret->second;
    nodes_[n.secret].opens.push_back(c);
  }
  std::vector<bool> seen(nodes_.size(), false);
  for (const Id c : composable) {
    const Node& n = nodes_[c];
    if (n.ctor == Ctor::Atom || seen[c]) continue;
    seen[c] = true;
    nodes_[n.a].used_by.push_back(c);
    if (n.b != n.a) nodes_[n.b].used_by.push_back(c);
  }
}

TermIndex::Id TermIndex::visit(const TermAlgebra& terms, const Value& v) {
  if (const auto it = ids_.find(v); it != ids_.end()) return it->second;
  const Id id = static_cast<Id>(terms_.size());
  ids_.emplace(v, id);
  terms_.push_back(v);
  nodes_.emplace_back();
  Ctor ctor = Ctor::Atom;
  if (terms.is_pair(v)) ctor = Ctor::Pair;
  if (terms.is_senc(v)) ctor = Ctor::Senc;
  if (terms.is_aenc(v)) ctor = Ctor::Aenc;
  if (terms.is_mac(v)) ctor = Ctor::Mac;
  if (ctor != Ctor::Atom) {
    const Id a = visit(terms, terms.arg(v, 0));
    const Id b = visit(terms, terms.arg(v, 1));
    nodes_[id].ctor = ctor;
    nodes_[id].a = a;
    nodes_[id].b = b;
  }
  return id;
}

void TermIndex::learn(Bits& k, Id id) const {
  std::vector<Id> work;
  const auto give = [&](Id t) {
    if (has(k, t)) return;
    k[t / 64] |= std::uint64_t{1} << (t % 64);
    work.push_back(t);
  };
  give(id);
  while (!work.empty()) {
    const Node& n = nodes_[work.back()];
    work.pop_back();
    // Decomposition: unpairing, and decryption with a known key. MACs
    // reveal nothing (one-way).
    if (n.ctor == Ctor::Pair) {
      give(n.a);
      give(n.b);
    } else if (n.ctor == Ctor::Senc && has(k, n.a)) {
      give(n.b);
    } else if (n.ctor == Ctor::Aenc && n.secret != kNone && has(k, n.secret)) {
      give(n.b);
    }
    for (const Id c : n.opens) {
      if (has(k, c)) give(nodes_[c].b);
    }
    // Composition, bounded by the universe: both components known.
    for (const Id c : n.used_by) {
      if (has(k, nodes_[c].a) && has(k, nodes_[c].b)) give(c);
    }
  }
}

std::set<Value> TermAlgebra::close(std::set<Value> knowledge,
                                   const std::vector<Value>& universe) const {
  const std::vector<Value> seed(knowledge.begin(), knowledge.end());
  const TermIndex index(*this, universe, seed);
  TermIndex::Bits known = index.none();
  for (const Value& v : seed) index.learn(known, index.id(v));
  for (TermIndex::Id id = 0; id < index.size(); ++id) {
    if (TermIndex::has(known, id)) knowledge.insert(index.term(id));
  }
  return knowledge;
}

}  // namespace ecucsp::security
