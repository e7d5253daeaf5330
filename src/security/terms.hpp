// Symbolic cryptographic message terms and the Dolev-Yao deduction system.
//
// Messages are core Values: atoms (agent names, nonces, keys) are symbols;
// compound terms are tagged tuples:
//   <"pair", a, b>      pairing
//   <"senc", k, m>      symmetric encryption under key k
//   <"aenc", pk, m>     asymmetric encryption under public key pk
//   <"pk", a> / <"sk", a>  key pairs of agent a
//   <"mac", k, m>       message authentication code (X.1373's shared-key mode)
// The deduction closure implements the standard Dolev-Yao rules, bounded by
// a finite message universe (the closure only *composes* terms that appear
// in the universe, which keeps intruder state spaces finite — the classic
// Roscoe/Ryan-Schneider treatment the paper cites as [30]).
//
// The closure runs over a TermIndex: dense ids for a fixed set of terms and
// their sub-terms, knowledge as a bitset over those ids, and a semi-naive
// worklist that visits only the consequences of newly learnt ids.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/context.hpp"

namespace ecucsp::security {

class TermAlgebra {
 public:
  explicit TermAlgebra(Context& ctx)
      : ctx_(ctx),
        pair_tag_(ctx.sym("pair")),
        senc_tag_(ctx.sym("senc")),
        aenc_tag_(ctx.sym("aenc")),
        mac_tag_(ctx.sym("mac")),
        pk_tag_(ctx.sym("pk")),
        sk_tag_(ctx.sym("sk")) {}

  Value atom(std::string_view name) const {
    return Value::symbol(ctx_.sym(name));
  }
  Value pair(const Value& a, const Value& b) const {
    return Value::tuple({Value::symbol(pair_tag_), a, b});
  }
  Value senc(const Value& key, const Value& body) const {
    return Value::tuple({Value::symbol(senc_tag_), key, body});
  }
  Value aenc(const Value& pubkey, const Value& body) const {
    return Value::tuple({Value::symbol(aenc_tag_), pubkey, body});
  }
  Value mac(const Value& key, const Value& body) const {
    return Value::tuple({Value::symbol(mac_tag_), key, body});
  }
  Value pk(const Value& agent) const {
    return Value::tuple({Value::symbol(pk_tag_), agent});
  }
  Value sk(const Value& agent) const {
    return Value::tuple({Value::symbol(sk_tag_), agent});
  }

  bool is_pair(const Value& v) const { return tagged(v, pair_tag_, 3); }
  bool is_senc(const Value& v) const { return tagged(v, senc_tag_, 3); }
  bool is_aenc(const Value& v) const { return tagged(v, aenc_tag_, 3); }
  bool is_mac(const Value& v) const { return tagged(v, mac_tag_, 3); }
  bool is_pk(const Value& v) const { return tagged(v, pk_tag_, 2); }
  bool is_sk(const Value& v) const { return tagged(v, sk_tag_, 2); }

  /// First / second component of a tagged term.
  const Value& arg(const Value& v, std::size_t i) const {
    return v.as_tuple().at(i + 1);
  }

  /// Dolev-Yao closure of `knowledge`, composing only terms in `universe`.
  /// Decomposition (unpairing, decryption with known keys) is unrestricted;
  /// composition (pairing, encrypting, MACing) is bounded by the universe.
  std::set<Value> close(std::set<Value> knowledge,
                        const std::vector<Value>& universe) const;

  /// Can `goal` be derived from `knowledge` (within `universe`)?
  bool derivable(const std::set<Value>& knowledge,
                 const std::vector<Value>& universe, const Value& goal) const {
    return close({knowledge.begin(), knowledge.end()}, universe)
        .contains(goal);
  }

  Context& context() const { return ctx_; }

 private:
  bool tagged(const Value& v, Symbol tag, std::size_t arity) const {
    return v.is_tuple() && v.as_tuple().size() == arity &&
           v.as_tuple()[0].is_sym() && v.as_tuple()[0].as_sym() == tag;
  }

  Context& ctx_;
  Symbol pair_tag_;
  Symbol senc_tag_;
  Symbol aenc_tag_;
  Symbol mac_tag_;
  Symbol pk_tag_;
  Symbol sk_tag_;
};

/// Dense ids for the sub-term closure of a fixed term set, with the indexes
/// the Dolev-Yao rules fire from. Ids follow first sight in the
/// constructor's argument order, so they are a function of those arguments
/// alone, never of what a Context interned before.
class TermIndex {
 public:
  using Id = std::uint32_t;
  /// Knowledge: bit `id` is set iff term `id` is known.
  using Bits = std::vector<std::uint64_t>;

  /// Index `universe` (the terms the intruder may compose), then `extra`,
  /// with every sub-term of either.
  TermIndex(const TermAlgebra& terms, std::span<const Value> universe,
            std::span<const Value> extra);

  std::size_t size() const { return terms_.size(); }
  Id id(const Value& v) const { return ids_.at(v); }
  const Value& term(Id id) const { return terms_[id]; }

  Bits none() const { return Bits((size() + 63) / 64, 0); }
  static bool has(const Bits& k, Id id) {
    return (k[id / 64] >> (id % 64)) & 1;
  }
  /// Add `id` to the closed knowledge `k` and close it again.
  void learn(Bits& k, Id id) const;

 private:
  enum class Ctor : std::uint8_t { Atom, Pair, Senc, Aenc, Mac };
  static constexpr Id kNone = ~Id{0};
  struct Node {
    Ctor ctor = Ctor::Atom;
    Id a = kNone;             // first component (the key of senc/aenc/mac)
    Id b = kNone;             // second component (the body)
    Id secret = kNone;        // aenc(pk(x), m): the id of sk(x), if indexed
    std::vector<Id> opens;    // ciphertexts this id decrypts
    std::vector<Id> used_by;  // universe composites with this component
  };

  Id visit(const TermAlgebra& terms, const Value& v);

  std::vector<Value> terms_;
  std::vector<Node> nodes_;
  std::unordered_map<Value, Id, ValueHash> ids_;
};

}  // namespace ecucsp::security
