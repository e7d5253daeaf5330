// Test support: the naive Dolev-Yao closure that TermAlgebra::close
// replaced, kept verbatim as an independent reference. Every round rescans
// all of the knowledge and the whole universe until nothing new is added.
// The semi-naive closure over a TermIndex in src/security must derive
// exactly the set this one derives.
#pragma once

#include <set>
#include <vector>

#include "security/terms.hpp"

namespace ecucsp::security::reference {

/// The old closure's body, unchanged; deriving from TermAlgebra keeps its
/// unqualified calls to the recognisers and constructors.
struct NaiveAlgebra : TermAlgebra {
  explicit NaiveAlgebra(const TermAlgebra& terms) : TermAlgebra(terms) {}

  std::set<Value> close(std::set<Value> knowledge,
                        const std::vector<Value>& universe) const {
    bool changed = true;
    while (changed) {
      changed = false;
      std::vector<Value> to_add;

      // Decomposition rules.
      for (const Value& v : knowledge) {
        if (is_pair(v)) {
          if (!knowledge.contains(arg(v, 0))) to_add.push_back(arg(v, 0));
          if (!knowledge.contains(arg(v, 1))) to_add.push_back(arg(v, 1));
        } else if (is_senc(v)) {
          // senc(k, m) + k  |-  m
          if (knowledge.contains(arg(v, 0)) && !knowledge.contains(arg(v, 1))) {
            to_add.push_back(arg(v, 1));
          }
        } else if (is_aenc(v)) {
          // aenc(pk(a), m) + sk(a)  |-  m
          const Value& key = arg(v, 0);
          if (is_pk(key)) {
            const Value secret = sk(arg(key, 0));
            if (knowledge.contains(secret) && !knowledge.contains(arg(v, 1))) {
              to_add.push_back(arg(v, 1));
            }
          }
        }
        // MACs reveal nothing (one-way).
      }

      // Composition rules, bounded by the universe.
      for (const Value& target : universe) {
        if (knowledge.contains(target)) continue;
        bool can_build = false;
        if (is_pair(target)) {
          can_build = knowledge.contains(arg(target, 0)) &&
                      knowledge.contains(arg(target, 1));
        } else if (is_senc(target) || is_mac(target)) {
          can_build = knowledge.contains(arg(target, 0)) &&
                      knowledge.contains(arg(target, 1));
        } else if (is_aenc(target)) {
          // Encrypting needs the public key (public in most models, but we
          // still require it to be known) and the plaintext.
          can_build = knowledge.contains(arg(target, 0)) &&
                      knowledge.contains(arg(target, 1));
        }
        if (can_build) to_add.push_back(target);
      }

      for (const Value& v : to_add) {
        changed |= knowledge.insert(v).second;
      }
    }
    return knowledge;
  }
};

}  // namespace ecucsp::security::reference
