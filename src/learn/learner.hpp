// Active automata learning: a Kearns–Vazirani discrimination-tree learner
// with TTT-style (Rivest–Schapire) counterexample decomposition, shaped for
// prefix-closed trace languages.
//
// The classic observation-table L* pays |S|x|E| membership queries per
// refinement; the discrimination tree asks only the queries on the sift
// path of each word. Prefix closure buys two structural simplifications:
//
//   * the tree root always discriminates with the empty suffix, and its
//     reject side is a single *dead* leaf — a non-member word has no
//     member extensions, so all rejected words are one equivalence class;
//   * every live leaf's access word is a member (it sifted to the accept
//     side of the root), so every hypothesis state is accepting and the
//     hypothesis language is exactly the set of words whose run stays
//     live. Membership disagreement therefore always shows up as a
//     divergence in *how far* a word runs, which equiv.cpp exploits.
//
// Determinism: the learner issues membership queries in a fixed order
// driven only by tree shape and the (sorted) alphabet; batches are
// prefetched through the oracle and then folded sequentially. Two learners
// over equal-answer oracles perform identical query sequences and build
// identical hypotheses — the property the --jobs byte-diff tests
// pin end to end.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "learn/oracle.hpp"

namespace ecucsp::learn {

/// A deterministic, prefix-closed hypothesis: states are live leaves of
/// the discrimination tree (all accepting), and a missing edge means the
/// word stops being a trace. The Dfa's name table is the learning alphabet;
/// its root is state 0, the empty access word's leaf.
struct Hypothesis {
  conform::Dfa dfa;
  /// Access word of each state (the leaf's access string; access[root]
  /// is empty).
  std::vector<Word> access;

  bool member(const Word& word) const {
    return accepted_prefix(dfa, word) == word.size();
  }
};

/// The discrimination-tree learner. Drive it with:
///   TreeLearner l(oracle);
///   loop: H = l.hypothesis();  find counterexample w;  l.refine(w);
/// refine() returns false when w is not actually a counterexample for the
/// current hypothesis (the loop's convergence signal for that word).
class TreeLearner {
 public:
  explicit TreeLearner(MembershipOracle& oracle);

  /// Build the current hypothesis: states in leaf-creation order, every
  /// transition resolved by (batched) sifting. Pure given the tree, so
  /// calling it repeatedly is idempotent.
  Hypothesis hypothesis();

  /// Process one counterexample with Rivest–Schapire decomposition: find
  /// the first index where the oracle's answers diverge from the
  /// hypothesis's predictions and split the corresponding leaf with the
  /// remaining suffix as discriminator. Adds exactly one state per true
  /// counterexample; returns false (and changes nothing) if `word` is
  /// classified identically by oracle and current hypothesis.
  bool refine(const Word& word);

  /// Live states of the current tree.
  std::size_t states() const { return leaves_.size(); }
  /// Successful refine() calls (= states added beyond the initial one).
  std::uint64_t splits() const { return splits_; }

 private:
  struct Node {
    bool leaf = true;
    // internal
    Word suffix;
    std::int32_t accept = -1;
    std::int32_t reject = -1;
    // leaf
    Word access;
    bool dead = false;
  };

  /// Sift every word to its leaf, breadth-batched: at each tree depth the
  /// pending membership questions of *all* words are prefetched together,
  /// then resolved sequentially — parallel answers, deterministic fold.
  std::vector<std::int32_t> sift_batch(const std::vector<Word>& words);

  std::int32_t root_ = 0;
  std::int32_t dead_leaf_ = 0;
  std::vector<Node> nodes_;
  std::vector<std::int32_t> leaves_;  // live leaves, creation order
  MembershipOracle& oracle_;
  std::uint64_t splits_ = 0;
};

}  // namespace ecucsp::learn
