#include "learn/learner.hpp"

#include <stdexcept>

namespace ecucsp::learn {

namespace {

Word concat(const Word& a, const Word& b) {
  Word out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

Word concat(const Word& a, const std::string& e, const Word& b) {
  Word out = a;
  out.push_back(e);
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

TreeLearner::TreeLearner(MembershipOracle& oracle) : oracle_(oracle) {
  // Root discriminates with the empty suffix. Its reject side is the one
  // dead leaf (prefix closure: all non-members are equivalent); its accept
  // side starts as the leaf of the empty access word — the empty trace is
  // a member of every trace language.
  Node root;
  root.leaf = false;
  root.suffix = {};
  nodes_.push_back(root);  // 0

  Node dead;
  dead.leaf = true;
  dead.dead = true;
  nodes_.push_back(dead);  // 1

  Node eps;
  eps.leaf = true;
  nodes_.push_back(eps);  // 2

  root_ = 0;
  dead_leaf_ = 1;
  nodes_[0].accept = 2;
  nodes_[0].reject = 1;
  leaves_ = {2};
}

std::vector<std::int32_t> TreeLearner::sift_batch(
    const std::vector<Word>& words) {
  // All words descend in lockstep; one prefetch per tree depth resolves
  // the whole frontier's membership questions in parallel, then the
  // descent itself folds sequentially.
  std::vector<std::int32_t> at(words.size(), root_);
  for (;;) {
    std::vector<Word> queries;
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (!nodes_[static_cast<std::size_t>(at[i])].leaf) {
        queries.push_back(
            concat(words[i], nodes_[static_cast<std::size_t>(at[i])].suffix));
      }
    }
    if (queries.empty()) return at;
    oracle_.prefetch(queries);
    for (std::size_t i = 0; i < words.size(); ++i) {
      Node& n = nodes_[static_cast<std::size_t>(at[i])];
      if (n.leaf) continue;
      at[i] = oracle_.member(concat(words[i], n.suffix)) ? n.accept : n.reject;
    }
  }
}

Hypothesis TreeLearner::hypothesis() {
  const std::vector<std::string>& sigma = oracle_.alphabet();
  const std::size_t n = leaves_.size();
  const std::size_t k = sigma.size();

  // State numbering = live-leaf creation order; the root state is the
  // empty access word's leaf, which is created first.
  Hypothesis h;
  std::vector<std::uint32_t> state_of(nodes_.size(), conform::Dfa::NONE);
  h.access.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    state_of[static_cast<std::size_t>(leaves_[s])] = static_cast<std::uint32_t>(s);
    h.access[s] = nodes_[static_cast<std::size_t>(leaves_[s])].access;
  }

  // Transitions: sift access(q)·a for every (state, symbol), all in one
  // breadth-batched pass.
  std::vector<Word> words;
  words.reserve(n * k);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t a = 0; a < k; ++a) {
      words.push_back(concat(h.access[s], sigma[a], {}));
    }
  }
  const std::vector<std::int32_t> target = sift_batch(words);

  conform::DfaBuilder dfa(sigma);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t a = 0; a < k; ++a) {
      const std::int32_t leaf = target[s * k + a];
      if (leaf != dead_leaf_) {
        dfa.edge(sigma[a], state_of[static_cast<std::size_t>(leaf)]);
      }
    }
    dfa.end_state();
  }
  h.dfa = std::move(dfa).finish(0);
  return h;
}

bool TreeLearner::refine(const Word& word) {
  const Hypothesis h = hypothesis();
  const std::size_t h_acc = accepted_prefix(h.dfa, word);
  const bool h_member = h_acc == word.size();
  oracle_.prefetch({word});
  const bool l_member = oracle_.member(word);
  if (h_member == l_member) return false;

  // Hypothesis run states q_0..q_last (all live; last = h_acc).
  const std::size_t last = h_acc;
  std::vector<std::uint32_t> run{h.dfa.root};
  for (std::size_t i = 0; i < last; ++i) {
    run.push_back(h.dfa.step(run.back(), h.dfa.symbol(word[i])));
  }

  // Rivest–Schapire: beta_i = member(access(q_i) · word[i..]).
  //  * hypothesis accepts, oracle rejects: beta_0 = false, beta_m = true
  //    (access words are members);
  //  * hypothesis run dies at `last`, oracle accepts: beta_0 = true and
  //    beta_last = false (its prefix access(q_last)·word[last] was already
  //    established a non-member when the dead transition was sifted, and
  //    prefix closure propagates the rejection).
  // Either way beta flips somewhere in [0, last); the first flip i names a
  // wrong transition q_i --word[i]--> q_{i+1}, and the remaining suffix
  // word[i+1..] distinguishes access(q_i)·word[i] from access(q_{i+1}).
  std::vector<Word> beta_words(last + 1);
  for (std::size_t i = 0; i <= last; ++i) {
    beta_words[i] = concat(h.access[run[i]],
                           Word(word.begin() + static_cast<std::ptrdiff_t>(i),
                                word.end()));
  }
  oracle_.prefetch(beta_words);
  std::size_t flip = last;  // first i with beta_i != beta_{i+1}
  bool beta_i = oracle_.member(beta_words[0]);
  bool beta_flip_side = beta_i;
  for (std::size_t i = 0; i < last; ++i) {
    const bool beta_next = oracle_.member(beta_words[i + 1]);
    if (beta_next != beta_i) {
      flip = i;
      beta_flip_side = beta_i;
      break;
    }
    beta_i = beta_next;
  }
  if (flip == last) {
    // Cannot happen for a true counterexample (see the case analysis
    // above); a hard throw beats silently looping forever.
    throw std::logic_error("learn: counterexample with no beta flip");
  }

  // Split the leaf of q_{flip+1}: it becomes an internal node testing the
  // suffix word[flip+1..]; the old access word keeps its hypothesis state
  // slot (a fresh leaf node at the same position in leaves_), the new
  // access word access(q_flip)·word[flip] becomes a new state.
  const std::int32_t split_node = leaves_[run[flip + 1]];
  const Word new_access = concat(h.access[run[flip]], word[flip], {});
  const Word suffix(word.begin() + static_cast<std::ptrdiff_t>(flip) + 1,
                    word.end());

  Node old_leaf;
  old_leaf.leaf = true;
  old_leaf.access = nodes_[static_cast<std::size_t>(split_node)].access;
  const auto old_id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(old_leaf);

  Node new_leaf;
  new_leaf.leaf = true;
  new_leaf.access = new_access;
  const auto new_id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(new_leaf);

  Node& internal = nodes_[static_cast<std::size_t>(split_node)];
  internal.leaf = false;
  internal.access.clear();
  internal.suffix = suffix;
  // member(new_access · suffix) = beta_flip_side;
  // member(old access · suffix) = !beta_flip_side (the flip).
  internal.accept = beta_flip_side ? new_id : old_id;
  internal.reject = beta_flip_side ? old_id : new_id;

  leaves_[run[flip + 1]] = old_id;
  leaves_.push_back(new_id);
  ++splits_;
  return true;
}

}  // namespace ecucsp::learn
