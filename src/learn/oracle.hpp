// Membership oracles for active automata learning.
//
// The learner (learn/learner.hpp) asks one kind of question: "is this word
// a trace of the target?". Trace languages are prefix-closed, so the
// natural primitive is sharper than a boolean — accepted_prefix(w) returns
// how many events of w the target accepts from the front, which answers
// membership for *every* prefix of w at once. For the simulated-ECU oracle
// this collapses what would be |w| harness runs into one: the harness
// observation obs(skeleton(w)) decides w and all its prefixes (the prefix
// lemma documented in DESIGN.md §16).
//
// Determinism contract: answers are pure functions of (target, word) — the
// ECU oracle derives each run's environment seed from (base seed, stimulus
// skeleton) alone, so the same question always gets the same answer, in
// any batch, at any parallelism. prefetch() only warms caches; counters
// are advanced by the sequential caller, never by worker threads.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "can/dbc.hpp"
#include "capl/ast.hpp"
#include "conform/automaton.hpp"
#include "conform/harness.hpp"

namespace ecucsp::verify {
class VerifyScheduler;
}

namespace ecucsp::learn {

/// A word over the learning alphabet: abstract conform-layer event names
/// ("send.SwInventoryReq", "rec.UpdReport", ...).
using Word = std::vector<std::string>;

/// Number of events of `word` a walk of `dfa` from its root runs through:
/// every state accepts, and a name outside the table or without an edge
/// stops the walk. The length-k prefix of `word` is in the walk language
/// iff k <= the result.
std::size_t accepted_prefix(const conform::Dfa& dfa, const Word& word);

class MembershipOracle {
 public:
  virtual ~MembershipOracle() = default;

  /// The learning alphabet Sigma, sorted. Every queried word is over it.
  virtual const std::vector<std::string>& alphabet() const = 0;

  /// Length of the longest prefix of `word` that is a trace of the target.
  /// Prefix closure makes this the complete answer sheet for word and all
  /// its prefixes: the length-k prefix is a trace iff k <= the result.
  std::size_t accepted_prefix(const Word& word) {
    ++queries_;
    return lookup(word);
  }

  /// Is `word` itself a trace of the target?
  bool member(const Word& word) {
    return accepted_prefix(word) == word.size();
  }

  /// Resolve a batch of future questions in parallel so that subsequent
  /// accepted_prefix / member calls answer from cache. Purely a warm-up:
  /// answers and counters are unchanged by whether (or how) it ran.
  virtual void prefetch(const std::vector<Word>& /*words*/) {}

  /// Questions asked (accepted_prefix calls, member included). Counted on
  /// the caller's thread only, so deterministic at any parallelism.
  std::uint64_t queries() const { return queries_; }

  /// Distinct target executions performed (harness runs / automaton
  /// walks). Deterministic because the *set* of executions is a function
  /// of the question sequence, not of scheduling.
  std::uint64_t evaluations() const { return evaluations_; }

 protected:
  /// Cached answer for `word`; derived classes own the cache geometry.
  virtual std::size_t lookup(const Word& word) = 0;

  std::uint64_t queries_ = 0;
  std::uint64_t evaluations_ = 0;
};

/// White-box oracle over an explicit automaton: the target language is the
/// walk language of `automaton` (every state accepting, a missing edge
/// refuses). Used by the differential battery to learn the seeded
/// requirement/model automata back and compare hypotheses for
/// strong-bisimulation equivalence — the ground-truth half of the
/// Learn–Check–Test loop's correctness argument.
class AutomatonOracle final : public MembershipOracle {
 public:
  /// `alphabet` must be sorted; words are judged by walking `automaton`
  /// (which the oracle copies, so the source may die).
  AutomatonOracle(conform::Dfa automaton, std::vector<std::string> alphabet);

  const std::vector<std::string>& alphabet() const override {
    return alphabet_;
  }

 protected:
  std::size_t lookup(const Word& word) override;

 private:
  conform::Dfa automaton_;
  std::vector<std::string> alphabet_;
  std::map<Word, std::size_t> cache_;
};

/// Black-box oracle over the simulated ECU, driven through the conformance
/// harness: member(w) iff w is a prefix of obs(skeleton(w)), where
/// skeleton(w) keeps exactly the stimulus events the codec can concretize
/// and obs is the abstracted bus observation of injecting them under the
/// quiescence discipline (one settle window apart). The run cache is keyed
/// on the skeleton: planned response events consume neither time nor rng
/// in the harness, so every word with the same skeleton shares one
/// observation — and by the prefix lemma that observation also answers all
/// of the word's prefixes.
class EcuMembershipOracle final : public MembershipOracle {
 public:
  struct Options {
    /// Base seed; each run's environment seed is derived from it and the
    /// skeleton, so runs are reproducible and order-independent.
    std::uint64_t seed = 1;
    std::uint64_t settle_us = 5'000;
    std::uint64_t deadline_us = 2'000'000;
  };

  /// `ecu`, `db`, `codec` must outlive the oracle. `alphabet` must be
  /// sorted. `sched` (optional, non-owning) parallelises prefetch().
  EcuMembershipOracle(const capl::CaplProgram& ecu,
                      const can::DbcDatabase& db,
                      const conform::FrameCodec& codec,
                      std::vector<std::string> alphabet, Options opt,
                      verify::VerifyScheduler* sched = nullptr);

  const std::vector<std::string>& alphabet() const override {
    return alphabet_;
  }

  /// Run every not-yet-cached distinct skeleton of `words` through the
  /// harness, in parallel when a scheduler was given. Results land in the
  /// run cache in sorted skeleton order, so cache contents (and the
  /// evaluation counter) are identical at any --jobs.
  void prefetch(const std::vector<Word>& words) override;

  /// The stimulus skeleton of a word: its concretizable events, in order.
  Word skeleton(const Word& word) const;

  /// Environment seed for one skeleton's harness run — a pure function of
  /// (base seed, skeleton).
  std::uint64_t run_seed(const Word& skeleton) const;

 protected:
  std::size_t lookup(const Word& word) override;

 private:
  const Word& observation(const Word& skel);  // run + cache on miss
  Word execute(const Word& skel) const;       // one harness run

  const capl::CaplProgram& ecu_;
  const can::DbcDatabase& db_;
  const conform::FrameCodec& codec_;
  std::vector<std::string> alphabet_;
  Options opt_;
  verify::VerifyScheduler* sched_;
  std::map<Word, Word> runs_;  // skeleton -> observation
};

}  // namespace ecucsp::learn
