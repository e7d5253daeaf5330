#include "learn/equiv.hpp"

#include <algorithm>
#include <deque>
#include <set>

#include "conform/generate.hpp"
#include "core/rng.hpp"

namespace ecucsp::learn {

namespace {

/// Sub-seed for one suite family of one round: pure (seed, round, tag).
std::uint64_t mix_seed(std::uint64_t seed, std::size_t round,
                       std::uint64_t tag) {
  return core::mix64(seed ^ (0x9e3779b97f4a7c15ULL * (round + 1)) ^ tag);
}

}  // namespace

std::optional<Word> approximate_counterexample(MembershipOracle& oracle,
                                               const Hypothesis& hypothesis,
                                               const EquivOptions& opt) {
  const std::vector<std::string>& sigma = oracle.alphabet();
  std::vector<Word> words;

  // 1. Caller-supplied words (store-harvested attack traces) first: a
  // counterexample that already broke a requirement is the highest-value
  // probe the loop has.
  for (const Word& w : opt.extra) words.push_back(w);

  // 2. Random walks + cover tour over the hypothesis automaton: words the
  // hypothesis claims are traces; the target must agree.
  conform::GeneratorOptions gen;
  gen.seed = mix_seed(opt.seed, opt.round, 0x77a1ULL);
  gen.tests = opt.tests;
  gen.max_len = opt.max_len;
  for (const conform::TestCase& tc : generate_random(hypothesis.dfa, gen)) {
    words.push_back(tc.events);
  }
  for (const conform::TestCase& tc : generate_cover(hypothesis.dfa, gen)) {
    words.push_back(tc.events);
  }

  // 3. Random Sigma-words: unconstrained by the hypothesis, these probe
  // behaviour the hypothesis thinks is dead (and vice versa) — random
  // walks over the hypothesis alone can never leave its language.
  std::uint64_t rng = core::seed_state(mix_seed(opt.seed, opt.round, 0x5197ULL));
  for (std::size_t t = 0; t < opt.tests && !sigma.empty(); ++t) {
    Word w(1 + core::splitmix64(rng) % std::max<std::size_t>(opt.max_len, 1));
    for (std::string& e : w) {
      e = sigma[core::splitmix64(rng) % sigma.size()];
    }
    words.push_back(std::move(w));
  }

  // Batched answers, sequential verdict fold: the first mismatching word
  // in this fixed order decides, and its shortest mismatching prefix is
  // the counterexample (prefix closure: acceptance diverges first exactly
  // one event past the shorter accepted prefix).
  oracle.prefetch(words);
  for (const Word& w : words) {
    const std::size_t h_acc = accepted_prefix(hypothesis.dfa, w);
    const std::size_t l_acc = oracle.accepted_prefix(w);
    if (h_acc == l_acc) continue;
    const std::size_t cut = std::min(h_acc, l_acc) + 1;
    return Word(w.begin(), w.begin() + static_cast<std::ptrdiff_t>(cut));
  }
  return std::nullopt;
}

std::optional<Word> exact_counterexample(
    const conform::Dfa& target, const conform::Dfa& hyp,
    const std::vector<std::string>& alphabet) {
  // BFS over the product of the two walk automata, each extended with an
  // implicit dead sink (Dfa::NONE); a pair with exactly one dead side is a
  // mismatch. BFS layer = word length and symbols are scanned in sorted
  // order, so the first mismatch found is the shortest, lexicographically
  // smallest counterexample — fully deterministic.
  constexpr std::uint32_t kDead = conform::Dfa::NONE;
  std::vector<std::uint32_t> t_sym, h_sym;
  for (const std::string& a : alphabet) {
    t_sym.push_back(target.symbol(a));
    h_sym.push_back(hyp.symbol(a));
  }
  struct Item {
    std::uint32_t t, h;
    Word word;
  };
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen{
      {target.root, hyp.root}};
  std::deque<Item> queue{{target.root, hyp.root, {}}};
  while (!queue.empty()) {
    Item it = std::move(queue.front());
    queue.pop_front();
    for (std::size_t a = 0; a < alphabet.size(); ++a) {
      const std::uint32_t tn =
          it.t == kDead ? kDead : target.step(it.t, t_sym[a]);
      const std::uint32_t hn = it.h == kDead ? kDead : hyp.step(it.h, h_sym[a]);
      if ((tn == kDead) != (hn == kDead)) {
        Word w = it.word;
        w.push_back(alphabet[a]);
        return w;
      }
      if (tn == kDead) continue;  // both dead: no live extension either side
      if (seen.emplace(tn, hn).second) {
        Word w = it.word;
        w.push_back(alphabet[a]);
        queue.push_back({tn, hn, std::move(w)});
      }
    }
  }
  return std::nullopt;
}

}  // namespace ecucsp::learn
