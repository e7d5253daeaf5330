#include "learn/oracle.hpp"

#include <algorithm>

#include "store/digest.hpp"
#include "verify/scheduler.hpp"

namespace ecucsp::learn {

namespace {

/// Longest common prefix length of `word` with `obs`.
std::size_t common_prefix(const Word& word, const Word& obs) {
  const std::size_t n = std::min(word.size(), obs.size());
  std::size_t k = 0;
  while (k < n && word[k] == obs[k]) ++k;
  return k;
}

}  // namespace

std::size_t accepted_prefix(const conform::Dfa& dfa, const Word& word) {
  std::uint32_t state = dfa.root;
  std::size_t k = 0;
  for (; k < word.size(); ++k) {
    state = dfa.step(state, dfa.symbol(word[k]));
    if (state == conform::Dfa::NONE) break;
  }
  return k;
}

AutomatonOracle::AutomatonOracle(conform::Dfa automaton,
                                 std::vector<std::string> alphabet)
    : automaton_(std::move(automaton)), alphabet_(std::move(alphabet)) {}

std::size_t AutomatonOracle::lookup(const Word& word) {
  auto it = cache_.find(word);
  if (it != cache_.end()) return it->second;
  ++evaluations_;
  const std::size_t k = learn::accepted_prefix(automaton_, word);
  cache_.emplace(word, k);
  return k;
}

EcuMembershipOracle::EcuMembershipOracle(const capl::CaplProgram& ecu,
                                         const can::DbcDatabase& db,
                                         const conform::FrameCodec& codec,
                                         std::vector<std::string> alphabet,
                                         Options opt,
                                         verify::VerifyScheduler* sched)
    : ecu_(ecu),
      db_(db),
      codec_(codec),
      alphabet_(std::move(alphabet)),
      opt_(opt),
      sched_(sched) {}

Word EcuMembershipOracle::skeleton(const Word& word) const {
  Word out;
  out.reserve(word.size());
  for (const std::string& e : word) {
    if (codec_.concretize(e).has_value()) out.push_back(e);
  }
  return out;
}

std::uint64_t EcuMembershipOracle::run_seed(const Word& skel) const {
  store::Hasher h;
  h.str("learn-membership-run");
  h.u64(opt_.seed);
  for (const std::string& e : skel) h.str(e);
  return h.finish().lo;
}

Word EcuMembershipOracle::execute(const Word& skel) const {
  conform::HarnessOptions h;
  h.seed = run_seed(skel);
  h.settle_us = opt_.settle_us;
  h.deadline_us = opt_.deadline_us;
  return conform::run_conformance_test(ecu_, /*vmg=*/nullptr, db_, codec_,
                                       skel, h)
      .observed;
}

const Word& EcuMembershipOracle::observation(const Word& skel) {
  auto it = runs_.find(skel);
  if (it == runs_.end()) {
    ++evaluations_;
    it = runs_.emplace(skel, execute(skel)).first;
  }
  return it->second;
}

std::size_t EcuMembershipOracle::lookup(const Word& word) {
  // By the prefix lemma, the observation of word's own skeleton decides
  // every prefix of word: the length-k prefix is a trace iff it is a
  // prefix of obs (injected stimuli appear in obs in injection order, and
  // a prefix's skeleton injections replay identically because planned
  // response events consume neither rng nor time in the harness).
  return common_prefix(word, observation(skeleton(word)));
}

void EcuMembershipOracle::prefetch(const std::vector<Word>& words) {
  // Distinct uncached skeletons, in sorted order: the set (and therefore
  // the evaluation counter and cache contents) is a pure function of the
  // question list, never of scheduling.
  std::vector<Word> missing;
  for (const Word& w : words) {
    Word skel = skeleton(w);
    if (!runs_.contains(skel)) missing.push_back(std::move(skel));
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  if (missing.empty()) return;

  std::vector<Word> obs(missing.size());
  if (sched_ != nullptr && missing.size() > 1) {
    // One custom task per run, each writing its pre-allocated slot; the
    // scheduler's join publishes the writes (the conform suite pattern).
    std::vector<std::function<bool(CancelToken&)>> queries;
    queries.reserve(missing.size());
    for (std::size_t i = 0; i < missing.size(); ++i) {
      queries.emplace_back([this, &missing, &obs, i](CancelToken&) {
        obs[i] = execute(missing[i]);
        return true;
      });
    }
    verify::run_bool_batch(*sched_, queries, "learn-run");
  } else {
    for (std::size_t i = 0; i < missing.size(); ++i) {
      obs[i] = execute(missing[i]);
    }
  }
  for (std::size_t i = 0; i < missing.size(); ++i) {
    runs_.emplace(std::move(missing[i]), std::move(obs[i]));
  }
  evaluations_ += missing.size();
}

}  // namespace ecucsp::learn
