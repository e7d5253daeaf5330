// The differential battery proving the Learn–Check–Test loop correct.
//
// Three pillars:
//   * white-box ground truth — every seeded requirement automaton (R01–R05)
//     and the extracted OTA model automaton is learned back through an
//     AutomatonOracle driven to *guaranteed* convergence by the exact
//     product-BFS equivalence oracle, and the hypothesis must be
//     strong-bisimulation-equivalent to its target (via bisim_partition);
//   * black-box fixpoint — learning the simulated ECU through the harness
//     converges to exactly the testable projection of the model automaton
//     (response edges win over stimuli under the quiescence discipline,
//     ignored forged frames strip as self-loops);
//   * determinism — run_ota_learn's verdicts, text and JSON reports are
//     byte-identical across --jobs in {1,2,4}.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "can/dbc.hpp"
#include "conform/harness.hpp"
#include "conform/requirements.hpp"
#include "learn/cache.hpp"
#include "learn/compile.hpp"
#include "learn/equiv.hpp"
#include "learn/learner.hpp"
#include "learn/oracle.hpp"
#include "learn/run.hpp"
#include "ota/ota.hpp"
#include "store/serialize.hpp"

namespace ecucsp::learn {
namespace {

std::vector<std::string> sorted_alphabet(const conform::TraceOracle& oracle) {
  // The oracle's declared alphabet; events it never allows are legitimate
  // learning symbols that must map to DEAD everywhere.
  return {oracle.alphabet.begin(), oracle.alphabet.end()};
}

/// Learn `target` back through a membership oracle, driven by the exact
/// equivalence oracle. Returns the converged hypothesis automaton.
conform::SymAutomaton learn_exactly(const conform::SymAutomaton& target,
                                    const std::vector<std::string>& sigma,
                                    std::size_t max_iterations = 64) {
  AutomatonOracle oracle(target, sigma);
  TreeLearner learner(oracle);
  conform::SymAutomaton hyp = to_sym_automaton(learner.hypothesis());
  for (std::size_t i = 0; i < max_iterations; ++i) {
    const auto cex = exact_counterexample(target, hyp, sigma);
    if (!cex) return hyp;
    EXPECT_TRUE(learner.refine(*cex))
        << "exact counterexample rejected by the learner";
    while (learner.refine(*cex)) {
    }
    hyp = to_sym_automaton(learner.hypothesis());
  }
  ADD_FAILURE() << "learning did not converge within " << max_iterations
                << " iterations";
  return hyp;
}

TEST(LearnDiff, RequirementAutomataLearnBackToBisimEquivalence) {
  for (const conform::TraceOracle& r : conform::ota_requirement_oracles()) {
    SCOPED_TRACE(r.name);
    const std::vector<std::string> sigma = sorted_alphabet(r);
    const conform::SymAutomaton learned = learn_exactly(r.automaton, sigma);
    EXPECT_TRUE(strong_bisim_equivalent(learned, r.automaton));
    EXPECT_EQ(exact_counterexample(r.automaton, learned, sigma), std::nullopt);
  }
}

TEST(LearnDiff, ModelAutomatonLearnsBackToBisimEquivalence) {
  const conform::TraceOracle model = conform::ota_model_oracle();
  const std::set<std::string> events = model.automaton.event_alphabet();
  const std::vector<std::string> sigma(events.begin(), events.end());
  const conform::SymAutomaton learned = learn_exactly(model.automaton, sigma);
  EXPECT_TRUE(strong_bisim_equivalent(learned, model.automaton));
  // One state per Myhill-Nerode class: the learned automaton never exceeds
  // the target's state count.
  EXPECT_LE(learned.state_count(), model.automaton.state_count());
}

TEST(LearnDiff, ApproximateEquivalenceMatchesExactOnModelAutomaton) {
  // The approximate (suite-based) equivalence path must reach the same
  // fixpoint as the exact product-BFS on a small white-box target.
  const conform::TraceOracle model = conform::ota_model_oracle();
  const std::set<std::string> events = model.automaton.event_alphabet();
  const std::vector<std::string> sigma(events.begin(), events.end());
  AutomatonOracle oracle(model.automaton, sigma);
  TreeLearner learner(oracle);
  Hypothesis hyp = learner.hypothesis();
  bool converged = false;
  for (std::size_t round = 0; round < 16; ++round) {
    EquivOptions eq;
    eq.seed = 7;
    eq.round = round;
    const auto cex = approximate_counterexample(oracle, hyp, eq);
    if (!cex) {
      converged = true;
      break;
    }
    while (learner.refine(*cex)) {
    }
    hyp = learner.hypothesis();
  }
  ASSERT_TRUE(converged);
  EXPECT_TRUE(strong_bisim_equivalent(to_sym_automaton(hyp), model.automaton));
}

TEST(LearnDiff, EcuLearningConvergesToTestableProjectionOfModel) {
  // Black-box half: the hypothesis learned from the *simulated* ECU, with
  // the ignored forged-frame self-loops stripped, is strong-bisim
  // equivalent to the testable projection of the white-box model automaton.
  const LearnReport rep = run_ota_learn({});
  ASSERT_TRUE(rep.converged);
  ASSERT_TRUE(rep.ok);

  const can::DbcDatabase db =
      can::parse_dbc(std::string(ota::ota_dbc_text()));
  const conform::FrameCodec codec = conform::ota_codec(db);
  const conform::TraceOracle model = conform::ota_model_oracle();
  const conform::SymAutomaton projection = testable_projection(
      model.automaton,
      [&codec](const std::string& e) {
        return codec.concretize(e).has_value();
      },
      [](const std::string& e) { return e.starts_with("rec."); });

  const StripResult stripped = strip_ignored_self_loops(
      to_sym_automaton(rep.hypothesis), model.ignored);
  ASSERT_TRUE(stripped.lossless)
      << "faithful ECU must not react to ignored events";
  EXPECT_TRUE(strong_bisim_equivalent(stripped.automaton, projection));

  const std::set<std::string> events = projection.event_alphabet();
  const std::vector<std::string> sigma(events.begin(), events.end());
  EXPECT_EQ(exact_counterexample(projection, stripped.automaton, sigma),
            std::nullopt);
}

TEST(LearnDiff, ReportsByteIdenticalAcrossJobs) {
  LearnRunOptions base;
  base.seed = 3;
  base.jobs = 1;
  const LearnReport ref = run_ota_learn(base);
  const std::string ref_json = render_json(ref);
  const std::string ref_text = render_text(ref);
  ASSERT_TRUE(ref.converged);
  for (unsigned jobs : {2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    LearnRunOptions opt = base;
    opt.jobs = jobs;
    const LearnReport rep = run_ota_learn(opt);
    EXPECT_EQ(render_json(rep), ref_json);
    EXPECT_EQ(render_text(rep), ref_text);
  }
}

TEST(LearnDiff, MutantReportByteIdenticalAcrossJobs) {
  LearnRunOptions a;
  a.mutate = 1;
  a.jobs = 1;
  LearnRunOptions b = a;
  b.jobs = 4;
  EXPECT_EQ(render_json(run_ota_learn(a)), render_json(run_ota_learn(b)));
}

TEST(LearnDiff, HypothesisSurvivesCacheRoundTrip) {
  const LearnReport rep = run_ota_learn({});
  const auto blob = encode_hypothesis(rep.hypothesis);
  const auto back = decode_hypothesis(blob);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->alphabet, rep.hypothesis.alphabet);
  EXPECT_EQ(back->root, rep.hypothesis.root);
  EXPECT_EQ(back->succ, rep.hypothesis.succ);
  EXPECT_EQ(back->access, rep.hypothesis.access);

  // Corruption is a miss, never a crash.
  auto corrupt = blob;
  corrupt[corrupt.size() / 2] ^= 0x5a;
  EXPECT_EQ(decode_hypothesis(corrupt), std::nullopt);
  EXPECT_EQ(decode_hypothesis({blob.data(), blob.size() - 3}), std::nullopt);
}

TEST(LearnDiff, OversizedHypothesisCountsAreAMiss) {
  // Counts beyond the payload's remaining bytes are corrupt: a miss, never
  // an allocation sized by them (bad_alloc / length_error). Payloads are
  // varints; the name "a" is its length 1 and the byte 'a'.
  const auto decode = [](std::initializer_list<std::uint64_t> vs) {
    store::ByteWriter w;
    for (const std::uint64_t v : vs) w.uv(v);
    return decode_hypothesis(
        store::seal(store::ArtifactKind::LearnedModel, w.take()));
  };
  for (const std::uint64_t huge :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    EXPECT_EQ(decode({huge, 1, 'a'}), std::nullopt);             // names
    EXPECT_EQ(decode({1, 1, 'a', 0, huge, 0}), std::nullopt);     // states
    EXPECT_EQ(decode({1, 1, 'a', 0, 1, 0, huge}), std::nullopt);  // a word
  }
}

TEST(LearnDiff, CacheKeyDigestSeparatesParameters) {
  LearnCacheKey key;
  key.ecu_source = "on message X {}";
  key.seed = 1;
  key.rounds = 16;
  key.eq_tests = 64;
  key.max_len = 12;
  key.alphabet = {"a", "b"};
  const auto base = key.digest();

  LearnCacheKey other = key;
  other.seed = 2;
  EXPECT_NE(other.digest(), base);
  other = key;
  other.ecu_source = "on message Y {}";
  EXPECT_NE(other.digest(), base);
  other = key;
  other.alphabet = {"a", "c"};
  EXPECT_NE(other.digest(), base);
  EXPECT_EQ(LearnCacheKey(key).digest(), base);
}

}  // namespace
}  // namespace ecucsp::learn
