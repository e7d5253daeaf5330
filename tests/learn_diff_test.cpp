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

#include <optional>
#include <string>
#include <utility>
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

/// Learn `target` back through a membership oracle, driven by the exact
/// equivalence oracle. Returns the converged hypothesis automaton.
conform::Dfa learn_exactly(const conform::Dfa& target,
                           const std::vector<std::string>& sigma,
                           std::size_t max_iterations = 64) {
  AutomatonOracle oracle(target, sigma);
  TreeLearner learner(oracle);
  conform::Dfa hyp = learner.hypothesis().dfa;
  for (std::size_t i = 0; i < max_iterations; ++i) {
    const auto cex = exact_counterexample(target, hyp, sigma);
    if (!cex) return hyp;
    EXPECT_TRUE(learner.refine(*cex))
        << "exact counterexample rejected by the learner";
    while (learner.refine(*cex)) {
    }
    hyp = learner.hypothesis().dfa;
  }
  ADD_FAILURE() << "learning did not converge within " << max_iterations
                << " iterations";
  return hyp;
}

TEST(LearnDiff, RequirementAutomataLearnBackToBisimEquivalence) {
  for (const conform::TraceOracle& r : conform::ota_requirement_oracles()) {
    SCOPED_TRACE(r.name);
    // The oracle's whole name table: events it never allows are legitimate
    // learning symbols that must stay edgeless everywhere.
    const std::vector<std::string>& sigma = r.automaton.names;
    const conform::Dfa learned = learn_exactly(r.automaton, sigma);
    EXPECT_TRUE(strong_bisim_equivalent(learned, r.automaton));
    EXPECT_EQ(exact_counterexample(r.automaton, learned, sigma), std::nullopt);
  }
}

TEST(LearnDiff, ModelAutomatonLearnsBackToBisimEquivalence) {
  const conform::TraceOracle model = conform::ota_model_oracle();
  const conform::Dfa learned =
      learn_exactly(model.automaton, model.automaton.names);
  EXPECT_TRUE(strong_bisim_equivalent(learned, model.automaton));
  // One state per Myhill-Nerode class: the learned automaton never exceeds
  // the target's state count.
  EXPECT_LE(learned.state_count(), model.automaton.state_count());
}

TEST(LearnDiff, ApproximateEquivalenceMatchesExactOnModelAutomaton) {
  // The approximate (suite-based) equivalence path must reach the same
  // fixpoint as the exact product-BFS on a small white-box target.
  const conform::TraceOracle model = conform::ota_model_oracle();
  AutomatonOracle oracle(model.automaton, model.automaton.names);
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
  EXPECT_TRUE(strong_bisim_equivalent(hyp.dfa, model.automaton));
}

TEST(LearnDiff, EcuLearningConvergesToTestableProjectionOfModel) {
  // Black-box half: the hypothesis learned from the *simulated* ECU, with
  // the ignored forged-frame self-loops stripped, is strong-bisim
  // equivalent to the testable projection of the white-box model
  // automaton, at every equivalence budget (eq-tests, max-len) and seed.
  const can::DbcDatabase db =
      can::parse_dbc(std::string(ota::ota_dbc_text()));
  const conform::FrameCodec codec = conform::ota_codec(db);
  const conform::TraceOracle model = conform::ota_model_oracle();
  const conform::Dfa projection = testable_projection(
      model.automaton,
      [&codec](const std::string& e) {
        return codec.concretize(e).has_value();
      },
      [](const std::string& e) { return e.starts_with("rec."); });

  for (const auto& [eq_tests, max_len] :
       {std::pair<std::size_t, std::size_t>{16, 8}, {64, 12}, {128, 16}}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      SCOPED_TRACE("eq_tests " + std::to_string(eq_tests) + " max_len " +
                   std::to_string(max_len) + " seed " + std::to_string(seed));
      LearnRunOptions opt;
      opt.seed = seed;
      opt.eq_tests = eq_tests;
      opt.max_len = max_len;
      const LearnReport rep = run_ota_learn(opt);
      ASSERT_TRUE(rep.converged);
      ASSERT_TRUE(rep.ok);

      const StripResult stripped =
          strip_ignored_self_loops(rep.hypothesis.dfa, model.ignored);
      ASSERT_TRUE(stripped.lossless)
          << "faithful ECU must not react to ignored events";
      EXPECT_TRUE(strong_bisim_equivalent(stripped.automaton, projection));
      EXPECT_EQ(exact_counterexample(projection, stripped.automaton,
                                     projection.names),
                std::nullopt);
    }
  }
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
  EXPECT_EQ(back->dfa, rep.hypothesis.dfa);
  EXPECT_EQ(back->access, rep.hypothesis.access);

  // Corruption is a miss, never a crash.
  auto corrupt = blob;
  corrupt[corrupt.size() / 2] ^= 0x5a;
  EXPECT_EQ(decode_hypothesis(corrupt), std::nullopt);
  EXPECT_EQ(decode_hypothesis({blob.data(), blob.size() - 3}), std::nullopt);
}

TEST(LearnDiff, HypothesisBytesArePinned) {
  // The learned-model payload, byte for byte: the name table, root and
  // state count, one entry per (state, name) — 0 for no edge, target + 1
  // otherwise — then the access words. Stores on disk are read with this
  // format at kStoreFormatVersion 3, so changing it means bumping the
  // version. send.halt labels no edge, every other column has a dead
  // entry, and two access words are non-empty.
  conform::DfaBuilder dfa({"rec.ack", "send.go", "send.halt"});
  dfa.edge("send.go", 1);
  dfa.end_state();
  dfa.edge("rec.ack", 2);
  dfa.end_state();
  dfa.edge("send.go", 0);
  dfa.end_state();
  Hypothesis h;
  h.dfa = std::move(dfa).finish(0);
  h.access = {{}, {"send.go"}, {"send.go", "rec.ack"}};
  const std::vector<std::uint8_t> pinned = {
      0x45, 0x43, 0x53, 0x50, 0x03, 0x03, 0x41, 0x03, 0x07, 0x72, 0x65, 0x63,
      0x2e, 0x61, 0x63, 0x6b, 0x07, 0x73, 0x65, 0x6e, 0x64, 0x2e, 0x67, 0x6f,
      0x09, 0x73, 0x65, 0x6e, 0x64, 0x2e, 0x68, 0x61, 0x6c, 0x74, 0x00, 0x03,
      0x00, 0x02, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x01, 0x07,
      0x73, 0x65, 0x6e, 0x64, 0x2e, 0x67, 0x6f, 0x02, 0x07, 0x73, 0x65, 0x6e,
      0x64, 0x2e, 0x67, 0x6f, 0x07, 0x72, 0x65, 0x63, 0x2e, 0x61, 0x63, 0x6b,
      0x46, 0xa1, 0x00, 0x98, 0xd7, 0xf3, 0x6b, 0x75, 0x26, 0x20, 0x53, 0xe6,
      0x7b, 0xc6, 0xd6, 0x81,
  };
  EXPECT_EQ(store::kStoreFormatVersion, 3u);
  EXPECT_EQ(encode_hypothesis(h), pinned);
  const auto back = decode_hypothesis(pinned);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dfa, h.dfa);
  EXPECT_EQ(back->access, h.access);
}

/// Decode a sealed LearnedModel envelope around a payload of varints; the
/// name "a" is its length 1 and the byte 'a'.
std::optional<Hypothesis> decode_payload(
    std::initializer_list<std::uint64_t> varints) {
  store::ByteWriter w;
  for (const std::uint64_t v : varints) w.uv(v);
  return decode_hypothesis(
      store::seal(store::ArtifactKind::LearnedModel, w.take()));
}

TEST(LearnDiff, OversizedHypothesisCountsAreAMiss) {
  // Counts beyond the payload's remaining bytes are corrupt: a miss, never
  // an allocation sized by them (bad_alloc / length_error).
  for (const std::uint64_t huge :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    EXPECT_EQ(decode_payload({huge, 1, 'a'}), std::nullopt);          // names
    EXPECT_EQ(decode_payload({1, 1, 'a', 0, huge, 0}), std::nullopt);  // states
    EXPECT_EQ(decode_payload({1, 1, 'a', 0, 1, 0, huge}),
              std::nullopt);  // a word
  }
}

TEST(LearnDiff, MalformedHypothesisTablesAreAMiss) {
  // No states, so no root state: a forged model that must not reach the
  // check phase.
  EXPECT_EQ(decode_payload({0, 5, 0}), std::nullopt);
  EXPECT_EQ(decode_payload({1, 1, 'a', 0, 0}), std::nullopt);
  // A name table that is not strictly ascending: {"b", "a"} with only the
  // "a" entry live, and {"a", "a"}. Entries are positional, so either
  // would put edges under the wrong names.
  EXPECT_EQ(decode_payload({2, 1, 'b', 1, 'a', 0, 1, 0, 1, 0}), std::nullopt);
  EXPECT_EQ(decode_payload({2, 1, 'a', 1, 'a', 0, 1, 0, 1, 0}), std::nullopt);
  // The well-formed twin decodes: {"a", "b"} with the "a" entry live.
  const auto ok = decode_payload({2, 1, 'a', 1, 'b', 0, 1, 1, 0, 0});
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->member({"a", "a"}));
  EXPECT_FALSE(ok->member({"b"}));
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
