// Mutation adequacy of the Learn–Check–Test loop: every seeded CAPL mutant
// of the reference ECU must be *caught by checking the learned model* — at
// least one R01–R05 refinement check fails on the hypothesis learned from
// the mutant where the faithful ECU passes, and each failing check's
// counterexample replays to a rejection on the requirement's own trace
// oracle. This is the loop's end-to-end soundness witness: learning does
// not smooth over implementation faults, and the verdicts it produces are
// confirmed by an independent judge.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "capl/parser.hpp"
#include "conform/mutate.hpp"
#include "conform/oracle.hpp"
#include "conform/requirements.hpp"
#include "learn/run.hpp"
#include "ota/ota.hpp"

namespace ecucsp::learn {
namespace {

std::map<std::string, std::string> verdicts_of(const LearnReport& rep) {
  std::map<std::string, std::string> out;
  for (const LearnCheckReport& c : rep.checks) out[c.name] = c.verdict;
  return out;
}

TEST(LearnMutant, FaithfulEcuPassesEveryRequirement) {
  const LearnReport rep = run_ota_learn({});
  EXPECT_TRUE(rep.ok);
  EXPECT_TRUE(rep.converged);
  EXPECT_FALSE(rep.mutation.has_value());
  const auto v = verdicts_of(rep);
  EXPECT_EQ(v.at("R01"), "SKIP");
  EXPECT_EQ(v.at("R02"), "PASS");
  EXPECT_EQ(v.at("R03"), "PASS");
  EXPECT_EQ(v.at("R04"), "PASS");
  EXPECT_EQ(v.at("R05"), "PASS");
}

TEST(LearnMutant, EverySeededMutantIsKilledAndReplaysCleanly) {
  const capl::CaplProgram ecu =
      capl::parse_capl(std::string(ota::ecu_capl_source()));
  const std::size_t points = conform::count_mutation_points(ecu);
  ASSERT_GT(points, 0u);

  const std::map<std::string, std::string> faithful =
      verdicts_of(run_ota_learn({}));

  for (std::uint64_t m = 0; m < points; ++m) {
    SCOPED_TRACE("mutant " + std::to_string(m));
    LearnRunOptions opt;
    opt.mutate = m;
    const LearnReport rep = run_ota_learn(opt);
    EXPECT_TRUE(rep.converged);
    EXPECT_FALSE(rep.ok);
    ASSERT_TRUE(rep.mutation.has_value());

    std::size_t fresh_fails = 0;
    for (const LearnCheckReport& c : rep.checks) {
      if (c.verdict != "FAIL") continue;
      if (faithful.at(c.name) != "PASS") continue;
      ++fresh_fails;
      // The refinement counterexample must be concrete and reconfirmed by
      // the requirement's trace oracle, rejecting at the reported index.
      ASSERT_FALSE(c.counterexample.empty());
      const conform::TraceOracle oracle = conform::requirement_oracle(c.name);
      const conform::OracleVerdict v = oracle.judge(c.counterexample);
      EXPECT_FALSE(v.accepted);
      EXPECT_EQ("rejected@" + std::to_string(v.divergence_index), c.replay);
    }
    EXPECT_GT(fresh_fails, 0u)
        << "mutant must fail a requirement the faithful ECU passes";
  }
}

TEST(LearnMutant, MutantKillMapIsStable) {
  // The seeded kill map itself is part of the contract: which requirement
  // catches which fault pins the alignment between mutation operators and
  // the Table III properties.
  const std::map<std::uint64_t, std::set<std::string>> expected = {
      {0, {"R03", "R04", "R05"}},  // RetargetOutput: rptSw -> rptUpd
      {1, {"R03", "R04", "R05"}},  // DropGuard: MAC check removed
      {2, {"R02"}},                // RetargetOutput: rptUpd -> rptSw
  };
  for (const auto& [seed, fails] : expected) {
    SCOPED_TRACE("mutant " + std::to_string(seed));
    LearnRunOptions opt;
    opt.mutate = seed;
    const LearnReport rep = run_ota_learn(opt);
    std::set<std::string> got;
    for (const LearnCheckReport& c : rep.checks) {
      if (c.verdict == "FAIL") got.insert(c.name);
    }
    EXPECT_EQ(got, fails);
  }
}

TEST(LearnMutant, DropGuardMutantAcceptsForgedApply) {
  // The paper's headline fault: without the MAC guard the ECU applies a
  // forged update. The learned model must contain the attack trace
  // <send.UpdApplyReqBad, rec.UpdReport>, and R05 must reject it.
  LearnRunOptions opt;
  opt.mutate = 1;  // DropGuard
  const LearnReport rep = run_ota_learn(opt);
  ASSERT_TRUE(rep.mutation.has_value());
  EXPECT_NE(rep.mutation->description.find("DropGuard"), std::string::npos);
  const Word attack = {"send.UpdApplyReqBad", "rec.UpdReport"};
  EXPECT_TRUE(rep.hypothesis.member(attack))
      << "learned mutant model must exhibit the forged-apply attack";
  // And the faithful model must not.
  const LearnReport faithful = run_ota_learn({});
  EXPECT_FALSE(faithful.hypothesis.member(attack));
}

}  // namespace
}  // namespace ecucsp::learn
