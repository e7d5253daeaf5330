#include <gtest/gtest.h>

#include <random>

#include "refine/dot.hpp"
#include "refine/minimize.hpp"

namespace ecucsp {
namespace {

class MinimizeTest : public ::testing::Test {
 protected:
  MinimizeTest() {
    a = ctx.event(ctx.channel("a"));
    b = ctx.event(ctx.channel("b"));
    c = ctx.event(ctx.channel("c"));
  }
  Context ctx;
  EventId a, b, c;
};

TEST_F(MinimizeTest, BisimilarBranchesCollapse) {
  // a -> b -> STOP [] c -> b -> (STOP \ {a}): hiding over STOP is
  // behaviourally STOP but a structurally distinct term, so the LTS has two
  // bisimilar-but-distinct state pairs that minimisation must merge.
  const ProcessRef stop_variant = ctx.hide(ctx.stop(), EventSet{a});
  const ProcessRef p =
      ctx.ext_choice(ctx.prefix(a, ctx.prefix(b, ctx.stop())),
                     ctx.prefix(c, ctx.prefix(b, stop_variant)));
  const CompactLts lts = compile_lts(ctx, p);
  ASSERT_EQ(lts.state_count(), 5u);
  // root, b-prefix, dead
  EXPECT_EQ(compress_compact(lts, Compression::Bisim).state_count(), 3u);
}

TEST_F(MinimizeTest, MinimalLtsIsFixpoint) {
  ctx.define("P", [this](Context& cx, std::span<const Value>) {
    return cx.prefix(a, cx.prefix(b, cx.var("P")));
  });
  const CompactLts lts = compile_lts(ctx, ctx.var("P"));
  const CompactLts once = compress_compact(lts, Compression::Bisim);
  const CompactLts twice = compress_compact(once, Compression::Bisim);
  EXPECT_EQ(once.state_count(), twice.state_count());
  EXPECT_EQ(once.events, twice.events);
  EXPECT_EQ(once.targets, twice.targets);
}

TEST_F(MinimizeTest, DistinguishableStatesStaySeparate) {
  // a -> b -> STOP: all three states have different futures.
  const CompactLts lts =
      compile_lts(ctx, ctx.prefix(a, ctx.prefix(b, ctx.stop())));
  EXPECT_EQ(compress_compact(lts, Compression::Bisim).state_count(), 3u);
  const std::vector<StateId> block = bisim_partition(lts);
  EXPECT_EQ(block, (std::vector<StateId>{0, 1, 2}));
}

TEST_F(MinimizeTest, RootMapsToQuotientRoot) {
  const CompactLts lts = compile_lts(ctx, ctx.prefix(a, ctx.stop()));
  const std::vector<StateId> block = bisim_partition(lts);
  const CompactLts min = compress_compact(lts, Compression::Bisim);
  ASSERT_EQ(block.size(), lts.state_count());
  EXPECT_EQ(block[lts.root], min.root);
}

TEST_F(MinimizeTest, LtsToProcessReproducesBehaviour) {
  const ProcessRef p = ctx.ext_choice(
      ctx.prefix(a, ctx.int_choice(ctx.prefix(b, ctx.stop()), ctx.skip())),
      ctx.prefix(c, ctx.skip()));
  const CompactLts lts = compile_lts(ctx, p);
  const ProcessRef wrapped = lts_to_process(ctx, lts, "_WRAP1");
  for (const Model m :
       {Model::Traces, Model::Failures, Model::FailuresDivergences}) {
    EXPECT_TRUE(check_refinement(ctx, p, wrapped, m).passed) << to_string(m);
    EXPECT_TRUE(check_refinement(ctx, wrapped, p, m).passed) << to_string(m);
  }
}

TEST_F(MinimizeTest, CompressPreservesSemantics) {
  // Random processes: compress(P) must be equivalent to P in all models.
  std::mt19937 rng(7);
  std::vector<EventId> alpha{a, b, c};
  const std::function<ProcessRef(int)> gen = [&](int depth) -> ProcessRef {
    std::uniform_int_distribution<int> pick(0, depth <= 0 ? 1 : 6);
    switch (pick(rng)) {
      case 0: return ctx.stop();
      case 1: return ctx.skip();
      case 2: return ctx.prefix(alpha[rng() % 3], gen(depth - 1));
      case 3: return ctx.ext_choice(gen(depth - 1), gen(depth - 1));
      case 4: return ctx.int_choice(gen(depth - 1), gen(depth - 1));
      case 5: return ctx.seq(gen(depth - 1), gen(depth - 1));
      default: return ctx.interleave(gen(depth - 1), gen(depth - 1));
    }
  };
  for (int i = 0; i < 12; ++i) {
    const ProcessRef p = gen(3);
    const ProcessRef q = compress(ctx, p, "_CMP" + std::to_string(i));
    for (const Model m :
         {Model::Traces, Model::Failures, Model::FailuresDivergences}) {
      EXPECT_TRUE(check_refinement(ctx, p, q, m).passed)
          << "iter " << i << " model " << to_string(m);
      EXPECT_TRUE(check_refinement(ctx, q, p, m).passed)
          << "iter " << i << " model " << to_string(m);
    }
  }
}

TEST_F(MinimizeTest, CompressShrinksRedundantStructure) {
  // Interleaving two identical cyclic processes has bisimilar interior
  // states that compress.
  ctx.define("T", [this](Context& cx, std::span<const Value>) {
    return cx.prefix(a, cx.var("T"));
  });
  const ProcessRef p = ctx.interleave(ctx.var("T"), ctx.var("T"));
  const CompactLts lts = compile_lts(ctx, p);
  EXPECT_GE(lts.state_count(), 1u);
  // all states do 'a' forever
  EXPECT_EQ(compress_compact(lts, Compression::Bisim).state_count(), 1u);
}

// --- dot export ----------------------------------------------------------------

TEST_F(MinimizeTest, LtsDotContainsStatesAndLabels) {
  const CompactLts lts =
      compile_lts(ctx, ctx.prefix(a, ctx.prefix(b, ctx.stop())));
  const std::string dot = lts_to_dot(ctx, lts);
  EXPECT_NE(dot.find("digraph lts"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);  // root marker
  EXPECT_NE(dot.find("label=\"a\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"b\""), std::string::npos);
}

TEST_F(MinimizeTest, DotTauStyling) {
  const ProcessRef p = ctx.int_choice(ctx.prefix(a, ctx.stop()), ctx.stop());
  const std::string dot = lts_to_dot(ctx, compile_lts(ctx, p));
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  DotOptions no_tau;
  no_tau.show_tau = false;
  const std::string dot2 = lts_to_dot(ctx, compile_lts(ctx, p), no_tau);
  EXPECT_EQ(dot2.find("style=dashed"), std::string::npos);
}

TEST_F(MinimizeTest, DotRefusesHugeGraphs) {
  DotOptions opts;
  opts.max_states = 2;
  const CompactLts lts =
      compile_lts(ctx, ctx.prefix(a, ctx.prefix(b, ctx.stop())));
  EXPECT_THROW(lts_to_dot(ctx, lts, opts), std::length_error);
}

TEST_F(MinimizeTest, CounterexampleDotShowsViolation) {
  const CheckResult r = check_refinement(
      ctx, ctx.prefix(a, ctx.stop()),
      ctx.prefix(a, ctx.prefix(b, ctx.stop())), Model::Traces);
  ASSERT_FALSE(r.passed);
  const std::string dot = counterexample_to_dot(ctx, *r.counterexample);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
  EXPECT_NE(dot.find("label=\"a\""), std::string::npos);
  EXPECT_NE(dot.find("violation"), std::string::npos);
}

}  // namespace
}  // namespace ecucsp
