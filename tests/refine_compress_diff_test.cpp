// Differential proof that check_refinement_compiled's compression is
// unobservable in the verdict.
//
// For any term pair and any model, verdicts, counterexamples (kind, trace,
// event, acceptance, rendered text) and vacuity flags must be
// byte-identical at none / bisim / diamond / full — only exploration stats
// may change on a PASS (fewer product states is the point, so PASS stats
// are deliberately NOT compared here). These tests drive seeded random CSP
// term pairs through every model at each mode and compare against
// Compression::None field by field.
//
// Also here: regressions for the reductions' sharp edges: τ-cycles (SCC
// contraction must keep divergence), bisimilar duplicate branches
// (quotienting must not perturb the canonical counterexample),
// post-tick/Omega terminal classes (bisim must not merge deadlock with
// successful termination), and τ-confluence against failures semantics.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "refine/check.hpp"

namespace ecucsp {
namespace {

constexpr Compression kModes[] = {Compression::None, Compression::Bisim,
                                  Compression::Diamond, Compression::Full};

// Same shape as the refine_props_test generator: a seeded PRNG over a
// four-event alphabet, depth-bounded, covering every process constructor.
struct TermGen {
  Context& ctx;
  std::mt19937 rng;
  std::vector<EventId> alphabet;

  TermGen(Context& c, unsigned seed) : ctx(c), rng(seed) {
    for (const char* name : {"a", "b", "c", "d"}) {
      alphabet.push_back(ctx.event(ctx.channel(name)));
    }
  }

  EventId event() {
    return alphabet[std::uniform_int_distribution<std::size_t>(
        0, alphabet.size() - 1)(rng)];
  }

  EventSet event_set() {
    std::vector<EventId> out;
    for (EventId e : alphabet) {
      if (std::uniform_int_distribution<int>(0, 1)(rng)) out.push_back(e);
    }
    return EventSet(std::move(out));
  }

  ProcessRef process(int depth) {
    const int max_pick = depth <= 0 ? 2 : 10;
    switch (std::uniform_int_distribution<int>(0, max_pick)(rng)) {
      case 0:
        return ctx.stop();
      case 1:
        return ctx.prefix(event(),
                          depth <= 0 ? ctx.stop() : process(depth - 1));
      case 2:
        return ctx.skip();
      case 3:
        return ctx.ext_choice(process(depth - 1), process(depth - 1));
      case 4:
        return ctx.int_choice(process(depth - 1), process(depth - 1));
      case 5:
        return ctx.par(process(depth - 1), event_set(), process(depth - 1));
      case 6:
        return ctx.interleave(process(depth - 1), process(depth - 1));
      case 7:
        return ctx.hide(process(depth - 1), event_set());
      case 8: {
        const EventId from = event();
        const EventId to = event();
        return ctx.rename(process(depth - 1), {{from, to}});
      }
      case 9:
        return ctx.sliding(process(depth - 1), process(depth - 1));
      default:
        return ctx.seq(process(depth - 1), process(depth - 1));
    }
  }
};

/// The compression-invariant surface of a result: everything except the
/// exploration stats (which legitimately shrink on a compressed PASS).
void expect_same_verdict(const Context& ctx, const CheckResult& ref,
                         const CheckResult& got, const std::string& where) {
  EXPECT_EQ(ref.passed, got.passed) << where;
  EXPECT_EQ(ref.vacuous, got.vacuous) << where;
  ASSERT_EQ(ref.counterexample.has_value(), got.counterexample.has_value())
      << where;
  if (ref.counterexample) {
    const Counterexample& r = *ref.counterexample;
    const Counterexample& g = *got.counterexample;
    EXPECT_EQ(r.kind, g.kind) << where;
    EXPECT_EQ(r.trace, g.trace) << where;
    EXPECT_EQ(r.event, g.event) << where;
    EXPECT_EQ(r.impl_acceptance, g.impl_acceptance) << where;
    EXPECT_EQ(r.describe(ctx), g.describe(ctx)) << where;
    // A violation is replayed on the uncompressed machines, so failing runs
    // are byte-identical in the stats too.
    EXPECT_EQ(ref.stats.impl_states, got.stats.impl_states) << where;
    EXPECT_EQ(ref.stats.impl_transitions, got.stats.impl_transitions) << where;
    EXPECT_EQ(ref.stats.product_states, got.stats.product_states) << where;
  }
}

/// check_refinement_compiled on freshly compiled machines: the spec is
/// normalized for `m`, the impl compacted and then reduced by `mode`.
CheckResult check_compiled(Context& ctx, ProcessRef spec, ProcessRef impl,
                           Model m, Compression mode) {
  const NormLts norm =
      normalize(compile_lts(ctx, spec), m == Model::FailuresDivergences);
  const CompactLts compact = compile_lts(ctx, impl);
  return check_refinement_compiled(norm, compact, m, nullptr, mode);
}

class CompressDiff : public ::testing::TestWithParam<unsigned> {};

TEST_P(CompressDiff, RefinementIdenticalAtEveryMode) {
  Context ctx;
  TermGen gen(ctx, GetParam());
  for (int i = 0; i < 2; ++i) {
    const ProcessRef spec = gen.process(3);
    const ProcessRef impl = gen.process(3);
    for (const Model m :
         {Model::Traces, Model::Failures, Model::FailuresDivergences}) {
      const CheckResult ref =
          check_compiled(ctx, spec, impl, m, Compression::None);
      for (const Compression mode : kModes) {
        expect_same_verdict(ctx, ref, check_compiled(ctx, spec, impl, m, mode),
                            "seed=" + std::to_string(GetParam()) +
                                " term=" + std::to_string(i) +
                                " model=" + to_string(m) +
                                " mode=" + std::string(to_string(mode)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressDiff, ::testing::Range(0u, 8u));

// --- reduction sharp-edge regressions ---------------------------------------

class CompressRegression : public ::testing::Test {
 protected:
  CompressRegression() {
    a = ctx.event(ctx.channel("a"));
    b = ctx.event(ctx.channel("b"));
    c = ctx.event(ctx.channel("c"));
  }

  /// Every mode against Compression::None on one check.
  void expect_mode_invariant(ProcessRef spec, ProcessRef impl, Model m,
                             bool should_pass) {
    const CheckResult ref =
        check_compiled(ctx, spec, impl, m, Compression::None);
    ASSERT_EQ(ref.passed, should_pass);
    for (const Compression mode : kModes) {
      expect_same_verdict(ctx, ref, check_compiled(ctx, spec, impl, m, mode),
                          std::string(to_string(mode)));
    }
  }

  Context ctx;
  EventId a, b, c;
};

TEST_F(CompressRegression, TauCycleDivergenceSurvivesSccContraction) {
  // (a -> T) \ {a} is one big τ-cycle; diamond contracts the SCC to a
  // single state which must keep a τ self-loop, or the FD refinement that
  // hinges on the divergence would silently pass.
  ctx.define("T", [this](Context& cx, std::span<const Value>) {
    return cx.prefix(a, cx.var("T"));
  });
  const ProcessRef p = ctx.prefix(b, ctx.hide(ctx.var("T"), EventSet{a}));
  const ProcessRef spec = ctx.prefix(b, ctx.stop());
  expect_mode_invariant(spec, p, Model::FailuresDivergences,
                        /*should_pass=*/false);
  const CheckResult fd = check_compiled(ctx, spec, p, Model::FailuresDivergences,
                                        Compression::Diamond);
  ASSERT_TRUE(fd.counterexample);
  EXPECT_EQ(fd.counterexample->kind,
            Counterexample::Kind::DivergenceViolation);
}

TEST_F(CompressRegression, QuotientedDuplicateBranchesKeepTheCanonicalCx) {
  // IMPL offers the violating continuation twice through strongly bisimilar
  // branches; bisim merges them. The counterexample must still be the one
  // the uncompressed sweep picks (minimal trace <a>, event b) because a
  // compressed FAIL is replayed on the uncompressed machine.
  const ProcessRef spec = ctx.prefix(a, ctx.stop());
  const ProcessRef impl = ctx.prefix(
      a, ctx.ext_choice(ctx.prefix(b, ctx.prefix(c, ctx.stop())),
                        ctx.prefix(b, ctx.prefix(c, ctx.stop()))));
  expect_mode_invariant(spec, impl, Model::Traces, /*should_pass=*/false);
}

TEST_F(CompressRegression, BisimMustNotMergeDeadlockWithTermination) {
  // STOP and SKIP's Omega state are both transition-less, hence strongly
  // bisimilar by raw signatures — but semantically opposite: one deadlocks,
  // one terminated successfully. The terminal-class partition seed keeps
  // them apart. Refinement sweeps never read the terminal flags, so the
  // regression is pinned on the reduced machine itself: merging the two
  // would leave no deadlock state for a deadlock check to find.
  const ProcessRef p =
      ctx.int_choice(ctx.skip(), ctx.prefix(a, ctx.stop()));
  const CompactLts compact = compile_lts(ctx, p);
  for (const Compression mode : kModes) {
    const CompactLts reduced = compress_compact(compact, mode);
    bool deadlock = false;
    bool omega = false;
    for (StateId s = 0; s < reduced.state_count(); ++s) {
      deadlock = deadlock || reduced.is_deadlock(s);
      omega = omega || reduced.is_omega(s);
    }
    EXPECT_TRUE(deadlock) << to_string(mode);
    EXPECT_TRUE(omega) << to_string(mode);
  }
}

TEST_F(CompressRegression, ConfluencePruningKeepsFailuresSemantics) {
  // IMPL = (a -> STOP) |~| (a -> STOP [] b -> STOP): the initial τ choice
  // is NOT strongly confluent (the two branches differ in refusals), so
  // diamond must not prioritise it — doing so would lose the {a}-only
  // acceptance and flip both Failures checks.
  const ProcessRef impl = ctx.int_choice(
      ctx.prefix(a, ctx.stop()),
      ctx.ext_choice(ctx.prefix(a, ctx.stop()), ctx.prefix(b, ctx.stop())));
  const ProcessRef refuses_nothing =
      ctx.ext_choice(ctx.prefix(a, ctx.stop()), ctx.prefix(b, ctx.stop()));
  expect_mode_invariant(impl, impl, Model::Failures, /*should_pass=*/true);
  expect_mode_invariant(refuses_nothing, impl, Model::Failures,
                        /*should_pass=*/false);
  const CheckResult bad = check_compiled(ctx, refuses_nothing, impl,
                                         Model::Failures, Compression::Diamond);
  ASSERT_TRUE(bad.counterexample);
  EXPECT_EQ(bad.counterexample->kind,
            Counterexample::Kind::AcceptanceViolation);
}

}  // namespace
}  // namespace ecucsp
