#include <gtest/gtest.h>

#include "refine/check.hpp"
#include "refine/lts.hpp"
#include "refine/normalize.hpp"

namespace ecucsp {
namespace {

class RefineTest : public ::testing::Test {
 protected:
  RefineTest() {
    a = ctx.event(ctx.channel("a"));
    b = ctx.event(ctx.channel("b"));
    c = ctx.event(ctx.channel("c"));
  }

  Context ctx;
  EventId a, b, c;
};

// --- LTS compilation --------------------------------------------------------

TEST_F(RefineTest, CompileLtsCountsStates) {
  // a -> b -> STOP: three states, two transitions.
  const CompactLts lts = compile_lts(ctx, ctx.prefix(a, ctx.prefix(b, ctx.stop())));
  EXPECT_EQ(lts.state_count(), 3u);
  EXPECT_EQ(lts.transition_count(), 2u);
}

TEST_F(RefineTest, CompileLtsSharesRecursiveStates) {
  ctx.define("P", [this](Context& cx, std::span<const Value>) {
    return cx.prefix(a, cx.prefix(b, cx.var("P")));
  });
  const CompactLts lts = compile_lts(ctx, ctx.var("P"));
  EXPECT_EQ(lts.state_count(), 2u);  // the loop folds back
}

TEST_F(RefineTest, CompileLtsHonoursStateLimit) {
  const ChannelId n = ctx.channel("n", {[] {
    std::vector<Value> d;
    for (int i = 0; i < 1000; ++i) d.push_back(Value::integer(i));
    return d;
  }()});
  ctx.define("BIG", [n](Context& cx, std::span<const Value> args) {
    const std::int64_t k = args[0].as_int();
    if (k >= 999) return cx.stop();
    return cx.prefix(cx.event(n, {Value::integer(k)}),
                     cx.var("BIG", {Value::integer(k + 1)}));
  });
  EXPECT_THROW(compile_lts(ctx, ctx.var("BIG", {Value::integer(0)}), 10),
               StateLimitExceeded);
}

TEST_F(RefineTest, DivergentStatesFindsTauCycle) {
  ctx.define("T", [this](Context& cx, std::span<const Value>) {
    return cx.prefix(a, cx.var("T"));
  });
  const ProcessRef div = ctx.hide(ctx.var("T"), EventSet{a});
  const CompactLts lts = compile_lts(ctx, div);
  const auto d = lts.divergent_states();
  EXPECT_TRUE(d[lts.root]);
}

TEST_F(RefineTest, StraightLineIsNotDivergent) {
  const CompactLts lts = compile_lts(ctx, ctx.prefix(a, ctx.skip()));
  for (bool d : lts.divergent_states()) EXPECT_FALSE(d);
}

// --- normalisation ----------------------------------------------------------

TEST_F(RefineTest, NormalizeMergesNondeterministicBranches) {
  // a->b->STOP [] a->c->STOP normalises to one 'a' edge into a merged node.
  const ProcessRef p = ctx.ext_choice(ctx.prefix(a, ctx.prefix(b, ctx.stop())),
                                      ctx.prefix(a, ctx.prefix(c, ctx.stop())));
  const NormLts norm = normalize(compile_lts(ctx, p), false);
  const NormNode& root = norm.nodes[norm.root];
  ASSERT_EQ(root.succ.size(), 1u);
  const NormNode& after_a = norm.nodes[root.succ[0].second];
  EXPECT_EQ(after_a.initials, (EventSet{b, c}));
  // Two minimal acceptances: {b} and {c} — the process is nondeterministic.
  EXPECT_EQ(after_a.min_acceptances.size(), 2u);
}

TEST_F(RefineTest, NormalizeComputesMinimalAcceptances) {
  // (a->STOP [] b->STOP) |~| a->STOP: acceptances {a,b} and {a};
  // only {a} is subset-minimal.
  const ProcessRef p = ctx.int_choice(
      ctx.ext_choice(ctx.prefix(a, ctx.stop()), ctx.prefix(b, ctx.stop())),
      ctx.prefix(a, ctx.stop()));
  const NormLts norm = normalize(compile_lts(ctx, p), false);
  const NormNode& root = norm.nodes[norm.root];
  ASSERT_EQ(root.min_acceptances.size(), 1u);
  EXPECT_EQ(root.min_acceptances[0], (EventSet{a}));
}

TEST_F(RefineTest, SuccessorLookupIsByEvent) {
  const ProcessRef p = ctx.ext_choice(ctx.prefix(a, ctx.stop()),
                                      ctx.prefix(b, ctx.skip()));
  const NormLts norm = normalize(compile_lts(ctx, p), false);
  const NormNode& root = norm.nodes[norm.root];
  EXPECT_NE(root.successor(a), NORM_NONE);
  EXPECT_NE(root.successor(b), NORM_NONE);
  EXPECT_EQ(root.successor(c), NORM_NONE);
}

// --- trace refinement ---------------------------------------------------------

TEST_F(RefineTest, TraceRefinementPrefixClosure) {
  const ProcessRef spec = ctx.prefix(a, ctx.prefix(b, ctx.stop()));
  const ProcessRef impl = ctx.prefix(a, ctx.stop());
  EXPECT_TRUE(check_refinement(ctx, spec, impl, Model::Traces).passed);
}

TEST_F(RefineTest, TraceRefinementCatchesForbiddenEvent) {
  const ProcessRef spec = ctx.prefix(a, ctx.stop());
  const ProcessRef impl = ctx.prefix(a, ctx.prefix(b, ctx.stop()));
  const CheckResult r = check_refinement(ctx, spec, impl, Model::Traces);
  ASSERT_FALSE(r.passed);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_EQ(r.counterexample->kind, Counterexample::Kind::TraceViolation);
  EXPECT_EQ(r.counterexample->trace, (std::vector<EventId>{a}));
  EXPECT_EQ(r.counterexample->event, b);
  EXPECT_NE(r.counterexample->describe(ctx).find("forbids"), std::string::npos);
}

TEST_F(RefineTest, PaperSP02IntegrityProperty) {
  // The paper's security process SP02: every reqSw is answered by rptSw.
  //   SP02 = send.reqSw -> rec.rptSw -> SP02
  // The composed VMG||ECU system must trace-refine SP02.
  SymbolTable& sy = ctx.symbols();
  const Value reqSw = Value::symbol(sy.intern("reqSw"));
  const Value rptSw = Value::symbol(sy.intern("rptSw"));
  const ChannelId send = ctx.channel("send", {{reqSw, rptSw}});
  const ChannelId rec = ctx.channel("rec", {{reqSw, rptSw}});
  const EventId send_req = ctx.event(send, {reqSw});
  const EventId rec_rpt = ctx.event(rec, {rptSw});

  ctx.define("SP02", [=](Context& cx, std::span<const Value>) {
    return cx.prefix(send_req, cx.prefix(rec_rpt, cx.var("SP02")));
  });
  // VMG = send.reqSw -> rec.rptSw -> VMG; ECU = send.reqSw -> rec.rptSw -> ECU
  // SYSTEM = VMG [|{send.reqSw, rec.rptSw}|] ECU
  ctx.define("VMG", [=](Context& cx, std::span<const Value>) {
    return cx.prefix(send_req, cx.prefix(rec_rpt, cx.var("VMG")));
  });
  ctx.define("ECU", [=](Context& cx, std::span<const Value>) {
    return cx.prefix(send_req, cx.prefix(rec_rpt, cx.var("ECU")));
  });
  const ProcessRef system =
      ctx.par(ctx.var("VMG"), EventSet{send_req, rec_rpt}, ctx.var("ECU"));
  EXPECT_TRUE(check_refinement(ctx, ctx.var("SP02"), system, Model::Traces).passed);

  // A faulty ECU that may skip the response violates SP02.
  ctx.define("BADECU", [=](Context& cx, std::span<const Value>) {
    return cx.prefix(send_req,
                     cx.ext_choice(cx.prefix(rec_rpt, cx.var("BADECU")),
                                   cx.prefix(send_req, cx.var("BADECU"))));
  });
  const CheckResult bad = check_refinement(ctx, ctx.var("SP02"),
                                           ctx.var("BADECU"), Model::Traces);
  ASSERT_FALSE(bad.passed);
  EXPECT_EQ(bad.counterexample->trace, (std::vector<EventId>{send_req}));
  EXPECT_EQ(bad.counterexample->event, send_req);
}

TEST_F(RefineTest, HiddenEventsDoNotAppearInTraces) {
  const ProcessRef impl =
      ctx.hide(ctx.prefix(a, ctx.prefix(b, ctx.stop())), EventSet{a});
  const ProcessRef spec = ctx.prefix(b, ctx.stop());
  EXPECT_TRUE(check_refinement(ctx, spec, impl, Model::Traces).passed);
  EXPECT_TRUE(check_refinement(ctx, impl, spec, Model::Traces).passed);
}

TEST_F(RefineTest, TickParticipatesInTraces) {
  // SKIP is not a trace refinement of STOP extended with nothing: STOP's
  // traces are {<>}, SKIP's are {<>, <tick>}.
  const CheckResult r = check_refinement(ctx, ctx.stop(), ctx.skip(), Model::Traces);
  ASSERT_FALSE(r.passed);
  EXPECT_EQ(r.counterexample->event, TICK);
}

// --- failures refinement ---------------------------------------------------------

TEST_F(RefineTest, InternalChoiceDoesNotFailureRefineExternal) {
  const ProcessRef ext =
      ctx.ext_choice(ctx.prefix(a, ctx.stop()), ctx.prefix(b, ctx.stop()));
  const ProcessRef internal =
      ctx.int_choice(ctx.prefix(a, ctx.stop()), ctx.prefix(b, ctx.stop()));
  // Same traces...
  EXPECT_TRUE(check_refinement(ctx, ext, internal, Model::Traces).passed);
  // ...but the internal choice may refuse 'a', which ext never does.
  const CheckResult r = check_refinement(ctx, ext, internal, Model::Failures);
  ASSERT_FALSE(r.passed);
  EXPECT_EQ(r.counterexample->kind, Counterexample::Kind::AcceptanceViolation);
  EXPECT_TRUE(r.counterexample->trace.empty());
  // The converse direction holds.
  EXPECT_TRUE(check_refinement(ctx, internal, ext, Model::Failures).passed);
}

TEST_F(RefineTest, ChaosFailureRefinesEverythingOverItsAlphabet) {
  const ProcessRef chaos = ctx.chaos(EventSet{a, b});
  const ProcessRef impl = ctx.ext_choice(ctx.prefix(a, ctx.stop()),
                                         ctx.prefix(b, ctx.prefix(a, ctx.stop())));
  EXPECT_TRUE(check_refinement(ctx, chaos, impl, Model::Failures).passed);
}

TEST_F(RefineTest, StableFailuresIgnoresDivergence) {
  ctx.define("T", [this](Context& cx, std::span<const Value>) {
    return cx.prefix(a, cx.var("T"));
  });
  const ProcessRef div = ctx.hide(ctx.var("T"), EventSet{a});
  const ProcessRef spec = ctx.run(EventSet{b});
  // div has no stable states and no visible traces: passes in F...
  EXPECT_TRUE(check_refinement(ctx, spec, div, Model::Failures).passed);
  // ...but not in FD.
  const CheckResult r =
      check_refinement(ctx, spec, div, Model::FailuresDivergences);
  ASSERT_FALSE(r.passed);
  EXPECT_EQ(r.counterexample->kind, Counterexample::Kind::DivergenceViolation);
}

TEST_F(RefineTest, DivergentSpecPermitsEverythingBelow) {
  ctx.define("T", [this](Context& cx, std::span<const Value>) {
    return cx.prefix(a, cx.var("T"));
  });
  const ProcessRef div_spec = ctx.hide(ctx.var("T"), EventSet{a});
  const ProcessRef impl = ctx.prefix(b, ctx.stop());
  EXPECT_TRUE(
      check_refinement(ctx, div_spec, impl, Model::FailuresDivergences).passed);
}

TEST_F(RefineTest, FailuresRefinementReflexive) {
  const ProcessRef p = ctx.int_choice(
      ctx.ext_choice(ctx.prefix(a, ctx.skip()), ctx.prefix(b, ctx.stop())),
      ctx.prefix(c, ctx.stop()));
  for (Model m : {Model::Traces, Model::Failures, Model::FailuresDivergences}) {
    EXPECT_TRUE(check_refinement(ctx, p, p, m).passed) << to_string(m);
  }
}

// --- deadlock / divergence / determinism -------------------------------------------

TEST_F(RefineTest, DeadlockFound) {
  const CheckResult r = check_deadlock_free(ctx, ctx.prefix(a, ctx.stop()));
  ASSERT_FALSE(r.passed);
  EXPECT_EQ(r.counterexample->kind, Counterexample::Kind::Deadlock);
  EXPECT_EQ(r.counterexample->trace, (std::vector<EventId>{a}));
}

TEST_F(RefineTest, SuccessfulTerminationIsNotDeadlock) {
  EXPECT_TRUE(check_deadlock_free(ctx, ctx.prefix(a, ctx.skip())).passed);
  EXPECT_TRUE(check_deadlock_free(ctx, ctx.skip()).passed);
}

TEST_F(RefineTest, CyclicProcessIsDeadlockFree) {
  ctx.define("P", [this](Context& cx, std::span<const Value>) {
    return cx.prefix(a, cx.var("P"));
  });
  EXPECT_TRUE(check_deadlock_free(ctx, ctx.var("P")).passed);
}

TEST_F(RefineTest, MismatchedSynchronisationDeadlocks) {
  const ProcessRef p = ctx.par(ctx.prefix(a, ctx.prefix(b, ctx.stop())),
                               EventSet{a, b},
                               ctx.prefix(b, ctx.prefix(a, ctx.stop())));
  const CheckResult r = check_deadlock_free(ctx, p);
  ASSERT_FALSE(r.passed);
  EXPECT_TRUE(r.counterexample->trace.empty());
}

TEST_F(RefineTest, DivergenceDetected) {
  ctx.define("T", [this](Context& cx, std::span<const Value>) {
    return cx.prefix(a, cx.var("T"));
  });
  const ProcessRef p = ctx.prefix(b, ctx.hide(ctx.var("T"), EventSet{a}));
  const CheckResult r = check_divergence_free(ctx, p);
  ASSERT_FALSE(r.passed);
  EXPECT_EQ(r.counterexample->kind, Counterexample::Kind::Divergence);
  EXPECT_EQ(r.counterexample->trace, (std::vector<EventId>{b}));
}

TEST_F(RefineTest, FiniteProcessIsDivergenceFree) {
  EXPECT_TRUE(check_divergence_free(ctx, ctx.prefix(a, ctx.skip())).passed);
}

TEST_F(RefineTest, DeterministicProcessPasses) {
  ctx.define("P", [this](Context& cx, std::span<const Value>) {
    return cx.prefix(a, cx.prefix(b, cx.var("P")));
  });
  EXPECT_TRUE(check_deterministic(ctx, ctx.var("P")).passed);
}

TEST_F(RefineTest, InternalChoiceIsNondeterministic) {
  const ProcessRef p = ctx.int_choice(ctx.prefix(a, ctx.stop()), ctx.stop());
  const CheckResult r = check_deterministic(ctx, p);
  ASSERT_FALSE(r.passed);
  EXPECT_EQ(r.counterexample->kind, Counterexample::Kind::Nondeterminism);
  EXPECT_EQ(r.counterexample->event, a);
}

TEST_F(RefineTest, AmbiguousPrefixIsNondeterministic) {
  // a->b->STOP [] a->c->STOP: after <a> the process may refuse b.
  const ProcessRef p = ctx.ext_choice(ctx.prefix(a, ctx.prefix(b, ctx.stop())),
                                      ctx.prefix(a, ctx.prefix(c, ctx.stop())));
  const CheckResult r = check_deterministic(ctx, p);
  ASSERT_FALSE(r.passed);
  EXPECT_EQ(r.counterexample->trace, (std::vector<EventId>{a}));
}

TEST_F(RefineTest, DivergenceImpliesNondeterminism) {
  ctx.define("T", [this](Context& cx, std::span<const Value>) {
    return cx.prefix(a, cx.var("T"));
  });
  const CheckResult r =
      check_deterministic(ctx, ctx.hide(ctx.var("T"), EventSet{a}));
  EXPECT_FALSE(r.passed);
}

// --- trace enumeration -------------------------------------------------------------

TEST_F(RefineTest, EnumerateTracesIsPrefixClosed) {
  const ProcessRef p = ctx.prefix(a, ctx.prefix(b, ctx.stop()));
  const auto traces = enumerate_traces(ctx, p, 4);
  EXPECT_EQ(traces.size(), 3u);  // <>, <a>, <a,b>
}

TEST_F(RefineTest, EnumerateTracesRespectsBound) {
  ctx.define("P", [this](Context& cx, std::span<const Value>) {
    return cx.prefix(a, cx.var("P"));
  });
  const auto traces = enumerate_traces(ctx, ctx.var("P"), 3);
  EXPECT_EQ(traces.size(), 4u);  // lengths 0..3
}


TEST_F(RefineTest, TraceMembershipAcceptsAndRejects) {
  ctx.define("P", [this](Context& cx, std::span<const Value>) {
    return cx.prefix(a, cx.prefix(b, cx.var("P")));
  });
  const ProcessRef p = ctx.var("P");
  EXPECT_TRUE(is_trace_of(ctx, p, {}).member);
  EXPECT_TRUE(is_trace_of(ctx, p, {a, b, a}).member);
  const TraceMembership miss = is_trace_of(ctx, p, {a, a});
  EXPECT_FALSE(miss.member);
  EXPECT_EQ(miss.accepted_prefix, 1u);
  EXPECT_EQ(miss.offered, (EventSet{b}));
}

TEST_F(RefineTest, TraceMembershipSeesThroughTau) {
  // (a -> STOP) |~| (b -> STOP): both <a> and <b> are traces.
  const ProcessRef p =
      ctx.int_choice(ctx.prefix(a, ctx.stop()), ctx.prefix(b, ctx.stop()));
  EXPECT_TRUE(is_trace_of(ctx, p, {a}).member);
  EXPECT_TRUE(is_trace_of(ctx, p, {b}).member);
  EXPECT_FALSE(is_trace_of(ctx, p, {a, b}).member);
}

TEST_F(RefineTest, TraceMembershipMatchesEnumeration) {
  const ProcessRef p = ctx.interleave(ctx.prefix(a, ctx.prefix(b, ctx.stop())),
                                      ctx.prefix(c, ctx.skip()));
  for (const auto& t : enumerate_traces(ctx, p, 5)) {
    EXPECT_TRUE(is_trace_of(ctx, p, t).member) << format_trace(ctx, t);
  }
}

TEST_F(RefineTest, FormatTraceReadable) {
  EXPECT_EQ(format_trace(ctx, {a, b}), "<a, b>");
  EXPECT_EQ(format_trace(ctx, {}), "<>");
}

TEST_F(RefineTest, StatsArePopulated) {
  const ProcessRef p = ctx.prefix(a, ctx.prefix(b, ctx.stop()));
  const CheckResult r = check_refinement(ctx, p, p, Model::Failures);
  EXPECT_TRUE(r.passed);
  EXPECT_EQ(r.stats.impl_states, 3u);
  EXPECT_GT(r.stats.spec_norm_nodes, 0u);
  EXPECT_GT(r.stats.product_states, 0u);
}

}  // namespace
}  // namespace ecucsp
