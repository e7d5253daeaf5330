// Differential tests: three independent engines answer the same question
// and must agree.
//
//   * is_trace_of (tau-closed LTS walk)        vs
//   * check_refinement in the traces model     vs
//   * enumerate_traces (explicit enumeration)
//
// The bridge is the classic one: a finite trace t is a trace of P iff the
// prefix-closed process T_t = e1 -> e2 -> ... -> STOP trace-refines against
// P as spec, because traces(T_t) = prefixes(t) and trace sets are
// prefix-closed. Random terms come from the same seeded generator family as
// refine_props_test, so failures reproduce by seed.
//
// Also here: the regression tests for canonical counterexample selection —
// the first BFS level holding a violation wins, and ties within it break by
// lexicographic trace order, then kind, event and acceptance — pinned on
// terms with several candidate violations, where a scan-order-dependent
// engine would be free to report any of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "refine/check.hpp"

namespace ecucsp {
namespace {

struct DiffGen {
  Context& ctx;
  std::mt19937 rng;
  std::vector<EventId> alphabet;

  DiffGen(Context& c, unsigned seed) : ctx(c), rng(seed) {
    for (const char* name : {"a", "b", "c"}) {
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

  /// Random visible trace over the alphabet (never contains tau/tick).
  std::vector<EventId> trace(std::size_t max_len) {
    std::vector<EventId> out;
    const std::size_t len =
        std::uniform_int_distribution<std::size_t>(0, max_len)(rng);
    for (std::size_t i = 0; i < len; ++i) out.push_back(event());
    return out;
  }

  ProcessRef process(int depth) {
    switch (std::uniform_int_distribution<int>(0, depth <= 0 ? 1 : 8)(rng)) {
      case 0:
        return ctx.stop();
      case 1:
        return ctx.prefix(event(),
                          depth <= 0 ? ctx.stop() : process(depth - 1));
      case 2:
        return ctx.ext_choice(process(depth - 1), process(depth - 1));
      case 3:
        return ctx.int_choice(process(depth - 1), process(depth - 1));
      case 4:
        return ctx.par(process(depth - 1), event_set(), process(depth - 1));
      case 5:
        return ctx.interleave(process(depth - 1), process(depth - 1));
      case 6:
        return ctx.hide(process(depth - 1), event_set());
      case 7:
        return ctx.sliding(process(depth - 1), process(depth - 1));
      default: {
        const EventId from = event();
        const EventId to = event();
        return ctx.rename(process(depth - 1), {{from, to}});
      }
    }
  }
};

/// T_t: the linear process whose traces are exactly the prefixes of t.
ProcessRef linear(Context& ctx, const std::vector<EventId>& t) {
  return ctx.prefix_seq(t, ctx.stop());
}

class RefineDiff : public ::testing::TestWithParam<unsigned> {};

TEST_P(RefineDiff, MembershipAgreesWithRefinementOnRandomTraces) {
  Context ctx;
  DiffGen gen(ctx, GetParam());
  const ProcessRef p = gen.process(3);
  for (int i = 0; i < 12; ++i) {
    const std::vector<EventId> t = gen.trace(4);
    const bool member = is_trace_of(ctx, p, t).member;
    const bool refines =
        check_refinement(ctx, p, linear(ctx, t), Model::Traces).passed;
    EXPECT_EQ(member, refines)
        << "seed=" << GetParam() << " trace=" << format_trace(ctx, t);
  }
}

TEST_P(RefineDiff, MembershipAgreesWithEnumerationOnEnumeratedTraces) {
  // Every enumerated trace must be a member; tick-ending traces are the
  // boundary case (is_trace_of walks tick like any visible event).
  Context ctx;
  DiffGen gen(ctx, GetParam());
  const ProcessRef p = gen.process(2);
  for (const std::vector<EventId>& t : enumerate_traces(ctx, p, 6)) {
    EXPECT_TRUE(is_trace_of(ctx, p, t).member)
        << "seed=" << GetParam() << " trace=" << format_trace(ctx, t);
  }
}

TEST_P(RefineDiff, NonMemberDiagnosticsAreConsistent) {
  // For a rejected trace: the accepted prefix must itself be a member, the
  // prefix extended by the failing event must not, and the failing event
  // must not be in the offered set.
  Context ctx;
  DiffGen gen(ctx, GetParam());
  const ProcessRef p = gen.process(3);
  for (int i = 0; i < 12; ++i) {
    const std::vector<EventId> t = gen.trace(4);
    const TraceMembership m = is_trace_of(ctx, p, t);
    if (m.member) continue;
    ASSERT_LT(m.accepted_prefix, t.size());
    const std::vector<EventId> prefix(t.begin(),
                                      t.begin() + m.accepted_prefix);
    EXPECT_TRUE(is_trace_of(ctx, p, prefix).member)
        << "seed=" << GetParam() << " trace=" << format_trace(ctx, t);
    std::vector<EventId> one_more = prefix;
    one_more.push_back(t[m.accepted_prefix]);
    EXPECT_FALSE(is_trace_of(ctx, p, one_more).member)
        << "seed=" << GetParam() << " trace=" << format_trace(ctx, t);
    EXPECT_FALSE(m.offered.contains(t[m.accepted_prefix]))
        << "seed=" << GetParam() << " trace=" << format_trace(ctx, t);
  }
}

TEST_P(RefineDiff, EveryOfferedEventExtendsTheAcceptedPrefix) {
  Context ctx;
  DiffGen gen(ctx, GetParam());
  const ProcessRef p = gen.process(3);
  for (int i = 0; i < 8; ++i) {
    const std::vector<EventId> t = gen.trace(3);
    const TraceMembership m = is_trace_of(ctx, p, t);
    if (m.member) continue;
    const std::vector<EventId> prefix(t.begin(),
                                      t.begin() + m.accepted_prefix);
    for (const EventId e : m.offered) {
      std::vector<EventId> extended = prefix;
      extended.push_back(e);
      EXPECT_TRUE(is_trace_of(ctx, p, extended).member)
          << "seed=" << GetParam() << " offered=" << ctx.event_name(e);
    }
  }
}

TEST_P(RefineDiff, PrefixClosedSpecFromEnumeratedTraceIsRefined) {
  // Round trip through the refinement engine: every enumerated trace of P
  // yields a linear spec that P's own traces cover.
  Context ctx;
  DiffGen gen(ctx, GetParam());
  const ProcessRef p = gen.process(2);
  auto traces = enumerate_traces(ctx, p, 5);
  // Sample a handful; the full set can be large.
  for (std::size_t i = 0; i < traces.size(); i += std::max<std::size_t>(1, traces.size() / 8)) {
    EXPECT_TRUE(
        check_refinement(ctx, p, linear(ctx, traces[i]), Model::Traces).passed)
        << "seed=" << GetParam() << " trace=" << format_trace(ctx, traces[i]);
  }
}

TEST_P(RefineDiff, DeterministicProcessesEquateTracesAndFailures) {
  // For deterministic P and Q, failures equivalence collapses to trace
  // equivalence — the failures of a deterministic process are determined by
  // its traces. (Refinement itself does NOT collapse: a deterministic spec
  // may still forbid refusals a trace-refining deterministic impl has.)
  Context ctx;
  DiffGen gen(ctx, GetParam());
  const ProcessRef p = gen.process(2);
  const ProcessRef q = gen.process(2);
  if (!check_deterministic(ctx, p).passed ||
      !check_deterministic(ctx, q).passed) {
    return;
  }
  const bool trace_equiv = check_refinement(ctx, p, q, Model::Traces).passed &&
                           check_refinement(ctx, q, p, Model::Traces).passed;
  const bool failures_equiv =
      check_refinement(ctx, p, q, Model::Failures).passed &&
      check_refinement(ctx, q, p, Model::Failures).passed;
  EXPECT_EQ(trace_equiv, failures_equiv) << "seed=" << GetParam();
}

TEST_P(RefineDiff, MembershipIsInvariantUnderTauPadding) {
  // Hiding an event never performed leaves membership untouched; this
  // exercises the tau-closure path of is_trace_of against a tau-free twin.
  Context ctx;
  DiffGen gen(ctx, GetParam());
  const ProcessRef p = gen.process(2);
  const EventId d = ctx.event(ctx.channel("d"));
  const ProcessRef padded = ctx.hide(
      ctx.interleave(p, ctx.prefix(d, ctx.stop())), EventSet{d});
  for (int i = 0; i < 8; ++i) {
    const std::vector<EventId> t = gen.trace(3);
    EXPECT_EQ(is_trace_of(ctx, p, t).member, is_trace_of(ctx, padded, t).member)
        << "seed=" << GetParam() << " trace=" << format_trace(ctx, t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefineDiff, ::testing::Range(0u, 40u));

// --- canonical counterexample selection regressions -------------------------

class CanonicalCx : public ::testing::Test {
 protected:
  CanonicalCx() {
    a = ctx.event(ctx.channel("a"));
    b = ctx.event(ctx.channel("b"));
    c = ctx.event(ctx.channel("c"));
  }
  Context ctx;
  EventId a, b, c;
};

TEST_F(CanonicalCx, SameStateTieBreaksOnEventIdNotScanOrder) {
  // SPEC = a -> a -> STOP; IMPL = a -> (c -> STOP [] b -> STOP).
  // After <a> both branches violate at the same state. The implementation
  // term lists c first, so a scan-order engine could report c; the
  // canonical pick is the smaller event id b.
  const ProcessRef spec = ctx.prefix(a, ctx.prefix(a, ctx.stop()));
  const ProcessRef impl = ctx.prefix(
      a, ctx.ext_choice(ctx.prefix(c, ctx.stop()), ctx.prefix(b, ctx.stop())));
  const CheckResult r = check_refinement(ctx, spec, impl, Model::Traces);
  ASSERT_FALSE(r.passed);
  ASSERT_TRUE(r.counterexample);
  EXPECT_EQ(r.counterexample->kind, Counterexample::Kind::TraceViolation);
  EXPECT_EQ(r.counterexample->trace, std::vector<EventId>{a});
  EXPECT_EQ(r.counterexample->event, b);
}

TEST_F(CanonicalCx, MultipleMinimalLengthFailuresPickLexSmallestTrace) {
  // SPEC = (a -> a -> STOP) [] (b -> a -> STOP);
  // IMPL = (a -> c -> STOP) [] (b -> b -> STOP).
  // Two violations at minimal length 1: after <a> the event c, after <b>
  // the event b. Same BFS level, different product states — the
  // shortest-trace guarantee alone cannot separate them. The canonical
  // pick is the lexicographically smaller trace <a>, hence event c.
  const ProcessRef spec =
      ctx.ext_choice(ctx.prefix(a, ctx.prefix(a, ctx.stop())),
                     ctx.prefix(b, ctx.prefix(a, ctx.stop())));
  const ProcessRef impl =
      ctx.ext_choice(ctx.prefix(a, ctx.prefix(c, ctx.stop())),
                     ctx.prefix(b, ctx.prefix(b, ctx.stop())));
  const CheckResult r = check_refinement(ctx, spec, impl, Model::Traces);
  ASSERT_FALSE(r.passed);
  ASSERT_TRUE(r.counterexample);
  EXPECT_EQ(r.counterexample->trace, std::vector<EventId>{a});
  EXPECT_EQ(r.counterexample->event, c);
}

TEST_F(CanonicalCx, ShortestViolationWinsOverDeeperOnes) {
  // SPEC = b -> a -> a -> STOP | IMPL = b -> a -> (b -> STOP [] a -> c -> STOP):
  // a violation (b) at depth 2 and another (c) at depth 3 — the search
  // must stop at the first violating level and never report c.
  const ProcessRef spec =
      ctx.prefix(b, ctx.prefix(a, ctx.prefix(a, ctx.stop())));
  const ProcessRef impl = ctx.prefix(
      b, ctx.prefix(a, ctx.ext_choice(
                           ctx.prefix(b, ctx.stop()),
                           ctx.prefix(a, ctx.prefix(c, ctx.stop())))));
  const CheckResult r = check_refinement(ctx, spec, impl, Model::Traces);
  ASSERT_FALSE(r.passed);
  const std::vector<EventId> want{b, a};
  EXPECT_EQ(r.counterexample->trace, want);
  EXPECT_EQ(r.counterexample->event, b);
  // product_states counts every state through the violating level:
  // (spec0, impl0) -b-> (spec1, impl1) -a-> (spec2, impl2), which is where
  // the b edge violates. Its a edge, scanned first (transitions are sorted
  // by event id), reaches a fourth state (spec3, a -> c -> STOP) one level
  // deeper; a search that stopped at the violating edge would count it.
  EXPECT_EQ(r.stats.product_states, 3u);
}

TEST_F(CanonicalCx, VacuousPassIsFlagged) {
  // SPEC = a -> STOP constrains {a}; IMPL = STOP never reaches it, so the
  // pass is vacuous (the flag is computed after the sweep).
  const ProcessRef spec = ctx.prefix(a, ctx.stop());
  const ProcessRef impl = ctx.stop();
  const CheckResult r = check_refinement(ctx, spec, impl, Model::Traces);
  EXPECT_TRUE(r.passed);
  EXPECT_TRUE(r.vacuous);
}

TEST_F(CanonicalCx, FdDivergenceViolationNamesTheDivergingPrefix) {
  // IMPL = b -> (T \ {a}) with T = a -> T diverges right after <b>, where
  // SPEC = b -> STOP does not.
  ctx.define("T", [this](Context& cx, std::span<const Value>) {
    return cx.prefix(a, cx.var("T"));
  });
  const ProcessRef spec = ctx.prefix(b, ctx.stop());
  const ProcessRef impl =
      ctx.prefix(b, ctx.hide(ctx.var("T"), EventSet{a}));
  const CheckResult r =
      check_refinement(ctx, spec, impl, Model::FailuresDivergences);
  ASSERT_FALSE(r.passed);
  ASSERT_EQ(r.counterexample->kind,
            Counterexample::Kind::DivergenceViolation);
  EXPECT_EQ(r.counterexample->trace, std::vector<EventId>{b});
}

}  // namespace
}  // namespace ecucsp
