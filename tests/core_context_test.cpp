#include <gtest/gtest.h>

#include <algorithm>

#include "core/context.hpp"

namespace ecucsp {
namespace {

/// Sorted event names of all outgoing transitions.
std::vector<std::string> initials_of(Context& ctx, ProcessRef p) {
  std::vector<std::string> out;
  for (const Transition& t : ctx.transitions(p)) {
    out.push_back(ctx.event_name(t.event));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

class ContextTest : public ::testing::Test {
 protected:
  Context ctx;
};

TEST_F(ContextTest, ChannelDeclarationAndLookup) {
  const ChannelId a = ctx.channel("a");
  EXPECT_EQ(ctx.find_channel("a"), a);
  EXPECT_EQ(ctx.find_channel("missing"), std::nullopt);
  // Identical re-declaration is idempotent.
  EXPECT_EQ(ctx.channel("a"), a);
}

TEST_F(ContextTest, ChannelRedeclarationWithDifferentTypeThrows) {
  ctx.channel("c", {{Value::integer(0), Value::integer(1)}});
  EXPECT_THROW(ctx.channel("c", {{Value::integer(0)}}), ModelError);
}

TEST_F(ContextTest, EventInterningIsStable) {
  const ChannelId c = ctx.channel("c", {{Value::integer(0), Value::integer(1)}});
  const EventId e0 = ctx.event(c, {Value::integer(0)});
  const EventId e1 = ctx.event(c, {Value::integer(1)});
  EXPECT_NE(e0, e1);
  EXPECT_EQ(ctx.event(c, {Value::integer(0)}), e0);
  EXPECT_GE(e0, FIRST_USER_EVENT);
}

TEST_F(ContextTest, EventOutsideDomainThrows) {
  const ChannelId c = ctx.channel("c", {{Value::integer(0)}});
  EXPECT_THROW(ctx.event(c, {Value::integer(9)}), ModelError);
  EXPECT_THROW(ctx.event(c, {}), ModelError);  // wrong arity
}

TEST_F(ContextTest, EventsOfEnumeratesCartesianProduct) {
  const ChannelId c = ctx.channel(
      "msg", {{Value::integer(0), Value::integer(1)},
              {Value::integer(10), Value::integer(11), Value::integer(12)}});
  EXPECT_EQ(ctx.events_of(c).size(), 6u);
}

TEST_F(ContextTest, EventsOfEmptyFieldDomainIsEmpty) {
  // channel c : {} has no events, and neither has a product with one empty
  // factor.
  const ChannelId c = ctx.channel("c", {{}});
  EXPECT_TRUE(ctx.events_of(c).empty());
  const ChannelId d =
      ctx.channel("d", {{Value::integer(0), Value::integer(1)}, {}});
  EXPECT_TRUE(ctx.events_of(d).empty());
  const std::vector<ChannelId> both{c, d};
  EXPECT_TRUE(ctx.events_of(both).empty());
}

TEST_F(ContextTest, EventNameRendersDottedForm) {
  SymbolTable& sy = ctx.symbols();
  const ChannelId c =
      ctx.channel("send", {{Value::symbol(sy.intern("reqSw"))}});
  const EventId e = ctx.event(c, {Value::symbol(sy.intern("reqSw"))});
  EXPECT_EQ(ctx.event_name(e), "send.reqSw");
  EXPECT_EQ(ctx.event_name(TAU), "tau");
  EXPECT_EQ(ctx.event_name(TICK), "tick");
}

TEST_F(ContextTest, HashConsingSharesStructure) {
  const EventId a = ctx.event(ctx.channel("a"));
  const ProcessRef p1 = ctx.prefix(a, ctx.stop());
  const ProcessRef p2 = ctx.prefix(a, ctx.stop());
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(ctx.ext_choice(p1, ctx.skip()), ctx.ext_choice(ctx.skip(), p2));
}

TEST_F(ContextTest, PrefixOnReservedEventThrows) {
  EXPECT_THROW(ctx.prefix(TAU, ctx.stop()), ModelError);
  EXPECT_THROW(ctx.prefix(TICK, ctx.stop()), ModelError);
}

TEST_F(ContextTest, StopHasNoTransitions) {
  EXPECT_TRUE(ctx.transitions(ctx.stop()).empty());
  EXPECT_TRUE(ctx.transitions(ctx.omega()).empty());
}

TEST_F(ContextTest, SkipTicksToOmega) {
  const auto& ts = ctx.transitions(ctx.skip());
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].event, TICK);
  EXPECT_EQ(ts[0].target, ctx.omega());
}

TEST_F(ContextTest, PrefixFiresItsEvent) {
  const EventId a = ctx.event(ctx.channel("a"));
  const auto& ts = ctx.transitions(ctx.prefix(a, ctx.skip()));
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].event, a);
  EXPECT_EQ(ts[0].target, ctx.skip());
}

TEST_F(ContextTest, PrefixSeqBuildsChain) {
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  const std::vector<EventId> evs{a, b};
  ProcessRef p = ctx.prefix_seq(evs, ctx.stop());
  EXPECT_EQ(p, ctx.prefix(a, ctx.prefix(b, ctx.stop())));
}

TEST_F(ContextTest, ExternalChoiceOffersBothSides) {
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  const ProcessRef p =
      ctx.ext_choice(ctx.prefix(a, ctx.stop()), ctx.prefix(b, ctx.stop()));
  EXPECT_EQ(initials_of(ctx, p), (std::vector<std::string>{"a", "b"}));
}

TEST_F(ContextTest, ExternalChoiceTauKeepsChoicePending) {
  // (a->STOP |~| b->STOP) [] c->STOP: the internal choice's taus must not
  // discard the right operand.
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  const EventId c = ctx.event(ctx.channel("c"));
  const ProcessRef inner =
      ctx.int_choice(ctx.prefix(a, ctx.stop()), ctx.prefix(b, ctx.stop()));
  const ProcessRef p = ctx.ext_choice(inner, ctx.prefix(c, ctx.stop()));
  const auto& ts = ctx.transitions(p);
  std::size_t taus = 0;
  for (const Transition& t : ts) {
    if (t.event == TAU) {
      ++taus;
      // After the tau the external choice is still offered.
      EXPECT_EQ(t.target->op(), Op::ExtChoice);
    }
  }
  EXPECT_EQ(taus, 2u);
}

TEST_F(ContextTest, InternalChoiceHasTwoTaus) {
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  const ProcessRef p =
      ctx.int_choice(ctx.prefix(a, ctx.stop()), ctx.prefix(b, ctx.stop()));
  const auto& ts = ctx.transitions(p);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[0].event, TAU);
  EXPECT_EQ(ts[1].event, TAU);
}

TEST_F(ContextTest, ChoiceIsOneFlatNodeInAciNormalForm) {
  // Every association and order of the same operands interns one node that
  // holds all of them; a repeated operand is dropped.
  const ProcessRef p = ctx.prefix(ctx.event(ctx.channel("a")), ctx.stop());
  const ProcessRef q = ctx.prefix(ctx.event(ctx.channel("b")), ctx.stop());
  const ProcessRef r = ctx.prefix(ctx.event(ctx.channel("c")), ctx.stop());
  using Ctor = ProcessRef (Context::*)(ProcessRef, ProcessRef);
  for (const Ctor choice : {static_cast<Ctor>(&Context::ext_choice),
                            static_cast<Ctor>(&Context::int_choice)}) {
    const auto c = [&](ProcessRef x, ProcessRef y) {
      return (ctx.*choice)(x, y);
    };
    const ProcessRef left = c(c(p, q), r);
    EXPECT_EQ(left->kid_count(), 3u);
    EXPECT_EQ(c(p, c(q, r)), left);
    EXPECT_EQ(c(r, c(q, p)), left);
    EXPECT_EQ(c(p, c(q, p)), c(p, q));
    EXPECT_EQ(c(p, q)->kid_count(), 2u);
  }
  const std::vector<ProcessRef> ops{r, p, q, p};
  EXPECT_EQ(ctx.ext_choice(ops), ctx.ext_choice(ctx.ext_choice(p, q), r));
  EXPECT_EQ(ctx.int_choice(ops), ctx.int_choice(ctx.int_choice(p, q), r));
  EXPECT_EQ(ctx.ext_choice(std::span(ops).first(1)), r);
}

TEST_F(ContextTest, ChoiceOverKDistinctOperandsIsOneNodeOfKKids) {
  const ChannelId c = ctx.channel("c", {{Value::integer(0), Value::integer(1),
                                         Value::integer(2), Value::integer(3),
                                         Value::integer(4)}});
  std::vector<ProcessRef> arms;
  for (std::int64_t i = 0; i < 5; ++i) {
    arms.push_back(ctx.prefix(ctx.event(c, {Value::integer(i)}), ctx.stop()));
  }
  const ProcessRef p = ctx.ext_choice(arms);
  EXPECT_EQ(p->op(), Op::ExtChoice);
  EXPECT_EQ(p->kid_count(), 5u);
  EXPECT_EQ(ctx.transitions(p).size(), 5u);
  // STOP is an operand like any other: no law beyond ACI drops it.
  arms.push_back(ctx.stop());
  EXPECT_EQ(ctx.ext_choice(arms)->kid_count(), 6u);
}

TEST_F(ContextTest, TauInsideOneOperandYieldsAFlatChoice) {
  // (a->STOP [] b->STOP |~| d->STOP) [] c->STOP: the tau to a->STOP []
  // b->STOP leaves one three-operand choice, not a nested one.
  const ProcessRef pa = ctx.prefix(ctx.event(ctx.channel("a")), ctx.stop());
  const ProcessRef pb = ctx.prefix(ctx.event(ctx.channel("b")), ctx.stop());
  const ProcessRef pc = ctx.prefix(ctx.event(ctx.channel("c")), ctx.stop());
  const ProcessRef pd = ctx.prefix(ctx.event(ctx.channel("d")), ctx.stop());
  const ProcessRef p =
      ctx.ext_choice(ctx.int_choice(ctx.ext_choice(pa, pb), pd), pc);
  const std::vector<ProcessRef> flat{pa, pb, pc};
  std::vector<ProcessRef> tau_targets;
  for (const Transition& t : ctx.transitions(p)) {
    if (t.event == TAU) tau_targets.push_back(t.target);
  }
  ASSERT_EQ(tau_targets.size(), 2u);
  EXPECT_NE(std::find(tau_targets.begin(), tau_targets.end(),
                      ctx.ext_choice(flat)),
            tau_targets.end());
  EXPECT_EQ(ctx.ext_choice(flat)->kid_count(), 3u);
}

TEST_F(ContextTest, SequentialCompositionHandsOverOnTick) {
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  // (a -> SKIP) ; (b -> STOP)
  ProcessRef p = ctx.seq(ctx.prefix(a, ctx.skip()), ctx.prefix(b, ctx.stop()));
  auto ts = ctx.transitions(p);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].event, a);
  // Now at SKIP;(b->STOP): the tick is internalised.
  ts = ctx.transitions(ts[0].target);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].event, TAU);
  ts = ctx.transitions(ts[0].target);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].event, b);
}

TEST_F(ContextTest, ParallelSynchronisesOnSharedEvents) {
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  // (a -> b -> STOP) [|{a}|] (a -> STOP): a is joint, b is free afterwards.
  const ProcessRef left = ctx.prefix(a, ctx.prefix(b, ctx.stop()));
  const ProcessRef right = ctx.prefix(a, ctx.stop());
  const ProcessRef p = ctx.par(left, EventSet{a}, right);
  auto ts = ctx.transitions(p);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].event, a);
  EXPECT_EQ(initials_of(ctx, ts[0].target), (std::vector<std::string>{"b"}));
}

TEST_F(ContextTest, ParallelBlocksUnmatchedSyncEvent) {
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  // (a -> STOP) [|{a,b}|] (b -> STOP) deadlocks immediately.
  const ProcessRef p = ctx.par(ctx.prefix(a, ctx.stop()), EventSet{a, b},
                               ctx.prefix(b, ctx.stop()));
  EXPECT_TRUE(ctx.transitions(p).empty());
}

TEST_F(ContextTest, InterleavingRunsIndependently) {
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  const ProcessRef p =
      ctx.interleave(ctx.prefix(a, ctx.stop()), ctx.prefix(b, ctx.stop()));
  EXPECT_EQ(initials_of(ctx, p), (std::vector<std::string>{"a", "b"}));
}

TEST_F(ContextTest, DistributedTermination) {
  // SKIP ||| SKIP must tick exactly once, after both sides retire.
  const ProcessRef p = ctx.interleave(ctx.skip(), ctx.skip());
  auto ts = ctx.transitions(p);
  // Both sides retire via tau.
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[0].event, TAU);
  EXPECT_EQ(ts[1].event, TAU);
  auto ts2 = ctx.transitions(ts[0].target);
  ASSERT_EQ(ts2.size(), 1u);
  EXPECT_EQ(ts2[0].event, TAU);
  auto ts3 = ctx.transitions(ts2[0].target);
  ASSERT_EQ(ts3.size(), 1u);
  EXPECT_EQ(ts3[0].event, TICK);
}

TEST_F(ContextTest, SyncSetWithReservedEventThrows) {
  EXPECT_THROW(ctx.par(ctx.stop(), EventSet{TAU}, ctx.stop()), ModelError);
  EXPECT_THROW(ctx.par(ctx.stop(), EventSet{TICK}, ctx.stop()), ModelError);
}

TEST_F(ContextTest, HidingMakesEventsInternal) {
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  const ProcessRef p =
      ctx.hide(ctx.prefix(a, ctx.prefix(b, ctx.stop())), EventSet{a});
  const auto& ts = ctx.transitions(p);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].event, TAU);
  EXPECT_EQ(initials_of(ctx, ts[0].target), (std::vector<std::string>{"b"}));
}

TEST_F(ContextTest, HidingTickThrows) {
  EXPECT_THROW(ctx.hide(ctx.skip(), EventSet{TICK}), ModelError);
}

TEST_F(ContextTest, RenamingMapsEvents) {
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  const ProcessRef p = ctx.rename(ctx.prefix(a, ctx.stop()), {{a, b}});
  const auto& ts = ctx.transitions(p);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].event, b);
}

TEST_F(ContextTest, RelationalRenamingForks) {
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  const EventId c = ctx.event(ctx.channel("c"));
  const ProcessRef p = ctx.rename(ctx.prefix(a, ctx.stop()), {{a, b}, {a, c}});
  EXPECT_EQ(initials_of(ctx, p), (std::vector<std::string>{"b", "c"}));
}

TEST_F(ContextTest, NamedRecursionUnfolds) {
  const EventId a = ctx.event(ctx.channel("a"));
  ctx.define("P", [a](Context& c, std::span<const Value>) {
    return c.prefix(a, c.var("P"));
  });
  ProcessRef p = ctx.var("P");
  const auto& ts = ctx.transitions(p);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].event, a);
  // The recursion ties back to the same canonical state.
  EXPECT_EQ(ctx.canonical(ts[0].target), ctx.canonical(p));
}

TEST_F(ContextTest, ParameterisedDefinitionsAreMemoised) {
  const ChannelId c = ctx.channel(
      "count", {{Value::integer(0), Value::integer(1), Value::integer(2)}});
  ctx.define("CNT", [c](Context& cx, std::span<const Value> args) {
    const std::int64_t n = args[0].as_int();
    if (n == 0) return cx.stop();
    return cx.prefix(cx.event(c, {Value::integer(n)}),
                     cx.var("CNT", {Value::integer(n - 1)}));
  });
  ProcessRef p = ctx.var("CNT", {Value::integer(2)});
  auto ts = ctx.transitions(p);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ctx.event_name(ts[0].event), "count.2");
  ts = ctx.transitions(ts[0].target);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ctx.event_name(ts[0].event), "count.1");
  EXPECT_TRUE(ctx.transitions(ts[0].target).empty());
}

TEST_F(ContextTest, UndefinedProcessThrows) {
  EXPECT_THROW(ctx.transitions(ctx.var("NOPE")), ModelError);
}

TEST_F(ContextTest, UnguardedRecursionIsDetected) {
  ctx.define("LOOP", [](Context& c, std::span<const Value>) {
    return c.var("LOOP");
  });
  EXPECT_THROW(ctx.transitions(ctx.var("LOOP")), ModelError);
}

TEST_F(ContextTest, UnguardedMutualRecursionIsDetected) {
  ctx.define("A", [](Context& c, std::span<const Value>) { return c.var("B"); });
  ctx.define("B", [](Context& c, std::span<const Value>) { return c.var("A"); });
  EXPECT_THROW(ctx.canonical(ctx.var("A")), ModelError);
}

TEST_F(ContextTest, RunAcceptsItsAlphabetForever) {
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  ProcessRef r = ctx.run(EventSet{a, b});
  const auto& ts = ctx.transitions(r);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ctx.canonical(ts[0].target), ctx.canonical(r));
}

TEST_F(ContextTest, TransitionsAreMemoised) {
  const EventId a = ctx.event(ctx.channel("a"));
  const ProcessRef p = ctx.prefix(a, ctx.stop());
  const auto* first = &ctx.transitions(p);
  const auto* second = &ctx.transitions(p);
  EXPECT_EQ(first, second);
}


TEST_F(ContextTest, InterruptTransfersControlOnVisibleEvent) {
  const EventId a = ctx.event(ctx.channel("ia"));
  const EventId b = ctx.event(ctx.channel("ib"));
  // (a -> a -> STOP) /\ (b -> STOP): b may fire at any point and wins.
  const ProcessRef p = ctx.interrupt(ctx.prefix(a, ctx.prefix(a, ctx.stop())),
                                     ctx.prefix(b, ctx.stop()));
  const auto& ts = ctx.transitions(p);
  ASSERT_EQ(ts.size(), 2u);
  for (const Transition& t : ts) {
    if (t.event == b) {
      EXPECT_EQ(t.target, ctx.stop());  // control transferred for good
    } else {
      EXPECT_EQ(t.event, a);
      EXPECT_EQ(t.target->op(), Op::Interrupt);  // interrupt still armed
    }
  }
}

TEST_F(ContextTest, InterruptTerminationWins) {
  const EventId b = ctx.event(ctx.channel("ib2"));
  const ProcessRef p = ctx.interrupt(ctx.skip(), ctx.prefix(b, ctx.stop()));
  bool saw_tick = false;
  for (const Transition& t : ctx.transitions(p)) {
    if (t.event == TICK) {
      saw_tick = true;
      EXPECT_EQ(t.target, ctx.omega());
    }
  }
  EXPECT_TRUE(saw_tick);
}

TEST_F(ContextTest, SlidingOffersLeftAndSlidesRight) {
  const EventId a = ctx.event(ctx.channel("sa"));
  const EventId b = ctx.event(ctx.channel("sb"));
  const ProcessRef q = ctx.prefix(b, ctx.stop());
  const ProcessRef p = ctx.sliding(ctx.prefix(a, ctx.skip()), q);
  bool saw_a = false;
  bool saw_slide = false;
  for (const Transition& t : ctx.transitions(p)) {
    if (t.event == a) {
      saw_a = true;
      EXPECT_EQ(t.target, ctx.skip());  // a resolves towards P
    }
    if (t.event == TAU) {
      saw_slide = true;
      EXPECT_EQ(t.target, q);  // the silent timeout
    }
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_slide);
}

}  // namespace
}  // namespace ecucsp
