#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cspm/eval.hpp"
#include "cspm/parser.hpp"

namespace ecucsp::cspm {
namespace {

class CspmEvalTest : public ::testing::Test {
 protected:
  Context ctx;
  Evaluator ev{ctx};
};

TEST_F(CspmEvalTest, ArithmeticAndBooleans) {
  ev.load_source("");
  EXPECT_EQ(ev.evaluate_expression("1 + 2 * 3").integer, 7);
  EXPECT_EQ(ev.evaluate_expression("(10 - 4) / 3").integer, 2);
  EXPECT_EQ(ev.evaluate_expression("-7 % 3").integer, 2);  // mathematical mod
  EXPECT_TRUE(ev.evaluate_expression("1 < 2 and not (3 == 4)").boolean);
  EXPECT_TRUE(ev.evaluate_expression("false or 2 >= 2").boolean);
}

TEST_F(CspmEvalTest, SetsAndBuiltins) {
  ev.load_source("");
  EXPECT_EQ(ev.evaluate_expression("card({0..4})").integer, 5);
  EXPECT_EQ(ev.evaluate_expression("card(union({1,2},{2,3}))").integer, 3);
  EXPECT_EQ(ev.evaluate_expression("card(inter({1,2},{2,3}))").integer, 1);
  EXPECT_EQ(ev.evaluate_expression("card(diff({1,2},{2,3}))").integer, 1);
  EXPECT_TRUE(ev.evaluate_expression("member(2, {1,2,3})").boolean);
  EXPECT_FALSE(ev.evaluate_expression("member(9, {1,2,3})").boolean);
  EXPECT_TRUE(ev.evaluate_expression("empty({})").boolean);
}

TEST_F(CspmEvalTest, IfAndLet) {
  ev.load_source("");
  EXPECT_EQ(ev.evaluate_expression("if 1 < 2 then 10 else 20").integer, 10);
  EXPECT_EQ(ev.evaluate_expression("let x = 4 within x * x").integer, 16);
  EXPECT_EQ(
      ev.evaluate_expression("let sq(x) = x * x within sq(3) + sq(4)").integer,
      25);
}

TEST_F(CspmEvalTest, DatatypeMembersAreBound) {
  ev.load_source("datatype Msg = reqSw | rptSw | reqApp | rptUpd");
  EXPECT_EQ(ev.evaluate_expression("card(Msg)").integer, 4);
  EXPECT_TRUE(ev.evaluate_expression("member(reqSw, Msg)").boolean);
  EXPECT_TRUE(ev.evaluate_expression("reqSw == reqSw").boolean);
  EXPECT_FALSE(ev.evaluate_expression("reqSw == rptSw").boolean);
}

TEST_F(CspmEvalTest, NametypeBindsASet) {
  ev.load_source("nametype Small = {0..3}");
  EXPECT_EQ(ev.evaluate_expression("card(Small)").integer, 4);
}

TEST_F(CspmEvalTest, ChannelDeclarationCreatesCoreChannel) {
  ev.load_source(
      "datatype Msg = reqSw | rptSw\n"
      "channel send, rec : Msg\n");
  EXPECT_TRUE(ctx.find_channel("send").has_value());
  EXPECT_TRUE(ctx.find_channel("rec").has_value());
  EXPECT_EQ(ctx.events_of(*ctx.find_channel("send")).size(), 2u);
}

TEST_F(CspmEvalTest, SimplePrefixProcess) {
  ev.load_source(
      "channel a, b\n"
      "P = a -> b -> STOP\n");
  const ProcessRef p = ev.process("P");
  const auto& ts = ctx.transitions(p);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ctx.event_name(ts[0].event), "a");
}

TEST_F(CspmEvalTest, RecursiveProcessTiesTheKnot) {
  ev.load_source(
      "channel a\n"
      "P = a -> P\n");
  const ProcessRef p = ev.process("P");
  const auto& ts = ctx.transitions(p);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ctx.canonical(ts[0].target), ctx.canonical(p));
}

TEST_F(CspmEvalTest, MutualRecursion) {
  ev.load_source(
      "channel a, b\n"
      "P = a -> Q\n"
      "Q = b -> P\n");
  const CompactLts lts = compile_lts(ctx, ev.process("P"));
  EXPECT_EQ(lts.state_count(), 2u);
}

TEST_F(CspmEvalTest, ParameterisedRecursion) {
  ev.load_source(
      "channel tickc\n"
      "CNT(n) = n > 0 & tickc -> CNT(n - 1)\n"
      "TOP = CNT(3)\n");
  const auto traces = enumerate_traces(ctx, ev.process("TOP"), 10);
  // Longest trace has exactly three ticks.
  std::size_t longest = 0;
  for (const auto& t : traces) longest = std::max(longest, t.size());
  EXPECT_EQ(longest, 3u);
}

TEST_F(CspmEvalTest, InputExpandsToExternalChoice) {
  ev.load_source(
      "datatype Msg = reqSw | rptSw\n"
      "channel c : Msg\n"
      "P = c?x -> STOP\n");
  const auto& ts = ctx.transitions(ev.process("P"));
  EXPECT_EQ(ts.size(), 2u);
}

TEST_F(CspmEvalTest, InputRestrictionNarrowsTheChoice) {
  ev.load_source(
      "channel c : {0..9}\n"
      "P = c?x:{0..2} -> STOP\n");
  EXPECT_EQ(ctx.transitions(ev.process("P")).size(), 3u);
}

TEST_F(CspmEvalTest, InputBinderUsableInContinuation) {
  ev.load_source(
      "channel c : {0..2}\n"
      "channel d : {0..4}\n"
      "P = c?x -> d!x + 1 -> STOP\n");
  const ProcessRef p = ev.process("P");
  // Take the branch c.2 and expect d.3 next.
  for (const Transition& t : ctx.transitions(p)) {
    if (ctx.event_name(t.event) == "c.2") {
      const auto& next = ctx.transitions(t.target);
      ASSERT_EQ(next.size(), 1u);
      EXPECT_EQ(ctx.event_name(next[0].event), "d.3");
    }
  }
}

TEST_F(CspmEvalTest, GuardBlocksWhenFalse) {
  ev.load_source(
      "channel a\n"
      "P(n) = n > 0 & a -> STOP\n"
      "GOOD = P(1)\n"
      "BAD = P(0)\n");
  EXPECT_EQ(ctx.transitions(ev.process("GOOD")).size(), 1u);
  EXPECT_TRUE(ctx.transitions(ev.process("BAD")).empty());
}

TEST_F(CspmEvalTest, SynchronisedParallel) {
  ev.load_source(
      "channel a, b\n"
      "P = a -> b -> STOP\n"
      "Q = a -> STOP\n"
      "SYS = P [| {| a |} |] Q\n");
  const auto& ts = ctx.transitions(ev.process("SYS"));
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ctx.event_name(ts[0].event), "a");
}

TEST_F(CspmEvalTest, AlphabetisedParallelRestrictsSides) {
  ev.load_source(
      "channel a, b, c\n"
      "P = a -> c -> STOP\n"
      "Q = b -> c -> STOP\n"
      "SYS = P [ {|a, c|} || {|b, c|} ] Q\n");
  // a and b interleave; c synchronises.
  const ProcessRef sys = ev.process("SYS");
  const auto traces = enumerate_traces(ctx, sys, 4);
  const EventId a = ctx.event("a");
  const EventId b = ctx.event("b");
  const EventId c = ctx.event("c");
  const auto has = [&](std::vector<EventId> t) {
    return std::find(traces.begin(), traces.end(), t) != traces.end();
  };
  EXPECT_TRUE(has({a, b, c}));
  EXPECT_TRUE(has({b, a, c}));
  EXPECT_FALSE(has({a, c}));  // c needs both sides ready
}

TEST_F(CspmEvalTest, HidingRemovesEvents) {
  ev.load_source(
      "channel a, b\n"
      "P = a -> b -> STOP\n"
      "H = P \\ {| a |}\n");
  const auto traces = enumerate_traces(ctx, ev.process("H"), 4);
  for (const auto& t : traces) {
    for (EventId e : t) EXPECT_NE(ctx.event_name(e), "a");
  }
}

TEST_F(CspmEvalTest, RenamingChannelWide) {
  ev.load_source(
      "datatype Msg = reqSw | rptSw\n"
      "channel c, d : Msg\n"
      "P = c?x -> STOP\n"
      "R = P [[ c <- d ]]\n");
  const auto& ts = ctx.transitions(ev.process("R"));
  ASSERT_EQ(ts.size(), 2u);
  for (const Transition& t : ts) {
    EXPECT_EQ(ctx.event_name(t.event).substr(0, 2), "d.");
  }
}

TEST_F(CspmEvalTest, ReplicatedExternalChoice) {
  ev.load_source(
      "channel c : {0..3}\n"
      "P = [] x:{0..3} @ c!x -> STOP\n");
  EXPECT_EQ(ctx.transitions(ev.process("P")).size(), 4u);
}

TEST_F(CspmEvalTest, ReplicatedInterleave) {
  ev.load_source(
      "channel c : {0..2}\n"
      "P = ||| x:{0..2} @ c!x -> SKIP\n");
  EXPECT_EQ(ctx.transitions(ev.process("P")).size(), 3u);
}

TEST_F(CspmEvalTest, SequentialCompositionAndSkip) {
  ev.load_source(
      "channel a, b\n"
      "P = (a -> SKIP) ; (b -> SKIP)\n");
  const auto traces = enumerate_traces(ctx, ev.process("P"), 4);
  const EventId a = ctx.event("a");
  const EventId b = ctx.event("b");
  EXPECT_TRUE(std::find(traces.begin(), traces.end(),
                        std::vector<EventId>{a, b, TICK}) != traces.end());
}

TEST_F(CspmEvalTest, PaperSP02ScriptEndToEnd) {
  // The full Section V-B example: SP02 refined by VMG || ECU.
  ev.load_source(
      "datatype Msg = reqSw | rptSw\n"
      "channel send, rec : Msg\n"
      "SP02 = send.reqSw -> rec.rptSw -> SP02\n"
      "VMG = send.reqSw -> rec.rptSw -> VMG\n"
      "ECU = send.reqSw -> rec.rptSw -> ECU\n"
      "SYSTEM = VMG [| {| send, rec |} |] ECU\n"
      "assert SP02 [T= SYSTEM\n"
      "assert SYSTEM :[deadlock free [F]]\n"
      "assert SYSTEM :[divergence free]\n"
      "assert SYSTEM :[deterministic]\n");
  const auto results = ev.check_assertions();
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.result.passed) << r.description;
  }
}

TEST_F(CspmEvalTest, FailedAssertionProducesCounterexample) {
  ev.load_source(
      "channel a, b\n"
      "SPEC = a -> SPEC\n"
      "IMPL = a -> b -> IMPL\n"
      "assert SPEC [T= IMPL\n");
  const auto results = ev.check_assertions();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].result.passed);
  ASSERT_TRUE(results[0].result.counterexample.has_value());
  EXPECT_EQ(ctx.event_name(results[0].result.counterexample->event), "b");
}

TEST_F(CspmEvalTest, EmptyChannelTypeHasNoEvents) {
  // {|c|} over channel c : {} is the empty event set, so synchronising on
  // it constrains nothing.
  ev.load_source(
      "channel c : {}\n"
      "assert STOP [T= STOP [| {|c|} |] STOP\n");
  EXPECT_TRUE(ev.evaluate_expression("{|c|}").events.empty());
  const auto results = ev.check_assertions();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].result.passed) << results[0].description;
}

TEST_F(CspmEvalTest, TypeErrorsAreReported) {
  ev.load_source("channel a\nP = a -> STOP\n");
  EXPECT_THROW(ev.evaluate_expression("P + 1"), EvalError);
  EXPECT_THROW(ev.evaluate_expression("1 -> STOP"), EvalError);
  EXPECT_THROW(ev.evaluate_expression("card(5)"), EvalError);
  EXPECT_THROW(ev.evaluate_expression("nosuchname"), EvalError);
}

TEST_F(CspmEvalTest, EventOutsideDomainFails) {
  ev.load_source("channel c : {0..2}\nP = c!7 -> STOP\n");
  EXPECT_THROW(ev.process("P"), ModelError);
}

TEST_F(CspmEvalTest, MultipleScriptsShareAContext) {
  ev.load_source(
      "datatype Msg = reqSw | rptSw\n"
      "channel send : Msg\n"
      "IMPL = send.reqSw -> IMPL\n");
  ev.load_source("SPEC = send?x -> SPEC\nassert SPEC [T= IMPL\n");
  const auto results = ev.check_assertions();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].result.passed);
}

TEST_F(CspmEvalTest, TupleValues) {
  ev.load_source("");
  const CVal v = ev.evaluate_expression("(1, 2)");
  ASSERT_EQ(v.kind, CVal::Kind::Data);
  EXPECT_TRUE(v.data.is_tuple());
}


TEST_F(CspmEvalTest, InterruptOperator) {
  ev.load_source(
      "channel work, alarm\n"
      "P = (work -> work -> STOP) /\\ (alarm -> STOP)\n");
  const auto traces = enumerate_traces(ctx, ev.process("P"), 3);
  const EventId w = ctx.event("work");
  const EventId al = ctx.event("alarm");
  const auto has = [&](std::vector<EventId> t) {
    return std::find(traces.begin(), traces.end(), t) != traces.end();
  };
  EXPECT_TRUE(has({w, al}));       // interrupted mid-way
  EXPECT_TRUE(has({w, w}));        // ran to completion
  EXPECT_FALSE(has({al, w}));      // after the alarm, work is gone
}

TEST_F(CspmEvalTest, SlidingChoiceOperator) {
  ev.load_source(
      "channel fast, slow\n"
      "P = (fast -> STOP) [> (slow -> STOP)\n");
  const auto traces = enumerate_traces(ctx, ev.process("P"), 2);
  const EventId f = ctx.event("fast");
  const EventId sl = ctx.event("slow");
  const auto has = [&](std::vector<EventId> t) {
    return std::find(traces.begin(), traces.end(), t) != traces.end();
  };
  EXPECT_TRUE(has({f}));
  EXPECT_TRUE(has({sl}));
  EXPECT_FALSE(has({f, sl}));
}


TEST_F(CspmEvalTest, SetComprehension) {
  ev.load_source("");
  EXPECT_EQ(ev.evaluate_expression("card({x * 2 | x <- {0..4}})").integer, 5);
  EXPECT_EQ(
      ev.evaluate_expression("card({x | x <- {0..9}, x % 2 == 0})").integer,
      5);
  EXPECT_TRUE(ev.evaluate_expression(
                    "member(12, {x * y | x <- {2,3}, y <- {4,5}, x < y})")
                  .boolean);
  // Empty result and empty generator domain.
  EXPECT_TRUE(
      ev.evaluate_expression("empty({x | x <- {0..5}, x > 9})").boolean);
}

TEST_F(CspmEvalTest, SetComprehensionOverDatatype) {
  ev.load_source("datatype Msg = reqSw | rptSw | reqApp | rptUpd");
  EXPECT_EQ(
      ev.evaluate_expression("card({m | m <- Msg, m != reqSw})").integer, 3);
}

TEST_F(CspmEvalTest, SetComprehensionInProcessContext) {
  ev.load_source(
      "channel c : {0..9}\n"
      "P = [] x:{y | y <- {0..9}, y % 3 == 0} @ c!x -> STOP\n");
  EXPECT_EQ(ctx.transitions(ev.process("P")).size(), 4u);  // 0,3,6,9
}

// The evaluator's operand order is output: event ids are numbered on first
// use, and the canonical counterexample is the smallest by event id. These
// cases pin the order through the ids a fresh context hands out: each binary
// operator evaluates its event set first, then its right operand, then its
// left one.
std::string first_use_order(Context& ctx, Evaluator& ev,
                            const std::string& body) {
  ev.load_source("channel c : {1..2}\nchannel h\nP = " + body + "\n");
  ev.process("P");
  std::string out;
  for (EventId e = TICK + 1; e < ctx.event_count(); ++e) {
    if (!out.empty()) out += ' ';
    out += ctx.event_name(e);
  }
  return out;
}

TEST_F(CspmEvalTest, SequenceEvaluatesRightOperandFirst) {
  EXPECT_EQ(first_use_order(ctx, ev, "(c.1 -> SKIP) ; (c.2 -> STOP)"),
            "c.2 c.1");
}

TEST_F(CspmEvalTest, InterleaveEvaluatesRightOperandFirst) {
  EXPECT_EQ(first_use_order(ctx, ev, "(c.1 -> STOP) ||| (c.2 -> STOP)"),
            "c.2 c.1");
}

TEST_F(CspmEvalTest, SyncParEvaluatesSetThenRightOperand) {
  EXPECT_EQ(first_use_order(ctx, ev, "(c.1 -> STOP) [| {h} |] (c.2 -> STOP)"),
            "h c.2 c.1");
}

TEST_F(CspmEvalTest, InterruptEvaluatesRightOperandFirst) {
  EXPECT_EQ(first_use_order(ctx, ev, "(c.1 -> STOP) /\\ (c.2 -> STOP)"),
            "c.2 c.1");
}

TEST_F(CspmEvalTest, SlidingChoiceEvaluatesRightOperandFirst) {
  EXPECT_EQ(first_use_order(ctx, ev, "(c.1 -> STOP) [> (c.2 -> STOP)"),
            "c.2 c.1");
}

TEST_F(CspmEvalTest, HideEvaluatesSetBeforeProcess) {
  EXPECT_EQ(first_use_order(ctx, ev, "(c.1 -> STOP) \\ {h}"), "h c.1");
}

TEST_F(CspmEvalTest, UnboundedParameterRecursionIsAnErrorNotACrash) {
  // Each distinct instantiation unfolds eagerly (only an already-in-progress
  // key is tied lazily), so COUNT(n) = a -> COUNT(n+1) would chase n to
  // infinity and overflow the C++ stack. The evaluator must refuse with a
  // diagnosable error instead; the verify scheduler maps it to TaskStatus::
  // Error and keeps the worker alive.
  ev.load_source(
      "channel a\n"
      "COUNT(n) = a -> COUNT(n+1)\n");
  EXPECT_THROW(ev.evaluate_expression("COUNT(0)"), EvalError);
}

}  // namespace
}  // namespace ecucsp::cspm
