// Property tests for the conformance trace oracle.
//
// The oracle is correct iff it decides exactly the trace set of the process
// it was compiled from. Two differential properties pin that down against
// the independent engines in refine/check.hpp:
//
//   * soundness: every trace enumerate_traces() lists for a random term is
//     accepted by the term's own oracle;
//   * completeness-of-rejection: a one-event mutation of such a trace is
//     accepted iff is_trace_of() says the mutant is genuinely still a trace
//     (mutations can land back inside the language), and on rejection the
//     oracle's divergence index equals is_trace_of's accepted prefix.
//
// Random terms come from the same seeded generator family as
// refine_props_test / refine_diff_test, so failures reproduce by seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>

#include "conform/oracle.hpp"
#include "refine/check.hpp"

namespace ecucsp {
namespace {

using conform::OracleVerdict;
using conform::TraceOracle;
using conform::compile_oracle;

struct Gen {
  Context& ctx;
  std::mt19937 rng;
  std::vector<EventId> alphabet;

  Gen(Context& c, unsigned seed) : ctx(c), rng(seed) {
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

  ProcessRef process(int depth) {
    switch (std::uniform_int_distribution<int>(0, depth <= 0 ? 1 : 7)(rng)) {
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
      default:
        return ctx.sliding(process(depth - 1), process(depth - 1));
    }
  }
};

std::vector<std::string> rendered(const Context& ctx,
                                  const std::vector<EventId>& trace) {
  std::vector<std::string> out;
  out.reserve(trace.size());
  for (EventId e : trace) out.push_back(ctx.event_name(e));
  return out;
}

class OracleProps : public ::testing::TestWithParam<unsigned> {};

TEST_P(OracleProps, AcceptsEveryTraceOfItsOwnTerm) {
  Context ctx;
  Gen gen(ctx, GetParam());
  const ProcessRef p = gen.process(3);
  const TraceOracle oracle = compile_oracle(
      ctx, "self", p, EventSet(gen.alphabet), /*strict=*/true);
  for (const auto& t : enumerate_traces(ctx, p, 5)) {
    if (std::find(t.begin(), t.end(), TICK) != t.end()) continue;
    const OracleVerdict v = oracle.judge(rendered(ctx, t));
    EXPECT_TRUE(v.accepted)
        << "seed=" << GetParam() << " trace=" << format_trace(ctx, t)
        << " rejected at #" << v.divergence_index << ": " << v.reason;
  }
}

TEST_P(OracleProps, MutationVerdictMatchesIsTraceOf) {
  Context ctx;
  Gen gen(ctx, GetParam());
  const ProcessRef p = gen.process(3);
  const TraceOracle oracle = compile_oracle(
      ctx, "self", p, EventSet(gen.alphabet), /*strict=*/true);
  const auto traces = enumerate_traces(ctx, p, 4);
  std::size_t done = 0;
  for (const auto& t : traces) {
    if (t.empty() ||
        std::find(t.begin(), t.end(), TICK) != t.end()) {
      continue;
    }
    if (++done > 24) break;
    std::vector<EventId> mutant = t;
    const std::size_t pos = std::uniform_int_distribution<std::size_t>(
        0, mutant.size() - 1)(gen.rng);
    mutant[pos] = gen.event();

    const TraceMembership ref = is_trace_of(ctx, p, mutant);
    const OracleVerdict v = oracle.judge(rendered(ctx, mutant));
    EXPECT_EQ(ref.member, v.accepted)
        << "seed=" << GetParam() << " mutant=" << format_trace(ctx, mutant);
    if (!ref.member && !v.accepted) {
      EXPECT_EQ(v.divergence_index, ref.accepted_prefix)
          << "seed=" << GetParam() << " mutant=" << format_trace(ctx, mutant);
      EXPECT_EQ(v.event, ctx.event_name(mutant[v.divergence_index]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleProps, ::testing::Range(0u, 16u));

// --- directed unit tests ----------------------------------------------------

TraceOracle toy_oracle() {
  conform::DfaBuilder dfa({"x", "y"});
  dfa.edge("x", 1);
  dfa.end_state();
  dfa.edge("y", 0);
  dfa.end_state();
  return {"toy", std::move(dfa).finish(0), {}, false};
}

TEST(Dfa, BuilderSortsTheTableAndEachRow) {
  // Names arrive unsorted and the row's edges in reverse: the table is
  // sorted, names that label no edge stay, and the row is in name order.
  conform::DfaBuilder b({"send.b", "idle", "rec.a", "idle"});
  b.edge("send.b", 1);
  b.edge("rec.a", 0);
  b.end_state();
  b.end_state();
  const conform::Dfa dfa = std::move(b).finish(0);
  EXPECT_EQ(dfa.names, (std::vector<std::string>{"idle", "rec.a", "send.b"}));
  EXPECT_EQ(dfa.state_count(), 2u);
  EXPECT_EQ(dfa.edge_count(), 2u);
  EXPECT_EQ(dfa.offered(0), (std::vector<std::string>{"rec.a", "send.b"}));
  EXPECT_TRUE(dfa.offered(1).empty());
  EXPECT_EQ(dfa.step(0, dfa.symbol("send.b")), 1u);
  EXPECT_EQ(dfa.step(0, dfa.symbol("idle")), conform::Dfa::NONE);
  EXPECT_EQ(dfa.symbol("unknown"), conform::Dfa::NONE);
  EXPECT_EQ(dfa.step(0, conform::Dfa::NONE), conform::Dfa::NONE);
}

TEST(Dfa, BuilderRejectsMalformedAutomata) {
  const auto build = [](auto&& fill, std::uint32_t root) {
    conform::DfaBuilder b({"a", "b"});
    fill(b);
    return std::move(b).finish(root);
  };
  // Two edges under one name.
  EXPECT_THROW(build(
                   [](conform::DfaBuilder& b) {
                     b.edge("a", 0);
                     b.edge("a", 0);
                     b.end_state();
                   },
                   0),
               std::invalid_argument);
  // A name outside the table.
  EXPECT_THROW(build([](conform::DfaBuilder& b) { b.edge("c", 0); }, 0),
               std::invalid_argument);
  // A target, or the root, that names no state.
  EXPECT_THROW(build(
                   [](conform::DfaBuilder& b) {
                     b.edge("a", 1);
                     b.end_state();
                   },
                   0),
               std::invalid_argument);
  EXPECT_THROW(build([](conform::DfaBuilder& b) { b.end_state(); }, 1),
               std::invalid_argument);
}

TEST(Oracle, EmptyTraceAccepted) {
  EXPECT_TRUE(toy_oracle().judge({}).accepted);
}

TEST(Oracle, IgnoredEventsAreInvisible) {
  TraceOracle o = toy_oracle();
  o.strict = true;
  o.ignored = {"noise"};
  EXPECT_TRUE(o.judge({"x", "noise", "y", "noise"}).accepted);
}

TEST(Oracle, LenientOracleSkipsForeignEvents) {
  const OracleVerdict v = toy_oracle().judge({"x", "foreign", "y"});
  EXPECT_TRUE(v.accepted);
}

TEST(Oracle, StrictOracleRejectsForeignEvents) {
  TraceOracle o = toy_oracle();
  o.strict = true;
  const OracleVerdict v = o.judge({"x", "foreign", "y"});
  ASSERT_FALSE(v.accepted);
  EXPECT_EQ(v.divergence_index, 1u);
  EXPECT_EQ(v.event, "foreign");
  EXPECT_EQ(v.reason, "event outside the oracle alphabet");
}

TEST(Oracle, RejectionReportsWhatTheSpecOffered) {
  const OracleVerdict v = toy_oracle().judge({"x", "x"});
  ASSERT_FALSE(v.accepted);
  EXPECT_EQ(v.divergence_index, 1u);
  EXPECT_EQ(v.event, "x");
  EXPECT_EQ(v.offered, std::vector<std::string>{"y"});
  EXPECT_EQ(v.reason, "spec offers no such event here");
}

TEST(Oracle, AlphabetEventTheSpecNeverAllowsRejects) {
  // "y" is in the alphabet but state 0 has no y-edge: an alphabet event
  // must match an edge, never be skipped.
  const OracleVerdict v = toy_oracle().judge({"y"});
  ASSERT_FALSE(v.accepted);
  EXPECT_EQ(v.divergence_index, 0u);
}

}  // namespace
}  // namespace ecucsp
