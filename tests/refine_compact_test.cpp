// Property tests for the arena-backed CompactLts core (refine/compact.hpp).
//
// The compact form is the one machine every check sweeps, so compile_lts
// must fill it losslessly and canonically:
//   * each row is the operational semantics of its state's term, in
//     Context::transitions order, with states numbered in BFS discovery
//     order (the order the checks' byte-compatibility rests on) — checked
//     against an independent reference exploration;
//   * the interned alphabet is a bijection onto the set of events the
//     machine actually uses, and local ids depend only on that *set* —
//     never on the insertion/edge order the rows happened to arrive in
//     (CompactBuilder);
//   * derived flags (post-tick, Omega, deadlock) and divergent_states match
//     their definitions over the terms and edges.
// Plus structural sanity of compress_compact: mode none is the identity on
// the arrays, every reduced machine is well-formed and fully reachable, and
// reachable divergence is preserved (the verdict-level guarantees live in
// refine_compress_diff_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "refine/check.hpp"
#include "refine/compact.hpp"
#include "refine/lts.hpp"
#include "refine/normalize.hpp"

namespace ecucsp {
namespace {

/// Seeded random term generator (same shape as refine_props_test): depth
/// bounded, four-event alphabet, every constructor reachable.
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

using Rows = std::vector<std::vector<std::pair<EventId, StateId>>>;

/// An independent exploration of `root`: a FIFO frontier over canonical
/// terms, numbering each state at first discovery. rows[s] lists the
/// transitions of terms[s] in Context::transitions order.
struct Reference {
  std::vector<ProcessRef> terms;
  Rows rows;
};

Reference explore(Context& ctx, ProcessRef root) {
  Reference ref;
  std::unordered_map<ProcessRef, StateId> ids;
  std::deque<ProcessRef> frontier;
  const auto id_of = [&](ProcessRef term) {
    term = ctx.canonical(term);
    const auto [it, fresh] =
        ids.emplace(term, static_cast<StateId>(ref.terms.size()));
    if (fresh) {
      ref.terms.push_back(term);
      frontier.push_back(term);
    }
    return it->second;
  };
  for (id_of(root); !frontier.empty(); frontier.pop_front()) {
    auto& row = ref.rows.emplace_back();
    for (const Transition& t : ctx.transitions(frontier.front())) {
      row.emplace_back(t.event, id_of(t.target));
    }
  }
  return ref;
}

/// A hand-built machine from per-state rows of global event ids.
CompactLts from_rows(const Rows& rows) {
  CompactBuilder b;
  for (const auto& row : rows) {
    for (const auto& [e, t] : row) b.edge(e, t);
    b.end_state();
  }
  return std::move(b).finish(0);
}

class CompactRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(CompactRoundTrip, ConversionIsLosslessAndOrderPreserving) {
  Context ctx;
  TermGen gen(ctx, GetParam());
  for (int i = 0; i < 4; ++i) {
    const ProcessRef p = gen.process(3);
    const CompactLts compact = compile_lts(ctx, p);
    const Reference ref = explore(ctx, p);

    // State bijection, root first.
    ASSERT_EQ(compact.root, 0u);
    ASSERT_EQ(compact.state_count(), ref.rows.size());

    // Per-row: the term's transitions in order, with the same targets,
    // after mapping local ids back through the alphabet table.
    for (StateId s = 0; s < compact.state_count(); ++s) {
      ASSERT_EQ(compact.degree(s), ref.rows[s].size()) << "state " << s;
      for (std::size_t k = 0; k < ref.rows[s].size(); ++k) {
        const std::uint32_t at = compact.begin(s) + static_cast<std::uint32_t>(k);
        EXPECT_EQ(compact.global_event(compact.events[at]), ref.rows[s][k].first)
            << "state " << s << " edge " << k;
        EXPECT_EQ(compact.targets[at], ref.rows[s][k].second)
            << "state " << s << " edge " << k;
      }
    }
  }
}

TEST_P(CompactRoundTrip, AlphabetIsABijectionOnTheUsedEventSet) {
  Context ctx;
  TermGen gen(ctx, GetParam() + 100);
  for (int i = 0; i < 4; ++i) {
    const ProcessRef p = gen.process(3);
    const CompactLts compact = compile_lts(ctx, p);

    std::vector<EventId> used;
    for (const auto& row : explore(ctx, p).rows) {
      for (const auto& [e, t] : row) used.push_back(e);
    }
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());

    // The table IS the sorted used set (bijection in both directions)...
    ASSERT_EQ(compact.alphabet, used);
    // ...and local_event/global_event invert each other over it.
    for (LocalEvent le = 0; le < compact.alphabet.size(); ++le) {
      EXPECT_EQ(compact.local_event(compact.global_event(le)), le);
    }
    for (const EventId e : used) {
      EXPECT_EQ(compact.global_event(compact.local_event(e)), e);
    }
    // Events outside the machine's alphabet have no interned id.
    EXPECT_EQ(compact.local_event(ctx.event(ctx.channel("never_used"))),
              NO_LOCAL_EVENT);
  }
}

TEST(CompactLtsTest, InternedIdsDependOnlyOnTheEventSetNotInsertionOrder) {
  // Two structurally different machines over the same event set, with the
  // events introduced in opposite orders, must produce identical alphabet
  // tables — the interning is a function of the set alone.
  Context ctx;
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  const EventId c = ctx.event(ctx.channel("c"));

  // root --a--> 1 --b--> 2 --c--> 2
  const CompactLts cf = from_rows({{{a, 1}}, {{b, 2}}, {{c, 2}}});
  // root --c--> 1 --b--> 2 --a--> 2, edges discovered c,b,a
  const CompactLts cb = from_rows({{{c, 1}}, {{b, 2}}, {{a, 2}}});
  EXPECT_EQ(cf.alphabet, cb.alphabet);
  for (const EventId e : {a, b, c}) {
    EXPECT_EQ(cf.local_event(e), cb.local_event(e)) << "event " << e;
  }

  // Permuting the edges *within* one row does not change the mapping either.
  const CompactLts shuffled = from_rows({{{c, 1}, {a, 1}, {b, 1}}, {}});
  const CompactLts ordered = from_rows({{{a, 1}, {b, 1}, {c, 1}}, {}});
  EXPECT_EQ(shuffled.alphabet, ordered.alphabet);
  EXPECT_EQ(shuffled.local_event(b), ordered.local_event(b));
}

TEST(CompactLtsTest, FlagsMatchTheHistoricalDefinitions) {
  Context ctx;
  const EventId a = ctx.event(ctx.channel("a"));
  // SKIP ; a -> STOP: exercises tick, post-tick and a genuine deadlock.
  const ProcessRef p = ctx.seq(ctx.skip(), ctx.prefix(a, ctx.stop()));
  const CompactLts compact = compile_lts(ctx, p);
  const Reference ref = explore(ctx, p);
  ASSERT_EQ(compact.state_count(), ref.rows.size());

  std::vector<bool> post_tick(ref.rows.size(), false);
  for (const auto& row : ref.rows) {
    for (const auto& [e, t] : row) {
      if (e == TICK) post_tick[t] = true;
    }
  }
  bool saw_deadlock = false;
  for (StateId s = 0; s < compact.state_count(); ++s) {
    EXPECT_EQ(compact.is_post_tick(s), post_tick[s]) << "state " << s;
    const bool omega = ref.terms[s]->op() == Op::Omega;
    EXPECT_EQ(compact.is_omega(s), omega) << "state " << s;
    EXPECT_EQ(compact.is_deadlock(s),
              ref.rows[s].empty() && !post_tick[s] && !omega)
        << "state " << s;
    saw_deadlock = saw_deadlock || compact.is_deadlock(s);
  }
  EXPECT_TRUE(saw_deadlock) << "a -> STOP must end in a real deadlock state";
}

TEST(CompactLtsTest, CompiledStructuresOutliveTheirContext) {
  // The check_refinement_compiled contract: compiled CompactLts/NormLts are
  // plain data, usable after the owning Context dies. The terms are gone at
  // that point, so the flags must come from the Omega record captured at
  // compile time — never from the terms. (Regression for a use-after-free
  // TSan caught in the retired conversion into the compact form; the
  // sanitizer legs are what give this test its teeth.)
  std::optional<CompactLts> impl;
  std::optional<NormLts> spec;
  {
    Context ctx;
    const EventId a = ctx.event(ctx.channel("a"));
    // a -> SKIP: compiles to a genuine Omega state.
    const ProcessRef p = ctx.prefix(a, ctx.skip());
    impl = compile_lts(ctx, p);
    spec = normalize(compile_lts(ctx, p), /*with_divergence=*/false);
  }  // Context destroyed; every compile-time term is now dangling.

  const CompactLts& compact = *impl;
  bool saw_omega = false;
  for (StateId s = 0; s < compact.state_count(); ++s) {
    saw_omega = saw_omega || compact.is_omega(s);
  }
  EXPECT_TRUE(saw_omega) << "the compile-time omega record must survive";

  for (const Compression mode : {Compression::None, Compression::Full}) {
    const CheckResult r =
        check_refinement_compiled(*spec, compact, Model::Traces, nullptr, mode);
    EXPECT_TRUE(r.passed) << to_string(mode);
  }
}

TEST(CompactLtsTest, DivergentStatesMatchesTauCycleReachability) {
  Context ctx;
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  // b -> (a -> T) \ {a}: the root is not divergent, the hidden loop is.
  ctx.define("T", [a](Context& cx, std::span<const Value>) {
    return cx.prefix(a, cx.var("T"));
  });
  const ProcessRef p = ctx.prefix(b, ctx.hide(ctx.var("T"), EventSet{a}));
  const CompactLts compact = compile_lts(ctx, p);
  const std::vector<bool> div = compact.divergent_states();

  ASSERT_EQ(div.size(), compact.state_count());
  EXPECT_FALSE(div[compact.root]) << "nothing diverges before the b";
  EXPECT_TRUE(std::any_of(div.begin(), div.end(), [](bool d) { return d; }))
      << "the hidden a-loop must be flagged divergent";
  // Every state that can take a tau into a divergent state is divergent too.
  for (StateId s = 0; s < compact.state_count(); ++s) {
    for (std::uint32_t k = compact.begin(s); k < compact.end(s); ++k) {
      if (compact.events[k] == compact.tau && div[compact.targets[k]]) {
        EXPECT_TRUE(div[s]) << "tau-predecessor " << s << " must inherit";
      }
    }
  }
}

class CompressStructure : public ::testing::TestWithParam<unsigned> {};

TEST_P(CompressStructure, ModeNoneIsTheIdentityOnTheArrays) {
  Context ctx;
  TermGen gen(ctx, GetParam() + 200);
  const CompactLts compact = compile_lts(ctx, gen.process(3));
  ReductionStats stats;
  const CompactLts same = compress_compact(compact, Compression::None, &stats);
  EXPECT_EQ(same.root, compact.root);
  EXPECT_EQ(same.offsets, compact.offsets);
  EXPECT_EQ(same.events, compact.events);
  EXPECT_EQ(same.targets, compact.targets);
  EXPECT_EQ(same.alphabet, compact.alphabet);
  EXPECT_EQ(same.flags, compact.flags);
  EXPECT_EQ(stats.states_in, stats.states_out);
  EXPECT_EQ(stats.transitions_in, stats.transitions_out);
}

TEST_P(CompressStructure, ReducedMachinesAreWellFormedAndNoLarger) {
  Context ctx;
  TermGen gen(ctx, GetParam() + 300);
  for (int i = 0; i < 3; ++i) {
    const CompactLts compact = compile_lts(ctx, gen.process(3));
    const bool diverges_somewhere = [&] {
      const std::vector<bool> d = compact.divergent_states();
      return std::find(d.begin(), d.end(), true) != d.end();
    }();
    for (const Compression mode :
         {Compression::Bisim, Compression::Diamond, Compression::Full}) {
      ReductionStats stats;
      const CompactLts red = compress_compact(compact, mode, &stats);
      const std::string where = "seed=" + std::to_string(GetParam()) +
                                " term=" + std::to_string(i) +
                                " mode=" + std::string(to_string(mode));
      // Never grows; stats agree with the machines.
      EXPECT_LE(red.state_count(), compact.state_count()) << where;
      EXPECT_EQ(stats.states_in, compact.state_count()) << where;
      EXPECT_EQ(stats.states_out, red.state_count()) << where;
      EXPECT_EQ(red.alphabet, compact.alphabet) << where;

      // Well-formed CSR: root and all targets in range, offsets monotone.
      ASSERT_LT(red.root, red.state_count()) << where;
      ASSERT_EQ(red.offsets.size(), red.state_count() + 1) << where;
      for (StateId s = 0; s < red.state_count(); ++s) {
        ASSERT_LE(red.begin(s), red.end(s)) << where;
        for (std::uint32_t k = red.begin(s); k < red.end(s); ++k) {
          ASSERT_LT(red.targets[k], red.state_count()) << where;
          ASSERT_LT(red.events[k], red.alphabet.size()) << where;
        }
      }

      // Everything is reachable from the root (finalize restricts).
      std::vector<bool> seen(red.state_count(), false);
      std::vector<StateId> work{red.root};
      seen[red.root] = true;
      while (!work.empty()) {
        const StateId s = work.back();
        work.pop_back();
        for (std::uint32_t k = red.begin(s); k < red.end(s); ++k) {
          if (!seen[red.targets[k]]) {
            seen[red.targets[k]] = true;
            work.push_back(red.targets[k]);
          }
        }
      }
      EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool v) { return v; }))
          << where;

      // Reachable divergence is preserved in both directions.
      const std::vector<bool> rd = red.divergent_states();
      EXPECT_EQ(std::find(rd.begin(), rd.end(), true) != rd.end(),
                diverges_somewhere)
          << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactRoundTrip, ::testing::Range(0u, 10u));
INSTANTIATE_TEST_SUITE_P(Seeds, CompressStructure, ::testing::Range(0u, 10u));

}  // namespace
}  // namespace ecucsp
