#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rng.hpp"
#include "dolev_yao_reference.hpp"
#include "refine/lts.hpp"
#include "security/attack_tree.hpp"
#include "security/intruder.hpp"
#include "security/mac.hpp"
#include "security/nspk.hpp"
#include "security/properties.hpp"
#include "security/secoc.hpp"
#include "security/terms.hpp"
#include "store/term_digest.hpp"

namespace ecucsp::security {
namespace {

// --- toy MAC ------------------------------------------------------------------

TEST(Mac, DeterministicAndKeyDependent) {
  const std::vector<std::uint8_t> payload{1, 2, 3, 4};
  const MacTag t1 = compute_mac(0xDEADBEEF, payload);
  EXPECT_EQ(t1, compute_mac(0xDEADBEEF, payload));
  EXPECT_NE(t1, compute_mac(0xDEADBEF0, payload));
}

TEST(Mac, PayloadSensitivity) {
  const std::vector<std::uint8_t> p1{1, 2, 3};
  const std::vector<std::uint8_t> p2{1, 2, 4};
  EXPECT_NE(compute_mac(7, p1), compute_mac(7, p2));
}

TEST(Mac, VerifyAcceptsAndRejects) {
  const std::vector<std::uint8_t> payload{9, 8, 7};
  const MacTag tag = compute_mac(42, payload);
  EXPECT_TRUE(verify_mac(42, payload, tag));
  EXPECT_FALSE(verify_mac(42, payload, tag ^ 1));
  EXPECT_FALSE(verify_mac(43, payload, tag));
}

TEST(Mac, EmptyPayload) {
  EXPECT_TRUE(verify_mac(1, {}, compute_mac(1, {})));
}

// --- term algebra ----------------------------------------------------------------

class TermsTest : public ::testing::Test {
 protected:
  Context ctx;
  TermAlgebra T{ctx};
};

TEST_F(TermsTest, ConstructorsAndRecognisers) {
  const Value k = T.atom("k");
  const Value m = T.atom("m");
  EXPECT_TRUE(T.is_pair(T.pair(k, m)));
  EXPECT_TRUE(T.is_senc(T.senc(k, m)));
  EXPECT_TRUE(T.is_aenc(T.aenc(T.pk(k), m)));
  EXPECT_TRUE(T.is_mac(T.mac(k, m)));
  EXPECT_TRUE(T.is_pk(T.pk(k)));
  EXPECT_TRUE(T.is_sk(T.sk(k)));
  EXPECT_FALSE(T.is_pair(T.senc(k, m)));
  EXPECT_FALSE(T.is_senc(k));
  EXPECT_EQ(T.arg(T.pair(k, m), 0), k);
  EXPECT_EQ(T.arg(T.pair(k, m), 1), m);
}

TEST_F(TermsTest, UnpairingIsUnrestricted) {
  const Value x = T.atom("x");
  const Value y = T.atom("y");
  const auto closure = T.close({T.pair(x, y)}, {});
  EXPECT_TRUE(closure.contains(x));
  EXPECT_TRUE(closure.contains(y));
}

TEST_F(TermsTest, SymmetricDecryptionNeedsTheKey) {
  const Value k = T.atom("k");
  const Value m = T.atom("m");
  const Value ct = T.senc(k, m);
  EXPECT_FALSE(T.close({ct}, {}).contains(m));
  EXPECT_TRUE(T.close({ct, k}, {}).contains(m));
}

TEST_F(TermsTest, AsymmetricDecryptionNeedsTheSecretKey) {
  const Value alice = T.atom("alice");
  const Value m = T.atom("m");
  const Value ct = T.aenc(T.pk(alice), m);
  EXPECT_FALSE(T.close({ct, T.pk(alice)}, {}).contains(m));
  EXPECT_TRUE(T.close({ct, T.sk(alice)}, {}).contains(m));
}

TEST_F(TermsTest, MacsAreOneWay) {
  const Value k = T.atom("k");
  const Value m = T.atom("m");
  EXPECT_FALSE(T.close({T.mac(k, m)}, {}).contains(m));
  EXPECT_FALSE(T.close({T.mac(k, m), k}, {}).contains(m));
}

TEST_F(TermsTest, CompositionIsBoundedByUniverse) {
  const Value x = T.atom("x");
  const Value y = T.atom("y");
  const Value p = T.pair(x, y);
  EXPECT_FALSE(T.close({x, y}, {}).contains(p));
  EXPECT_TRUE(T.close({x, y}, {p}).contains(p));
}

TEST_F(TermsTest, ClosureChainsRules) {
  // From senc(k, pair(k2, m)) + k, derive m2 = senc(k2, m) decryption chain.
  const Value k = T.atom("k");
  const Value k2 = T.atom("k2");
  const Value m = T.atom("m");
  const Value outer = T.senc(k, T.pair(k2, T.senc(k2, m)));
  const auto closure = T.close({outer, k}, {});
  EXPECT_TRUE(closure.contains(m));
}

TEST_F(TermsTest, DerivableWrapper) {
  const Value x = T.atom("x");
  const Value y = T.atom("y");
  EXPECT_TRUE(T.derivable({T.pair(x, y)}, {}, x));
  EXPECT_FALSE(T.derivable({x}, {}, y));
}

TEST(TermAlgebra, ClosureMatchesReferenceOnSeededKnowledge) {
  // Seeded knowledge over the NSPK and NSL universes and over random small
  // algebras: the semi-naive closure must derive exactly the set that the
  // naive fixpoint in dolev_yao_reference.hpp derives.
  std::uint64_t rng = core::seed_state(26);
  const auto below = [&](std::size_t n) {
    return static_cast<std::size_t>(core::splitmix64(rng) % n);
  };
  const auto pick = [&](const std::vector<Value>& from) {
    return from[below(from.size())];
  };
  std::size_t cases = 0;
  std::size_t grew = 0;
  const auto same = [&](const TermAlgebra& T, const std::set<Value>& known,
                        const std::vector<Value>& universe) {
    const std::set<Value> got = T.close(known, universe);
    ++cases;
    grew += got.size() > known.size();
    return got == reference::NaiveAlgebra(T).close(known, universe);
  };

  // Protocol universes: a random share of the universe is composable, and
  // the knowledge mixes universe terms, initial knowledge and secret keys.
  for (const bool fix : {false, true}) {
    auto sys = build_nspk(fix);
    const TermAlgebra& T = sys->terms;
    const std::vector<Value>& full = sys->intruder.universe;
    std::vector<Value> pool = full;
    pool.insert(pool.end(), sys->intruder.initial_knowledge.begin(),
                sys->intruder.initial_knowledge.end());
    const std::vector<Value> secrets{T.sk(T.atom("a")), T.sk(T.atom("b"))};
    for (int run = 0; run < 2'000; ++run) {
      const std::size_t keep = 1 + below(4);  // keep 1 in `keep` terms
      std::vector<Value> universe;
      for (const Value& v : full) {
        if (below(keep) == 0) universe.push_back(v);
      }
      std::set<Value> known;
      for (std::size_t n = below(7); n > 0; --n) known.insert(pick(pool));
      if (below(2) == 0) known.insert(pick(secrets));
      ASSERT_TRUE(same(T, known, universe)) << "NSPK case " << run;
    }
  }

  // Random small algebras over pair, senc, aenc, mac, pk and sk, with keys
  // inside and outside the universe and sk(a) absent or present.
  Context ctx;
  const TermAlgebra T{ctx};
  const std::vector<Value> agents{T.atom("a"), T.atom("b")};
  const std::vector<Value> leaves{T.atom("x"),        T.atom("y"),
                                  T.atom("k"),        T.atom("k2"),
                                  agents[0],          agents[1],
                                  T.pk(agents[0]),    T.pk(agents[1]),
                                  T.sk(agents[0]),    T.sk(agents[1])};
  const auto term = [&](auto&& self, int depth) -> Value {
    if (depth == 0 || below(3) == 0) return pick(leaves);
    const Value body = self(self, depth - 1);
    switch (below(4)) {
      case 0:
        return T.pair(self(self, depth - 1), body);
      case 1:
        return T.senc(below(3) == 0 ? self(self, depth - 1) : pick(leaves),
                      body);
      case 2:
        return T.aenc(below(4) == 0 ? pick(leaves) : T.pk(pick(agents)),
                      body);
      default:
        return T.mac(pick(leaves), body);
    }
  };
  for (int run = 0; run < 18'000; ++run) {
    std::vector<Value> universe;
    for (std::size_t n = below(8); n > 0; --n) {
      universe.push_back(term(term, 1 + below(2)));
    }
    if (below(2) == 0) universe.push_back(pick(leaves));
    std::set<Value> known;
    for (std::size_t n = 1 + below(4); n > 0; --n) {
      known.insert(term(term, below(4)));
    }
    if (below(2) == 0) known.insert(T.sk(pick(agents)));
    ASSERT_TRUE(same(T, known, universe)) << "algebra case " << run;
  }
  EXPECT_EQ(cases, 22'000u);
  EXPECT_GT(grew, cases / 4);  // most cases derive something new
}

// --- attack trees -----------------------------------------------------------------

TEST(AttackTree, LeafSemantics) {
  const AttackTree t = AttackTree::leaf("spoof");
  EXPECT_EQ(t.sequences(),
            (std::set<std::vector<std::string>>{{"spoof"}}));
  EXPECT_EQ(t.size(), 1u);
}

TEST(AttackTree, SeqConcatenates) {
  const AttackTree t = AttackTree::seq(
      {AttackTree::leaf("a"), AttackTree::leaf("b"), AttackTree::leaf("c")});
  EXPECT_EQ(t.sequences(),
            (std::set<std::vector<std::string>>{{"a", "b", "c"}}));
}

TEST(AttackTree, OrUnions) {
  const AttackTree t =
      AttackTree::or_any({AttackTree::leaf("usb"), AttackTree::leaf("ota")});
  EXPECT_EQ(t.sequences(),
            (std::set<std::vector<std::string>>{{"usb"}, {"ota"}}));
}

TEST(AttackTree, AndInterleaves) {
  const AttackTree t =
      AttackTree::and_all({AttackTree::leaf("a"), AttackTree::leaf("b")});
  EXPECT_EQ(t.sequences(),
            (std::set<std::vector<std::string>>{{"a", "b"}, {"b", "a"}}));
}

TEST(AttackTree, PaperSemanticsCompose) {
  // (a . (b || c)) has sequences abc and acb.
  const AttackTree t = AttackTree::seq(
      {AttackTree::leaf("a"),
       AttackTree::and_all({AttackTree::leaf("b"), AttackTree::leaf("c")})});
  EXPECT_EQ(t.sequences(), (std::set<std::vector<std::string>>{
                               {"a", "b", "c"}, {"a", "c", "b"}}));
}

TEST(AttackTree, EmptyCombinatorsRejected) {
  EXPECT_THROW(AttackTree::seq({}), std::invalid_argument);
  EXPECT_THROW(AttackTree::and_all({}), std::invalid_argument);
  EXPECT_THROW(AttackTree::or_any({}), std::invalid_argument);
}

/// The paper's Section IV-E equivalence: the CSP translation's *completed*
/// traces (maximal, tick-terminated) coincide with the SP-graph semantics.
class AttackTreeEquivalence : public ::testing::TestWithParam<int> {
 protected:
  static AttackTree sample(int which) {
    using AT = AttackTree;
    switch (which) {
      case 0: return AT::leaf("x");
      case 1: return AT::seq({AT::leaf("a"), AT::leaf("b")});
      case 2: return AT::or_any({AT::leaf("a"), AT::leaf("b")});
      case 3: return AT::and_all({AT::leaf("a"), AT::leaf("b")});
      case 4:
        return AT::seq({AT::leaf("recon"),
                        AT::or_any({AT::leaf("usb"), AT::leaf("ota")}),
                        AT::leaf("install")});
      case 5:
        return AT::and_all(
            {AT::seq({AT::leaf("a"), AT::leaf("b")}), AT::leaf("c")});
      case 6:
        return AT::or_any(
            {AT::seq({AT::leaf("a"), AT::leaf("b")}),
             AT::and_all({AT::leaf("c"), AT::leaf("d")})});
      default:
        return AT::seq(
            {AT::or_any({AT::leaf("a"), AT::leaf("b")}),
             AT::and_all({AT::leaf("c"), AT::leaf("d")}), AT::leaf("e")});
    }
  }
};

TEST_P(AttackTreeEquivalence, CspTranslationMatchesSemantics) {
  const AttackTree tree = sample(GetParam());
  Context ctx;
  const ProcessRef p = tree.to_csp(ctx);
  // Completed traces: those the enumeration reports with a trailing tick.
  std::set<std::vector<std::string>> completed;
  for (const auto& trace : enumerate_traces(ctx, p, 16)) {
    if (trace.empty() || trace.back() != TICK) continue;
    std::vector<std::string> names;
    for (std::size_t k = 0; k + 1 < trace.size(); ++k) {
      const auto& fields = ctx.event_fields(trace[k]);
      names.push_back(fields.at(0).to_string(ctx.symbols()));
    }
    completed.insert(std::move(names));
  }
  EXPECT_EQ(completed, tree.sequences()) << "sample " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Samples, AttackTreeEquivalence, ::testing::Range(0, 8));

// --- property builders ---------------------------------------------------------------

class PropertiesTest : public ::testing::Test {
 protected:
  PropertiesTest() {
    req = ctx.event(ctx.channel("req"));
    rsp = ctx.event(ctx.channel("rsp"));
    other = ctx.event(ctx.channel("other"));
  }
  Context ctx;
  EventId req, rsp, other;
};

TEST_F(PropertiesTest, ResponsePropertyHolds) {
  ctx.define("GOOD", [this](Context& cx, std::span<const Value>) {
    return cx.prefix(req, cx.prefix(other, cx.prefix(rsp, cx.var("GOOD"))));
  });
  EXPECT_TRUE(check_response(ctx, ctx.var("GOOD"), req, rsp).passed);
}

TEST_F(PropertiesTest, ResponsePropertyCatchesDoubleRequest) {
  ctx.define("BAD", [this](Context& cx, std::span<const Value>) {
    return cx.prefix(req, cx.prefix(req, cx.prefix(rsp, cx.var("BAD"))));
  });
  const CheckResult r = check_response(ctx, ctx.var("BAD"), req, rsp);
  ASSERT_FALSE(r.passed);
  EXPECT_EQ(r.counterexample->event, req);
}

TEST_F(PropertiesTest, PrecedenceHoldsAndFails) {
  const ProcessRef good = ctx.prefix(req, ctx.prefix(rsp, ctx.stop()));
  const ProcessRef bad = ctx.prefix(rsp, ctx.prefix(req, ctx.stop()));
  EXPECT_TRUE(check_precedence(ctx, good, req, rsp).passed);
  EXPECT_FALSE(check_precedence(ctx, bad, req, rsp).passed);
}

TEST_F(PropertiesTest, PrecedenceWitnessGivesFullTrace) {
  const ProcessRef bad =
      ctx.prefix(other, ctx.prefix(rsp, ctx.stop()));
  const CheckResult r = check_precedence_witness(ctx, bad, req, rsp);
  ASSERT_FALSE(r.passed);
  // The witness keeps the unrelated 'other' event.
  EXPECT_EQ(r.counterexample->trace, (std::vector<EventId>{other}));
  EXPECT_EQ(r.counterexample->event, rsp);
}

TEST_F(PropertiesTest, NeverPropertyDetectsLeak) {
  const ProcessRef leaky = ctx.prefix(other, ctx.prefix(req, ctx.stop()));
  EXPECT_TRUE(check_never(ctx, leaky, rsp).passed);
  EXPECT_FALSE(check_never(ctx, leaky, req).passed);
}

// --- intruder + protocol ----------------------------------------------------------------

TEST(Intruder, LearnsOverheardMessagesAndReplays) {
  Context ctx;
  TermAlgebra T(ctx);
  const Value a = T.atom("a");
  const Value b = T.atom("b");
  const Value secret = T.atom("secret");
  const std::vector<Value> agents{a, b};
  const std::vector<Value> messages{secret};

  IntruderConfig cfg;
  cfg.universe = {secret, a, b};
  cfg.messages = messages;
  cfg.hear_channel = ctx.channel("hear", {agents, agents, messages});
  cfg.say_channel = ctx.channel("say", {agents, agents, messages});
  cfg.agents = agents;
  const ProcessRef intruder = build_intruder(T, cfg);

  // Initially, nothing can be said.
  for (const Transition& t : ctx.transitions(intruder)) {
    EXPECT_EQ(ctx.event_channel(t.event), cfg.hear_channel);
  }
  // After hearing the secret once, it can be replayed with spoofed sender.
  const EventId heard = ctx.event(cfg.hear_channel, {a, b, secret});
  ProcessRef after = nullptr;
  for (const Transition& t : ctx.transitions(intruder)) {
    if (t.event == heard) after = t.target;
  }
  ASSERT_NE(after, nullptr);
  bool can_spoof = false;
  for (const Transition& t : ctx.transitions(after)) {
    if (t.event == ctx.event(cfg.say_channel, {b, a, secret})) {
      can_spoof = true;
    }
  }
  EXPECT_TRUE(can_spoof);
}

TEST(Intruder, CannotSayUnderivableMessages) {
  Context ctx;
  TermAlgebra T(ctx);
  const Value a = T.atom("a");
  const Value k = T.atom("k");
  const Value m = T.atom("m");
  const Value ct = T.senc(k, m);
  const std::vector<Value> agents{a};
  const std::vector<Value> messages{ct, m};

  IntruderConfig cfg;
  cfg.universe = {ct, m, k, a};
  cfg.messages = messages;
  cfg.initial_knowledge = {ct};  // has the ciphertext but not the key
  cfg.hear_channel = ctx.channel("hear2", {agents, agents, messages});
  cfg.say_channel = ctx.channel("say2", {agents, agents, messages});
  cfg.agents = agents;
  const ProcessRef intruder = build_intruder(T, cfg);

  const EventId say_plain = ctx.event(cfg.say_channel, {a, a, m});
  const EventId say_ct = ctx.event(cfg.say_channel, {a, a, ct});
  bool plain = false;
  bool cipher = false;
  for (const Transition& t : ctx.transitions(intruder)) {
    plain |= t.event == say_plain;
    cipher |= t.event == say_ct;
  }
  EXPECT_FALSE(plain);
  EXPECT_TRUE(cipher);
}

TEST(Nspk, LoweAttackIsFound) {
  auto sys = build_nspk(/*lowe_fix=*/false);
  const CheckResult r = check_precedence(sys->ctx, sys->system,
                                         sys->running_ab, sys->commit_ba);
  ASSERT_FALSE(r.passed);
  EXPECT_EQ(r.counterexample->event, sys->commit_ba);
}

TEST(Nspk, LoweAttackWitnessShowsManInTheMiddle) {
  auto sys = build_nspk(false);
  const CheckResult r = check_precedence_witness(
      sys->ctx, sys->system, sys->running_ab, sys->commit_ba);
  ASSERT_FALSE(r.passed);
  // The attack starts with A innocently contacting the intruder.
  ASSERT_FALSE(r.counterexample->trace.empty());
  EXPECT_EQ(sys->ctx.event_name(r.counterexample->trace[0]), "running.a.i");
}

TEST(Nspk, WitnessCounterexampleAndStatsArePinned) {
  // Lowe's man-in-the-middle, event by event: the canonical counterexample
  // (shortest, then smallest by event id) and the size of every machine.
  auto sys = build_nspk(false);
  const CheckResult r = check_precedence_witness(
      sys->ctx, sys->system, sys->running_ab, sys->commit_ba);
  ASSERT_FALSE(r.passed);
  EXPECT_EQ(r.counterexample->trace_names(sys->ctx),
            (std::vector<std::string>{
                "running.a.i",
                "snd.a.i.<aenc, <pk, i>, <pair, na, a>>",
                "rcv.a.b.<aenc, <pk, b>, <pair, na, a>>",
                "snd.b.a.<aenc, <pk, a>, <pair, na, nb>>",
                "rcv.i.a.<aenc, <pk, a>, <pair, na, nb>>",
                "snd.a.i.<aenc, <pk, i>, nb>",
                "rcv.a.b.<aenc, <pk, b>, nb>",
                "commit.b.a",
            }));
  EXPECT_EQ(r.stats.impl_states, 137u);
  EXPECT_EQ(r.stats.impl_transitions, 261u);
  EXPECT_EQ(r.stats.spec_states, 2u);
  EXPECT_EQ(r.stats.spec_norm_nodes, 2u);
  EXPECT_EQ(r.stats.product_states, 121u);
}

TEST(Nspk, LoweFixWitnessStatsArePinned) {
  auto sys = build_nspk(true);
  const CheckResult r = check_precedence_witness(
      sys->ctx, sys->system, sys->running_ab, sys->commit_ba);
  EXPECT_TRUE(r.passed);
  EXPECT_EQ(r.stats.impl_states, 132u);
  EXPECT_EQ(r.stats.impl_transitions, 253u);
  EXPECT_EQ(r.stats.spec_states, 2u);
  EXPECT_EQ(r.stats.spec_norm_nodes, 2u);
  EXPECT_EQ(r.stats.product_states, 132u);
}

TEST(Nspk, TermDigestIsIndependentOfResolutionOrder) {
  // The intruder's Var argument is its knowledge by content, so resolving
  // its states first (as compile_lts does) leaves the term digest, the
  // store key, as a fresh build has it. The digest walk unfolds an
  // intruder on its own, where any message may be heard at any time, and
  // it walks every path, so over all of NSPK's messages and agents it
  // would not finish. This intruder keeps NSPK's universe and keys, but
  // only the five messages of Lowe's attack and one agent.
  const auto build = [](bool compile_first) {
    auto sys = build_nspk(false);
    TermAlgebra& T = sys->terms;
    const auto enc = [&](const char* to, const Value& body) {
      return T.aenc(T.pk(T.atom(to)), body);
    };
    IntruderConfig cfg = sys->intruder;
    const Value na = T.atom("na");
    const Value nb = T.atom("nb");
    cfg.messages = {enc("i", T.pair(na, T.atom("a"))),
                    enc("b", T.pair(na, T.atom("a"))),
                    enc("a", T.pair(na, nb)), enc("i", nb), enc("b", nb)};
    cfg.agents = {T.atom("i")};
    cfg.name = "LOWE_INTRUDER";
    const ProcessRef intruder = build_intruder(T, cfg);
    if (compile_first) {
      compile_lts(sys->ctx, sys->system);
      EXPECT_EQ(compile_lts(sys->ctx, intruder).state_count(), 17u);
    }
    return store::digest_term(sys->ctx, intruder);
  };
  EXPECT_EQ(build(true), build(false));
}

TEST(Nspk, LoweFixRestoresAuthentication) {
  auto sys = build_nspk(/*lowe_fix=*/true);
  const CheckResult r = check_precedence(sys->ctx, sys->system,
                                         sys->running_ab, sys->commit_ba);
  EXPECT_TRUE(r.passed);
}

TEST(Nspk, NonceNaStaysConfidentialFromPassiveObservation) {
  // In NSL, with only honest runs a->b, the intruder never derives nb.
  // (Checked indirectly: b's commit to a requires the full handshake.)
  auto sys = build_nspk(true);
  // Sanity: the system is divergence free (finite behaviour, no taus loops).
  EXPECT_TRUE(check_divergence_free(sys->ctx, sys->system).passed);
}


// --- SecOC-style freshness (replay protection) ------------------------------------

TEST(SecOc, PlainMacIsVulnerableToReplay) {
  auto model = build_secoc_model(3);
  const CheckResult r = check_no_replay(*model, /*secoc_variant=*/false);
  ASSERT_FALSE(r.passed);
  // The witness is a double-accept of one transmission.
  EXPECT_EQ(model->ctx.event_name(r.counterexample->event), "accept.0.0");
  ASSERT_FALSE(r.counterexample->trace.empty());
  EXPECT_EQ(r.counterexample->trace.back(), model->accept0);
}

TEST(SecOc, FreshnessCounterStopsReplay) {
  auto model = build_secoc_model(3);
  EXPECT_TRUE(check_no_replay(*model, /*secoc_variant=*/true).passed);
}

TEST(SecOc, AttackerCannotForgeMacs) {
  // Even the MAC-only receiver never accepts a frame that was never sent:
  // accept.c.n requires the genuine snd first (origin authentication holds;
  // only freshness fails).
  auto model = build_secoc_model(2);
  const CheckResult r = check_precedence(model->ctx, model->system_mac_only,
                                         model->send0, model->accept0);
  EXPECT_TRUE(r.passed);
}

TEST(SecOc, CounterRangeScalesTheModel) {
  auto small = build_secoc_model(2);
  auto larger = build_secoc_model(4);
  const CheckResult rs = check_no_replay(*small, true);
  const CheckResult rl = check_no_replay(*larger, true);
  EXPECT_TRUE(rs.passed);
  EXPECT_TRUE(rl.passed);
  EXPECT_GT(rl.stats.impl_states, rs.stats.impl_states);
}

TEST(SecOc, SecOcSystemIsDivergenceFree) {
  auto model = build_secoc_model(2);
  EXPECT_TRUE(check_divergence_free(model->ctx, model->system_secoc).passed);
}

}  // namespace
}  // namespace ecucsp::security
