// Structural digest tests: the properties the verification store's keys
// depend on.
//
// The store is only sound if a term's digest is a pure function of the
// *model* — not of the Context it was built in, the order channels were
// interned, the order the arena allocated nodes, or what the digester
// happened to hash earlier. Each of those accidents has a dedicated
// regression here, because each one produced (or would produce) silent
// cache misses: same model, different key, cold run forever.
#include <gtest/gtest.h>

#include "core/context.hpp"
#include "store/digest.hpp"
#include "store/term_digest.hpp"

namespace ecucsp::store {
namespace {

// --- Digest / Hasher primitives ---------------------------------------------

TEST(Digest, HexRoundTrip) {
  const Digest d = digest_bytes("hello");
  EXPECT_EQ(d.hex().size(), 32u);
  Digest back;
  ASSERT_TRUE(Digest::parse(d.hex(), back));
  EXPECT_EQ(d, back);
}

TEST(Digest, ParseRejectsMalformedInput) {
  Digest out;
  EXPECT_FALSE(Digest::parse("", out));
  EXPECT_FALSE(Digest::parse("abc", out));                                // short
  EXPECT_FALSE(Digest::parse(std::string(33, 'a'), out));                 // long
  EXPECT_FALSE(Digest::parse("g" + std::string(31, '0'), out));           // non-hex
  EXPECT_TRUE(Digest::parse(std::string(32, '0'), out));
  EXPECT_EQ(out, Digest{});
}

TEST(Digest, OrderingIsLexicographicOnLanes) {
  const Digest a{1, 99};
  const Digest b{2, 0};
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_FALSE(a < a);
  EXPECT_TRUE(Digest({1, 0}) < Digest({1, 1}));
}

TEST(Digest, BytesAreDeterministicAndDiscriminating) {
  EXPECT_EQ(digest_bytes("model"), digest_bytes("model"));
  EXPECT_NE(digest_bytes("model"), digest_bytes("Model"));
  EXPECT_NE(digest_bytes(""), digest_bytes(std::string_view("\0", 1)));
}

TEST(Hasher, FramingPreventsConcatenationCollisions) {
  // "a","b" vs "ab": without length framing these would hash the same
  // byte stream.
  Hasher split, joined;
  split.str("a").str("b");
  joined.str("ab");
  EXPECT_NE(split.finish(), joined.finish());

  // The same integer fed at different widths must differ (tag bytes).
  Hasher narrow, wide;
  narrow.u8(7);
  wide.u64(7);
  EXPECT_NE(narrow.finish(), wide.finish());
}

// --- cross-Context stability -------------------------------------------------

/// a -> b -> STOP, built in a Context that interned `extra` channels first
/// so all the EventIds differ from a plainly-built Context.
Digest digest_ab(int extra_channels_first) {
  Context ctx;
  for (int i = 0; i < extra_channels_first; ++i) {
    ctx.event(ctx.channel("noise" + std::to_string(i)));
  }
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  return digest_term(ctx, ctx.prefix(a, ctx.prefix(b, ctx.stop())));
}

TEST(TermDigest, StableAcrossContextsAndInterningOrder) {
  const Digest base = digest_ab(0);
  EXPECT_EQ(base, digest_ab(0));
  EXPECT_EQ(base, digest_ab(5));  // EventIds shifted, names unchanged
}

TEST(TermDigest, DiscriminatesStructure) {
  Context ctx;
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  TermDigester d(ctx);
  EXPECT_NE(d.term(ctx.stop()), d.term(ctx.skip()));
  EXPECT_NE(d.term(ctx.prefix(a, ctx.stop())), d.term(ctx.prefix(b, ctx.stop())));
  EXPECT_NE(d.term(ctx.prefix(a, ctx.stop())), d.term(ctx.prefix(a, ctx.skip())));
  // Channel names, not ids: same id pattern with renamed channel differs.
  Context other;
  const EventId a2 = other.event(other.channel("aa"));
  EXPECT_NE(d.term(ctx.prefix(a, ctx.stop())),
            digest_term(other, other.prefix(a2, other.stop())));
}

TEST(TermDigest, EventDigestCoversFieldValues) {
  Context ctx;
  const ChannelId c = ctx.channel(
      "c", {{Value::integer(0), Value::integer(1), Value::integer(2)}});
  TermDigester d(ctx);
  EXPECT_NE(d.event(ctx.event(c, {Value::integer(0)})),
            d.event(ctx.event(c, {Value::integer(1)})));
  EXPECT_EQ(d.event(ctx.event(c, {Value::integer(2)})),
            d.event(ctx.event(c, {Value::integer(2)})));
}

// --- operand order of commutative operators ----------------------------------

TEST(TermDigest, ChoiceIsOperandOrderIndependent) {
  // Context::ext_choice/int_choice canonicalise operand order by arena
  // pointer — an allocation accident that varies run to run under ASLR.
  // The digest must collapse both orders, and must equal the digest of the
  // same choice built in a Context whose arena laid the nodes out the
  // other way around (forced here by building the operands in swapped
  // order so the hash-cons table hands back the same nodes either way).
  Context ctx;
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  const ProcessRef p = ctx.prefix(a, ctx.stop());
  const ProcessRef q = ctx.prefix(b, ctx.stop());
  TermDigester d(ctx);
  EXPECT_EQ(d.term(ctx.ext_choice(p, q)), d.term(ctx.ext_choice(q, p)));
  EXPECT_EQ(d.term(ctx.int_choice(p, q)), d.term(ctx.int_choice(q, p)));

  // Cross-Context with reversed construction order (reversed arena layout).
  Context rev;
  const EventId b2 = rev.event(rev.channel("b"));
  const EventId a2 = rev.event(rev.channel("a"));
  const ProcessRef q2 = rev.prefix(b2, rev.stop());
  const ProcessRef p2 = rev.prefix(a2, rev.stop());
  EXPECT_EQ(d.term(ctx.ext_choice(p, q)),
            digest_term(rev, rev.ext_choice(p2, q2)));
}

TEST(TermDigest, ChoiceIsAssociationIndependent) {
  // A choice is one flat node, so every association and order of the same
  // operands has one digest, also across Contexts that interned them in
  // the opposite order.
  Context ctx;
  const ProcessRef p = ctx.prefix(ctx.event(ctx.channel("a")), ctx.stop());
  const ProcessRef q = ctx.prefix(ctx.event(ctx.channel("b")), ctx.stop());
  const ProcessRef r = ctx.prefix(ctx.event(ctx.channel("c")), ctx.stop());
  TermDigester d(ctx);
  const Digest ext = d.term(ctx.ext_choice(ctx.ext_choice(p, q), r));
  EXPECT_EQ(d.term(ctx.ext_choice(p, ctx.ext_choice(q, r))), ext);
  EXPECT_EQ(d.term(ctx.ext_choice(r, ctx.ext_choice(q, p))), ext);
  const Digest in = d.term(ctx.int_choice(ctx.int_choice(p, q), r));
  EXPECT_EQ(d.term(ctx.int_choice(p, ctx.int_choice(q, r))), in);
  EXPECT_EQ(d.term(ctx.int_choice(r, ctx.int_choice(q, p))), in);
  EXPECT_NE(ext, in);

  Context rev;
  const ProcessRef r2 = rev.prefix(rev.event(rev.channel("c")), rev.stop());
  const ProcessRef q2 = rev.prefix(rev.event(rev.channel("b")), rev.stop());
  const ProcessRef p2 = rev.prefix(rev.event(rev.channel("a")), rev.stop());
  EXPECT_EQ(digest_term(rev, rev.ext_choice(r2, rev.ext_choice(q2, p2))), ext);
}

TEST(TermDigest, TwoOperandChoiceBytesArePinned) {
  // Store keys: a two-operand choice digests exactly as the binary choice
  // node did, so stores written before the n-ary node still hit on it.
  Context ctx;
  const ProcessRef p = ctx.prefix(ctx.event(ctx.channel("a")), ctx.stop());
  const ProcessRef q = ctx.prefix(ctx.event(ctx.channel("b")), ctx.skip());
  EXPECT_EQ(digest_term(ctx, ctx.ext_choice(p, q)).hex(),
            "e09f5d78ebed2715625c41ddad96924a");
  EXPECT_EQ(digest_term(ctx, ctx.int_choice(p, q)).hex(),
            "92696421e998b74ebd492cc8c12a7ea2");
}

TEST(TermDigest, NonCommutativeOperatorsKeepOperandOrder) {
  Context ctx;
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  const ProcessRef p = ctx.prefix(a, ctx.skip());
  const ProcessRef q = ctx.prefix(b, ctx.skip());
  TermDigester d(ctx);
  EXPECT_NE(d.term(ctx.seq(p, q)), d.term(ctx.seq(q, p)));
  EXPECT_NE(d.term(ctx.interrupt(p, q)), d.term(ctx.interrupt(q, p)));
  EXPECT_NE(d.term(ctx.sliding(p, q)), d.term(ctx.sliding(q, p)));
}

TEST(TermDigest, ChoiceOfDistinctPairsStillDiscriminates) {
  // Order independence must not collapse genuinely different choices.
  Context ctx;
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  const EventId c = ctx.event(ctx.channel("c"));
  const ProcessRef pa = ctx.prefix(a, ctx.stop());
  const ProcessRef pb = ctx.prefix(b, ctx.stop());
  const ProcessRef pc = ctx.prefix(c, ctx.stop());
  TermDigester d(ctx);
  EXPECT_NE(d.term(ctx.ext_choice(pa, pb)), d.term(ctx.ext_choice(pa, pc)));
  EXPECT_NE(d.term(ctx.ext_choice(pa, pb)), d.term(ctx.int_choice(pa, pb)));
}

TEST(TermDigest, EventSetDigestIgnoresInterningOrder) {
  // Par alphabets are EventSets sorted by EventId — an interning accident.
  // Two Contexts that interned {a, b} in opposite orders must produce the
  // same alphabet digest.
  auto build = [](bool a_first) {
    Context ctx;
    EventId a, b;
    if (a_first) {
      a = ctx.event(ctx.channel("a"));
      b = ctx.event(ctx.channel("b"));
    } else {
      b = ctx.event(ctx.channel("b"));
      a = ctx.event(ctx.channel("a"));
    }
    const ProcessRef p = ctx.prefix(a, ctx.skip());
    const ProcessRef q = ctx.prefix(b, ctx.skip());
    return digest_term(ctx, ctx.par(p, EventSet{a, b}, q));
  };
  EXPECT_EQ(build(true), build(false));
}

// --- recursion ---------------------------------------------------------------

TEST(TermDigest, RecursionTerminatesAndDiscriminatesBodies) {
  auto recursive = [](std::string_view name, std::string_view chan) {
    Context ctx;
    const EventId e = ctx.event(ctx.channel(chan));
    ctx.define(name, [e, n = std::string(name)](Context& cx,
                                                std::span<const Value>) {
      return cx.prefix(e, cx.var(n));
    });
    return digest_term(ctx, ctx.var(name));
  };
  EXPECT_EQ(recursive("P", "a"), recursive("P", "a"));
  EXPECT_NE(recursive("P", "a"), recursive("P", "b"));  // body differs
  EXPECT_NE(recursive("P", "a"), recursive("Q", "a"));  // name differs
}

TEST(TermDigest, RecursionDistinguishesArguments) {
  Context ctx;
  const EventId a = ctx.event(ctx.channel("a"));
  ctx.define("P", [a](Context& cx, std::span<const Value>) {
    return cx.prefix(a, cx.stop());
  });
  TermDigester d(ctx);
  EXPECT_NE(d.term(ctx.var("P", {Value::integer(0)})),
            d.term(ctx.var("P", {Value::integer(1)})));
}

TEST(TermDigest, MemoIsHistoryIndependent) {
  // Digesting a subterm standalone first must not change what a later
  // digest of an enclosing recursive term sees: inside an open binder a
  // node that references the binder digests as a back-reference, and a
  // memoised standalone digest (which unfolds instead) must never be
  // substituted there.
  auto build = [](Context& ctx, EventId a, EventId b) {
    // P = a -> (b -> P [] a -> STOP); the inner choice references P.
    ctx.define("P", [a, b](Context& cx, std::span<const Value>) {
      return cx.prefix(
          a, cx.ext_choice(cx.prefix(b, cx.var("P")),
                           cx.prefix(a, cx.stop())));
    });
    return ctx.var("P");
  };

  Context warm_ctx;
  const EventId wa = warm_ctx.event(warm_ctx.channel("a"));
  const EventId wb = warm_ctx.event(warm_ctx.channel("b"));
  const ProcessRef warm_p = build(warm_ctx, wa, wb);
  TermDigester warm(warm_ctx);
  // Warm the memo with every node of the unfolded body *before* digesting
  // the recursive entry point.
  warm.term(warm_ctx.resolve(warm_p->var_name(), {}));
  const Digest warmed = warm.term(warm_p);

  Context cold_ctx;
  const EventId ca = cold_ctx.event(cold_ctx.channel("a"));
  const EventId cb = cold_ctx.event(cold_ctx.channel("b"));
  const Digest cold = digest_term(cold_ctx, build(cold_ctx, ca, cb));

  EXPECT_EQ(warmed, cold);
}

TEST(TermDigest, RepeatedDigestsAgreeWithFreshDigester) {
  // The memo is an optimisation only: a digester that has seen arbitrary
  // terms must agree with a one-shot digest for every term.
  Context ctx;
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  ctx.define("LOOP", [a, b](Context& cx, std::span<const Value>) {
    return cx.prefix(a, cx.prefix(b, cx.var("LOOP")));
  });
  const ProcessRef terms[] = {
      ctx.stop(),
      ctx.prefix(a, ctx.stop()),
      ctx.ext_choice(ctx.prefix(a, ctx.stop()), ctx.prefix(b, ctx.skip())),
      ctx.var("LOOP"),
      ctx.hide(ctx.var("LOOP"), EventSet{a}),
      ctx.par(ctx.prefix(a, ctx.skip()), EventSet{a}, ctx.prefix(a, ctx.stop())),
  };
  TermDigester shared(ctx);
  for (const ProcessRef t : terms) {
    EXPECT_EQ(shared.term(t), digest_term(ctx, t));
    EXPECT_EQ(shared.term(t), shared.term(t));
  }
}

TEST(TermDigest, HideAlphabetIsPartOfTheDigest) {
  Context ctx;
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  const ProcessRef p = ctx.prefix(a, ctx.prefix(b, ctx.stop()));
  TermDigester d(ctx);
  EXPECT_NE(d.term(ctx.hide(p, EventSet{a})), d.term(ctx.hide(p, EventSet{b})));
  EXPECT_NE(d.term(ctx.hide(p, EventSet{a})), d.term(p));
}

TEST(TermDigest, RenameMapIsPartOfTheDigest) {
  Context ctx;
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  const EventId c = ctx.event(ctx.channel("c"));
  const ProcessRef p = ctx.prefix(a, ctx.stop());
  TermDigester d(ctx);
  EXPECT_NE(d.term(ctx.rename(p, {{a, b}})), d.term(ctx.rename(p, {{a, c}})));
  EXPECT_EQ(d.term(ctx.rename(p, {{a, b}})), d.term(ctx.rename(p, {{a, b}})));
}

}  // namespace
}  // namespace ecucsp::store
