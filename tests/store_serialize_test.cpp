// Serialization-format tests: encode→decode identity and hostile-input
// behaviour for the store's sealed envelopes.
//
// The store's contract is that a load either returns exactly what was
// stored or throws SerializeError (which the cache layer converts into a
// miss) — it never crashes, never returns a mangled artifact. That is
// checked both constructively (round trips, including randomised machines
// and verdicts, and one pinned machine encoding) and destructively (every
// truncation point, every single-byte corruption, plain garbage, element
// counts larger than the payload).
#include <gtest/gtest.h>

#include <random>

#include "refine/check.hpp"
#include "refine/lts.hpp"
#include "store/serialize.hpp"

namespace ecucsp::store {
namespace {

// --- primitive wire formats --------------------------------------------------

TEST(Serialize, VarintRoundTripAtBoundaries) {
  const std::uint64_t values[] = {0,       1,        127,        128,
                                  16383,   16384,    (1u << 21), 0xFFFFFFFFu,
                                  ~0ull >> 1, ~0ull};
  ByteWriter w;
  for (const std::uint64_t v : values) w.uv(v);
  ByteReader r(w.bytes());
  for (const std::uint64_t v : values) EXPECT_EQ(r.uv(), v);
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, ZigzagRoundTripAtBoundaries) {
  const std::int64_t values[] = {0,  1,  -1, 63, -64, 64, -65,
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min()};
  ByteWriter w;
  for (const std::int64_t v : values) w.iv(v);
  ByteReader r(w.bytes());
  for (const std::int64_t v : values) EXPECT_EQ(r.iv(), v);
}

TEST(Serialize, SmallNegativesEncodeSmall) {
  // Zigzag's point: -1 must not cost ten bytes.
  ByteWriter w;
  w.iv(-1);
  EXPECT_EQ(w.bytes().size(), 1u);
}

TEST(Serialize, StringRoundTripAndTruncation) {
  ByteWriter w;
  w.str("hello");
  w.str("");
  w.str(std::string(300, 'x'));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string(300, 'x'));

  // A length prefix promising more bytes than remain must throw, not read
  // out of bounds.
  ByteWriter bad;
  bad.uv(100);
  bad.u8('x');
  ByteReader br(bad.bytes());
  EXPECT_THROW(br.str(), SerializeError);
}

TEST(Serialize, ReaderThrowsOnTruncatedVarint) {
  const std::uint8_t cont = 0x80;  // continuation bit set, stream ends
  ByteReader r(std::span<const std::uint8_t>(&cont, 1));
  EXPECT_THROW(r.uv(), SerializeError);
}

// --- envelopes ---------------------------------------------------------------

std::vector<std::uint8_t> payload_bytes(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(Seal, RoundTrip) {
  const auto blob = seal(ArtifactKind::Verdict, payload_bytes("verdict body"));
  const auto back = unseal(ArtifactKind::Verdict, blob);
  EXPECT_EQ(std::string(back.begin(), back.end()), "verdict body");
}

TEST(Seal, KindMismatchThrows) {
  const auto blob = seal(ArtifactKind::Verdict, payload_bytes("x"));
  EXPECT_THROW(unseal(ArtifactKind::Machine, blob), SerializeError);
}

TEST(Seal, EveryTruncationThrows) {
  const auto blob = seal(ArtifactKind::Machine, payload_bytes("some payload"));
  for (std::size_t n = 0; n < blob.size(); ++n) {
    EXPECT_THROW(
        unseal(ArtifactKind::Machine,
               std::span<const std::uint8_t>(blob.data(), n)),
        SerializeError)
        << "prefix of " << n << " bytes accepted";
  }
}

TEST(Seal, TrailingGarbageThrows) {
  auto blob = seal(ArtifactKind::Machine, payload_bytes("p"));
  blob.push_back(0);
  EXPECT_THROW(unseal(ArtifactKind::Machine, blob), SerializeError);
}

TEST(Seal, SingleByteCorruptionNeverYieldsAlteredPayload) {
  const std::string payload = "the payload the digest protects";
  const auto blob = seal(ArtifactKind::Verdict, payload_bytes(payload));
  for (std::size_t i = 0; i < blob.size(); ++i) {
    for (const std::uint8_t delta : {0x01, 0x80}) {
      auto mangled = blob;
      mangled[i] ^= delta;
      // Either the envelope detects the flip (the normal case) or the flip
      // was somewhere harmless enough that the original payload survives —
      // but a *different* payload must never come back.
      try {
        const auto back = unseal(ArtifactKind::Verdict, mangled);
        EXPECT_EQ(std::string(back.begin(), back.end()), payload)
            << "byte " << i << " flip returned an altered payload";
      } catch (const SerializeError&) {
      }
    }
  }
}

TEST(Seal, GarbageInputThrows) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 64; ++round) {
    std::vector<std::uint8_t> junk(rng() % 200);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    // Random bytes essentially never start with the magic; if they do, the
    // digest check rejects them.
    EXPECT_THROW(unseal(ArtifactKind::Machine, junk), SerializeError);
  }
}

// --- events and values -------------------------------------------------------

TEST(SerializeEvent, RoundTripsAcrossContexts) {
  Context src;
  const ChannelId c = src.channel(
      "data", {{Value::integer(1), Value::integer(2), Value::symbol(src.sym("ok"))}});
  const EventId e = src.event(c, {Value::integer(2)});

  ByteWriter w;
  encode_event(w, src, TAU);
  encode_event(w, src, TICK);
  encode_event(w, src, e);

  Context dst;
  dst.channel("data",
              {{Value::integer(1), Value::integer(2), Value::symbol(dst.sym("ok"))}});
  ByteReader r(w.bytes());
  EXPECT_EQ(decode_event(r, dst), TAU);
  EXPECT_EQ(decode_event(r, dst), TICK);
  const EventId back = decode_event(r, dst);
  EXPECT_EQ(dst.event_name(back), src.event_name(e));
}

TEST(SerializeEvent, UnknownChannelThrows) {
  Context src;
  const EventId e = src.event(src.channel("only_here"));
  ByteWriter w;
  encode_event(w, src, e);
  Context dst;  // channel never declared
  ByteReader r(w.bytes());
  EXPECT_THROW(decode_event(r, dst), SerializeError);
}

TEST(SerializeEvent, OutOfDomainFieldThrows) {
  Context src;
  const ChannelId c = src.channel("v", {{Value::integer(1), Value::integer(2)}});
  ByteWriter w;
  encode_event(w, src, src.event(c, {Value::integer(2)}));
  // The destination's channel domain no longer contains 2 — the model
  // changed shape, so the cached artifact must be rejected, not coerced.
  Context dst;
  dst.channel("v", {{Value::integer(1)}});
  ByteReader r(w.bytes());
  EXPECT_THROW(decode_event(r, dst), SerializeError);
}

// --- LTS round trips ---------------------------------------------------------

/// Builds dst's channels to mirror src's tiny test alphabet.
void declare_alphabet(Context& ctx, int channels) {
  for (int i = 0; i < channels; ++i) ctx.channel("ch" + std::to_string(i));
}

TEST(SerializeLts, CompiledLtsRoundTripsIntoFreshContext) {
  Context src;
  const EventId a = src.event(src.channel("ch0"));
  const EventId b = src.event(src.channel("ch1"));
  src.define("P", [a, b](Context& cx, std::span<const Value>) {
    return cx.prefix(a, cx.prefix(b, cx.var("P")));
  });
  const CompactLts lts = compile_lts(src, src.var("P"));
  const auto blob = seal_lts(src, lts);

  Context dst;
  declare_alphabet(dst, 2);
  const CompactLts back = unseal_lts(blob, dst);
  ASSERT_EQ(back.state_count(), lts.state_count());
  EXPECT_EQ(back.root, lts.root);
  EXPECT_EQ(back.offsets, lts.offsets);
  EXPECT_EQ(back.targets, lts.targets);
  for (std::size_t k = 0; k < lts.transition_count(); ++k) {
    EXPECT_EQ(dst.event_name(back.global_event(back.events[k])),
              src.event_name(lts.global_event(lts.events[k])));
  }
}

TEST(SerializeLts, OmegaStatesSurvive) {
  Context src;
  const EventId a = src.event(src.channel("ch0"));
  const CompactLts lts = compile_lts(src, src.prefix(a, src.skip()));
  const auto blob = seal_lts(src, lts);
  Context dst;
  declare_alphabet(dst, 1);
  const CompactLts back = unseal_lts(blob, dst);
  ASSERT_EQ(back.state_count(), lts.state_count());
  bool saw_omega = false;
  for (StateId s = 0; s < lts.state_count(); ++s) {
    EXPECT_EQ(back.is_omega(s), lts.is_omega(s)) << "state " << s;
    EXPECT_EQ(back.is_post_tick(s), lts.is_post_tick(s)) << "state " << s;
    saw_omega = saw_omega || lts.is_omega(s);
  }
  EXPECT_TRUE(saw_omega);
}

TEST(SerializeLts, SealedBytesArePinned) {
  // The LTS tier's wire format, byte for byte: the event table in order of
  // first appearance, the state count and root, then per state its Omega
  // byte and (table index, target) row. Stores on disk are read with this
  // format at kStoreFormatVersion 3, so changing it means bumping the
  // version. The machine has TAU, TICK, an Omega state, a deadlock and a
  // channel with fields, and no state with two successors under one event
  // (their order would follow term addresses).
  Context ctx;
  const Value ok = Value::symbol(ctx.sym("ok"));
  const ChannelId c =
      ctx.channel("c", {{Value::integer(0), Value::integer(1)}, {ok}});
  const EventId c0 = ctx.event(c, {Value::integer(0), ok});
  const EventId c1 = ctx.event(c, {Value::integer(1), ok});
  // c.0.ok -> STOP [] c.1.ok -> (SKIP ; SKIP)
  const CompactLts lts = compile_lts(
      ctx, ctx.ext_choice(ctx.prefix(c0, ctx.stop()),
                          ctx.prefix(c1, ctx.seq(ctx.skip(), ctx.skip()))));
  const std::vector<std::uint8_t> pinned = {
      0x45, 0x43, 0x53, 0x50, 0x03, 0x01, 0x2b, 0x04, 0x02, 0x01, 0x63, 0x02,
      0x00, 0x00, 0x01, 0x02, 0x6f, 0x6b, 0x02, 0x01, 0x63, 0x02, 0x00, 0x02,
      0x01, 0x02, 0x6f, 0x6b, 0x00, 0x01, 0x05, 0x00, 0x00, 0x02, 0x00, 0x01,
      0x01, 0x02, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, 0x00, 0x01, 0x03, 0x04,
      0x01, 0x00, 0x6e, 0x94, 0x28, 0xfc, 0x5b, 0x46, 0x4d, 0x24, 0xa8, 0xfa,
      0x8c, 0x93, 0x27, 0x6e, 0x11, 0x50,
  };
  EXPECT_EQ(kStoreFormatVersion, 3u);
  EXPECT_EQ(seal_lts(ctx, lts), pinned);
  EXPECT_TRUE(unseal_lts(pinned, ctx) == lts);
}

TEST(SerializeLts, RandomisedRoundTripProperty) {
  // Seeded random machines straight through encode→decode; events live in
  // one shared Context so EventIds compare directly.
  std::mt19937_64 rng(20260805);
  Context ctx;
  std::vector<EventId> alphabet;
  for (int i = 0; i < 5; ++i) alphabet.push_back(ctx.event(ctx.channel("ch" + std::to_string(i))));

  for (int round = 0; round < 50; ++round) {
    const std::size_t states = 1 + rng() % 40;
    CompactBuilder b;
    for (std::size_t s = 0; s < states; ++s) {
      const bool omega = rng() % 4 == 0;
      const std::size_t degree = rng() % 5;
      for (std::size_t t = 0; t < degree; ++t) {
        b.edge(alphabet[rng() % alphabet.size()],
               static_cast<StateId>(rng() % states));
      }
      b.end_state(omega);
    }
    const CompactLts lts =
        std::move(b).finish(static_cast<StateId>(rng() % states));

    const auto blob = seal_lts(ctx, lts);
    EXPECT_TRUE(unseal_lts(blob, ctx) == lts) << "round " << round;

    // And the destructive side: truncations of this random artifact throw.
    for (std::size_t cut : {blob.size() / 3, blob.size() / 2, blob.size() - 1}) {
      EXPECT_THROW(
          unseal_lts(std::span<const std::uint8_t>(blob.data(), cut), ctx),
          SerializeError);
    }
  }
}

/// A payload of varints. Flags, tags and bytes below 128 encode as
/// themselves, and a string is its length and bytes: "ch0" is 3, 'c', 'h',
/// '0'.
std::vector<std::uint8_t> varints(std::initializer_list<std::uint64_t> vs) {
  ByteWriter w;
  for (const std::uint64_t v : vs) w.uv(v);
  return w.take();
}

TEST(SerializeLts, RejectsDanglingReferences) {
  // Payloads that survive the digest but violate the structural invariants:
  // decode must bound-check, not index blindly. The event table is {ch0};
  // two states, each (omega, degree, (event, target)*).
  Context ctx;
  ctx.channel("ch0");
  const auto decode = [&](std::uint64_t root, std::uint64_t event,
                          std::uint64_t target) {
    return unseal_lts(
        seal(ArtifactKind::Machine, varints({1, 2, 3, 'c', 'h', '0', 0, 2, root,
                                             0, 1, event, target, 0, 0})),
        ctx);
  };
  EXPECT_NO_THROW(decode(0, 0, 1));
  EXPECT_THROW(decode(0, 0, 7), SerializeError);  // transition target
  EXPECT_THROW(decode(9, 0, 1), SerializeError);  // root
  EXPECT_THROW(decode(0, 3, 1), SerializeError);  // event index
}

TEST(SerializeLts, OversizedCountsAreRejectedNotAllocated) {
  // Every count in a payload names elements of at least one byte each, so a
  // count beyond the bytes left is corrupt. It must decode to SerializeError
  // (a cache miss), never size an allocation into bad_alloc/length_error.
  Context ctx;
  ctx.channel("ch0");
  const auto lts = [&](std::initializer_list<std::uint64_t> vs) {
    return unseal_lts(seal(ArtifactKind::Machine, varints(vs)), ctx);
  };
  const auto verdict = [&](std::initializer_list<std::uint64_t> vs) {
    return unseal_check(seal(ArtifactKind::Verdict, varints(vs)), ctx);
  };
  for (const std::uint64_t huge :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    EXPECT_THROW(lts({huge}), SerializeError);              // event table
    EXPECT_THROW(lts({0, huge, 0}), SerializeError);        // states
    EXPECT_THROW(lts({0, 1, 0, 0, huge}), SerializeError);  // transitions
    // An event's fields, and the fields of a tuple value among them.
    EXPECT_THROW(lts({1, 2, 3, 'c', 'h', '0', huge}), SerializeError);
    EXPECT_THROW(lts({1, 2, 3, 'c', 'h', '0', 1, 2, huge}), SerializeError);
    // A counterexample's trace, and its acceptance set after event TAU.
    EXPECT_THROW(verdict({0, 0, 0, 1, 0, huge}), SerializeError);
    EXPECT_THROW(verdict({0, 0, 0, 1, 0, 0, 0, huge}), SerializeError);
  }
}

// --- verdict round trips -----------------------------------------------------

TEST(SerializeCheck, PassingVerdictRoundTrips) {
  Context ctx;
  CheckResult res;
  res.passed = true;
  res.stats = {.impl_states = 12,
               .impl_transitions = 30,
               .spec_states = 4,
               .spec_norm_nodes = 5,
               .product_states = 48};
  const CheckResult back = unseal_check(seal_check(ctx, res), ctx);
  EXPECT_TRUE(back.passed);
  EXPECT_FALSE(back.counterexample.has_value());
  EXPECT_EQ(back.stats.impl_states, 12u);
  EXPECT_EQ(back.stats.product_states, 48u);
  // from_cache is transient and must come back unset.
  EXPECT_FALSE(back.from_cache);
}

TEST(SerializeCheck, VacuousFlagRoundTrips) {
  // Format v2 carries the vacuity bit: a vacuous PASS must not come back
  // from the store looking like a meaningful one.
  Context ctx;
  CheckResult res;
  res.passed = true;
  res.vacuous = true;
  const CheckResult back = unseal_check(seal_check(ctx, res), ctx);
  EXPECT_TRUE(back.passed);
  EXPECT_TRUE(back.vacuous);

  res.vacuous = false;
  EXPECT_FALSE(unseal_check(seal_check(ctx, res), ctx).vacuous);
}

TEST(SerializeCheck, PrunedFlagRoundTrips) {
  // Format v3 carries the pruned bit: a verdict certified by the static
  // pruner keeps its provenance across the store.
  Context ctx;
  CheckResult res;
  res.passed = true;
  res.vacuous = true;
  res.pruned = true;
  const CheckResult back = unseal_check(seal_check(ctx, res), ctx);
  EXPECT_TRUE(back.passed);
  EXPECT_TRUE(back.vacuous);
  EXPECT_TRUE(back.pruned);

  res.pruned = false;
  EXPECT_FALSE(unseal_check(seal_check(ctx, res), ctx).pruned);
}

TEST(SerializeCheck, CounterexampleRoundTripsAcrossContexts) {
  // A real failing refinement, serialized and decoded into a fresh Context:
  // the rendered counterexample must be byte-identical.
  Context src;
  const EventId a = src.event(src.channel("a"));
  const EventId b = src.event(src.channel("b"));
  const ProcessRef spec = src.prefix(a, src.stop());
  const ProcessRef impl = src.prefix(a, src.prefix(b, src.stop()));
  const CheckResult res = check_refinement(src, spec, impl, Model::Traces);
  ASSERT_FALSE(res.passed);
  ASSERT_TRUE(res.counterexample.has_value());

  Context dst;
  dst.channel("a");
  dst.channel("b");
  const CheckResult back = unseal_check(seal_check(src, res), dst);
  ASSERT_TRUE(back.counterexample.has_value());
  EXPECT_EQ(back.passed, res.passed);
  EXPECT_EQ(back.counterexample->kind, res.counterexample->kind);
  EXPECT_EQ(back.counterexample->describe(dst),
            res.counterexample->describe(src));
  EXPECT_EQ(back.stats.impl_states, res.stats.impl_states);
}

TEST(SerializeCheck, RandomisedVerdictRoundTripProperty) {
  std::mt19937_64 rng(42);
  Context ctx;
  std::vector<EventId> alphabet;
  for (int i = 0; i < 4; ++i) alphabet.push_back(ctx.event(ctx.channel("e" + std::to_string(i))));

  for (int round = 0; round < 50; ++round) {
    CheckResult res;
    res.passed = rng() % 2 == 0;
    if (!res.passed) {
      Counterexample c;
      c.kind = static_cast<Counterexample::Kind>(
          rng() % (static_cast<unsigned>(Counterexample::Kind::Nondeterminism) + 1));
      const std::size_t len = rng() % 8;
      for (std::size_t i = 0; i < len; ++i) c.trace.push_back(alphabet[rng() % alphabet.size()]);
      c.event = alphabet[rng() % alphabet.size()];
      std::vector<EventId> acc;
      for (const EventId e : alphabet) {
        if (rng() % 2) acc.push_back(e);
      }
      c.impl_acceptance = EventSet(std::move(acc));
      res.counterexample = std::move(c);
    }
    res.stats.impl_states = rng() % 1000;
    res.stats.impl_transitions = rng() % 1000;
    res.stats.spec_states = rng() % 1000;
    res.stats.spec_norm_nodes = rng() % 1000;
    res.stats.product_states = rng() % 1000;

    const CheckResult back = unseal_check(seal_check(ctx, res), ctx);
    EXPECT_EQ(back.passed, res.passed);
    ASSERT_EQ(back.counterexample.has_value(), res.counterexample.has_value());
    if (res.counterexample) {
      EXPECT_EQ(back.counterexample->kind, res.counterexample->kind);
      EXPECT_EQ(back.counterexample->trace, res.counterexample->trace);
      EXPECT_EQ(back.counterexample->event, res.counterexample->event);
      EXPECT_EQ(back.counterexample->impl_acceptance,
                res.counterexample->impl_acceptance);
    }
    EXPECT_EQ(back.stats.impl_states, res.stats.impl_states);
    EXPECT_EQ(back.stats.product_states, res.stats.product_states);
  }
}

TEST(SerializeCheck, KindAndVersionAreEnforced) {
  Context ctx;
  CheckResult res;
  res.passed = true;
  const auto blob = seal_check(ctx, res);
  // A verdict blob fed to the LTS loader is rejected by the envelope.
  EXPECT_THROW(unseal_lts(blob, ctx), SerializeError);
}

}  // namespace
}  // namespace ecucsp::store
