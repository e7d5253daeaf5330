// Wire-protocol contract: every message round-trips every field in bytes
// pinned since format version 1, the frame reassembler survives arbitrary
// fragmentation and back-to-back messages, malformed input is a
// ProtocolError (never a guess), and the request digest keys on exactly the
// semantic inputs — the deadline is excluded by design.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace ecucsp;
using namespace ecucsp::serve;

namespace {

CheckRequest sample_request() {
  CheckRequest req;
  req.id = 0x0123456789abcdefull;
  req.assertion_index = 3;
  req.max_states = 1ull << 20;
  req.timeout_ms = 2500;
  req.sources = {"channel a\nP = a -> P\nassert P :[deadlock free [F]]\n",
                 "-- second script, with \"quotes\" and \\ backslashes\n"};
  return req;
}

CheckResponse sample_response() {
  CheckResponse resp;
  resp.id = 77;
  resp.status = ServeStatus::Failed;
  resp.vacuous = false;
  resp.from_cache = true;
  resp.coalesced = true;
  resp.memo_hit = false;
  resp.retry_after_ms = 0;
  resp.states = 12345;
  resp.transitions = 67890;
  resp.wall_ns = 5'000'000;
  resp.digest_hex = "0123456789abcdef0123456789abcdef";
  resp.counterexample = "SPEC [T= IMPL: <send.reqSw, rec.rptSw> then attack";
  resp.error = "";
  return resp;
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char* const digits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += digits[b >> 4];
    out += digits[b & 15];
  }
  return out;
}

// encode(sample_request()) and encode(sample_response()) as format version 1
// writes them.
constexpr const char* kRequestFrame =
    "ec0177000000ef9bafcdf8acd1910103808040c41302336368616e6e656c2061"
    "0a50203d2061202d3e20500a6173736572742050203a5b646561646c6f636b20"
    "66726565205b465d5d0a322d2d207365636f6e64207363726970742c20776974"
    "68202271756f7465732220616e64205c206261636b736c61736865730a";
constexpr const char* kResponseFrame =
    "ec02620000004d010600b960b29204c096b10220303132333435363738396162"
    "63646566303132333435363738396162636465663253504543205b543d20494d"
    "504c3a203c73656e642e72657153772c207265632e72707453773e207468656e"
    "2061747461636b00";

Msg decode_one(const std::vector<std::uint8_t>& bytes) {
  FrameBuffer fb;
  fb.feed(bytes.data(), bytes.size());
  auto msg = fb.next();
  EXPECT_TRUE(msg.has_value());
  EXPECT_FALSE(fb.next().has_value());
  return std::move(*msg);
}

TEST(ServeProtocolTest, BinaryRequestRoundTrip) {
  const CheckRequest req = sample_request();
  const Msg msg = decode_one(encode(req));
  EXPECT_EQ(msg.type, MsgType::CheckRequest);
  EXPECT_EQ(msg.check.id, req.id);
  EXPECT_EQ(msg.check.assertion_index, req.assertion_index);
  EXPECT_EQ(msg.check.max_states, req.max_states);
  EXPECT_EQ(msg.check.timeout_ms, req.timeout_ms);
  EXPECT_EQ(msg.check.sources, req.sources);

  // The frame bytes are the wire format: any change must bump
  // kServeFormatVersion.
  EXPECT_EQ(hex(encode(req)), kRequestFrame);
  EXPECT_EQ(hex(encode(sample_response())), kResponseFrame);
}

TEST(ServeProtocolTest, ResponseRoundTripBothFramings) {
  const CheckResponse resp = sample_response();
  const Msg msg = decode_one(encode(resp));
  EXPECT_EQ(msg.type, MsgType::CheckResponse);
  EXPECT_EQ(msg.response.id, resp.id);
  EXPECT_EQ(msg.response.status, resp.status);
  EXPECT_EQ(msg.response.from_cache, resp.from_cache);
  EXPECT_EQ(msg.response.coalesced, resp.coalesced);
  EXPECT_EQ(msg.response.memo_hit, resp.memo_hit);
  EXPECT_EQ(msg.response.states, resp.states);
  EXPECT_EQ(msg.response.transitions, resp.transitions);
  EXPECT_EQ(msg.response.digest_hex, resp.digest_hex);
  EXPECT_EQ(msg.response.counterexample, resp.counterexample);
  // The byte-identity surface survives the wire.
  EXPECT_EQ(msg.response.verdict_block(), resp.verdict_block());
}

TEST(ServeProtocolTest, ControlMessagesRoundTrip) {
  EXPECT_EQ(decode_one(encode_ping()).type, MsgType::Ping);
  EXPECT_EQ(decode_one(encode_pong()).type, MsgType::Pong);
  EXPECT_EQ(decode_one(encode_stats_request()).type, MsgType::StatsRequest);
  const Msg stats = decode_one(encode_stats_response("{\"serve_format\":1}"));
  EXPECT_EQ(stats.type, MsgType::StatsResponse);
  EXPECT_EQ(stats.stats_json, "{\"serve_format\":1}");
}

TEST(ServeProtocolTest, FrameBufferReassemblesByteByByte) {
  const std::vector<std::uint8_t> bytes = encode(sample_request());
  FrameBuffer fb;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    fb.feed(&bytes[i], 1);
    EXPECT_FALSE(fb.next().has_value()) << "complete at byte " << i;
  }
  fb.feed(&bytes.back(), 1);
  auto msg = fb.next();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->check.sources, sample_request().sources);
}

TEST(ServeProtocolTest, FramingsInterleaveOnOneStream) {
  std::vector<std::uint8_t> stream;
  const auto append = [&stream](const std::vector<std::uint8_t>& b) {
    stream.insert(stream.end(), b.begin(), b.end());
  };
  append(encode(sample_request()));
  append(encode_ping());
  append(encode(sample_response()));
  append(encode_pong());

  FrameBuffer fb;
  fb.feed(stream.data(), stream.size());
  auto m1 = fb.next();
  ASSERT_TRUE(m1 && m1->type == MsgType::CheckRequest);
  auto m2 = fb.next();
  ASSERT_TRUE(m2 && m2->type == MsgType::Ping);
  auto m3 = fb.next();
  ASSERT_TRUE(m3 && m3->type == MsgType::CheckResponse);
  auto m4 = fb.next();
  ASSERT_TRUE(m4 && m4->type == MsgType::Pong);
  EXPECT_FALSE(fb.next().has_value());
}

TEST(ServeProtocolTest, GarbageIsAProtocolError) {
  // Any first byte other than 0xEC, including a JSON line, a lone '{' and a
  // long run of newlines, is rejected at once: nothing is buffered for it.
  const std::string inputs[] = {
      std::string("\x00\x01\x02", 3),
      std::string(65536, '\n'),
      "{\"op\":\"ping\"}\n",
      "{",
  };
  for (const std::string& input : inputs) {
    FrameBuffer fb;
    fb.feed(input.data(), input.size());
    EXPECT_THROW(fb.next(), ProtocolError) << input.size() << " bytes";
  }
}

TEST(ServeProtocolTest, OversizedFrameIsRejectedWithoutAllocating) {
  FrameBuffer fb(/*max_frame=*/64);
  // A binary header claiming a 16 MiB payload must be rejected from the
  // six header bytes alone.
  const std::uint8_t header[] = {0xEC, 0x01, 0x00, 0x00, 0x00, 0x01};
  fb.feed(header, sizeof header);
  EXPECT_THROW(fb.next(), ProtocolError);
}

TEST(ServeProtocolTest, MalformedJsonLineIsAProtocolError) {
  FrameBuffer fb;
  const std::string line = "{\"op\":\"check\", busted\n";
  fb.feed(line.data(), line.size());
  EXPECT_THROW(fb.next(), ProtocolError);
}

TEST(ServeProtocolTest, RequestDigestKeysOnSemanticInputsOnly) {
  const CheckRequest base = sample_request();
  const store::Digest d0 = request_digest(base);

  // Same semantics, different correlation id / deadline: same flight.
  CheckRequest same = base;
  same.id = 999;
  same.timeout_ms = 1;
  EXPECT_EQ(request_digest(same), d0);

  CheckRequest other_index = base;
  other_index.assertion_index += 1;
  EXPECT_NE(request_digest(other_index), d0);

  CheckRequest other_budget = base;
  other_budget.max_states /= 2;
  EXPECT_NE(request_digest(other_budget), d0);

  CheckRequest other_source = base;
  other_source.sources[0] += " ";
  EXPECT_NE(request_digest(other_source), d0);

  // Source *boundaries* matter: ["ab"] and ["a","b"] are different loads.
  CheckRequest split = base;
  split.sources = {base.sources[0] + base.sources[1]};
  EXPECT_NE(request_digest(split), d0);
}

TEST(ServeProtocolTest, VerdictBlockExcludesTransportFields) {
  CheckResponse a = sample_response();
  CheckResponse b = a;
  b.id = 1;
  b.wall_ns = 42;
  b.from_cache = !a.from_cache;
  b.coalesced = !a.coalesced;
  b.memo_hit = !a.memo_hit;
  EXPECT_EQ(a.verdict_block(), b.verdict_block());

  CheckResponse c = a;
  c.counterexample += "!";
  EXPECT_NE(a.verdict_block(), c.verdict_block());
  CheckResponse d = a;
  d.status = ServeStatus::Passed;
  EXPECT_NE(a.verdict_block(), d.verdict_block());
  CheckResponse e = a;
  e.vacuous = !a.vacuous;
  EXPECT_NE(a.verdict_block(), e.verdict_block());
}

}  // namespace
