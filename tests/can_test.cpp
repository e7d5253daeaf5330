#include <gtest/gtest.h>

#include "can/asc.hpp"
#include "can/bus.hpp"
#include "can/dbc.hpp"
#include "can/frame.hpp"
#include "can/signal.hpp"

namespace ecucsp::can {
namespace {

// --- frames -----------------------------------------------------------------

TEST(CanFrame, ByteAccessorsAreBoundsSafe) {
  CanFrame f;
  f.set_byte(0, 0xAB);
  f.set_byte(7, 0xCD);
  f.set_byte(12, 0xFF);  // ignored
  EXPECT_EQ(f.byte(0), 0xAB);
  EXPECT_EQ(f.byte(7), 0xCD);
  EXPECT_EQ(f.byte(12), 0);
}

TEST(CanFrame, ArbitrationLowerIdWins) {
  CanFrame hi;
  hi.id = 0x100;
  CanFrame lo;
  lo.id = 0x0FF;
  EXPECT_TRUE(lo.wins_arbitration_over(hi));
  EXPECT_FALSE(hi.wins_arbitration_over(lo));
}

TEST(CanFrame, StandardBeatsExtendedAtSameId) {
  CanFrame std_frame;
  std_frame.id = 0x100;
  CanFrame ext_frame;
  ext_frame.id = 0x100;
  ext_frame.extended = true;
  EXPECT_TRUE(std_frame.wins_arbitration_over(ext_frame));
}

TEST(CanFrame, ToStringShowsIdDlcAndPayload) {
  CanFrame f;
  f.id = 0x1A0;
  f.dlc = 2;
  f.set_byte(0, 0x01);
  f.set_byte(1, 0xFE);
  EXPECT_EQ(f.to_string(), "0x1A0 [2] 01 FE");
}

// --- signal codec ------------------------------------------------------------

TEST(Signal, IntelRoundTrip) {
  SignalSpec spec;
  spec.name = "speed";
  spec.start_bit = 8;
  spec.length = 12;
  spec.byte_order = ByteOrder::Intel;
  std::array<std::uint8_t, 8> data{};
  encode_raw(data, spec, 0xABC);
  EXPECT_EQ(decode_raw(data, spec), 0xABCu);
  // Bits outside the signal untouched.
  EXPECT_EQ(data[0], 0);
}

TEST(Signal, MotorolaRoundTrip) {
  SignalSpec spec;
  spec.name = "rpm";
  spec.start_bit = 7;  // MSB of byte 0
  spec.length = 16;
  spec.byte_order = ByteOrder::Motorola;
  std::array<std::uint8_t, 8> data{};
  encode_raw(data, spec, 0x1234);
  EXPECT_EQ(decode_raw(data, spec), 0x1234u);
  EXPECT_EQ(data[0], 0x12);
  EXPECT_EQ(data[1], 0x34);
}

TEST(Signal, PhysicalScaling) {
  SignalSpec spec;
  spec.name = "temp";
  spec.start_bit = 0;
  spec.length = 8;
  spec.factor = 0.5;
  spec.offset = -40.0;
  std::array<std::uint8_t, 8> data{};
  encode_physical(data, spec, 25.0);  // raw = (25+40)/0.5 = 130
  EXPECT_EQ(decode_raw(data, spec), 130u);
  EXPECT_DOUBLE_EQ(decode_physical(data, spec), 25.0);
}

TEST(Signal, SignedDecodingSignExtends) {
  SignalSpec spec;
  spec.name = "delta";
  spec.start_bit = 0;
  spec.length = 8;
  spec.is_signed = true;
  std::array<std::uint8_t, 8> data{};
  encode_physical(data, spec, -5.0);
  EXPECT_DOUBLE_EQ(decode_physical(data, spec), -5.0);
}

TEST(Signal, EncodeMasksOverlongValues) {
  SignalSpec spec;
  spec.name = "nibble";
  spec.start_bit = 0;
  spec.length = 4;
  std::array<std::uint8_t, 8> data{};
  encode_raw(data, spec, 0xFF);
  EXPECT_EQ(decode_raw(data, spec), 0xFu);
}

TEST(Signal, OutOfPayloadThrows) {
  SignalSpec spec;
  spec.name = "bad";
  spec.start_bit = 60;
  spec.length = 8;
  std::array<std::uint8_t, 8> data{};
  EXPECT_THROW(decode_raw(data, spec), std::out_of_range);
}

TEST(Signal, ZeroLengthRejected) {
  SignalSpec spec;
  spec.length = 0;
  std::array<std::uint8_t, 8> data{};
  EXPECT_THROW(decode_raw(data, spec), std::invalid_argument);
}

class SignalSweep : public ::testing::TestWithParam<int> {};

TEST_P(SignalSweep, RoundTripAtEveryStartBitIntel) {
  SignalSpec spec;
  spec.name = "s";
  spec.start_bit = static_cast<std::uint16_t>(GetParam());
  spec.length = 8;
  spec.byte_order = ByteOrder::Intel;
  std::array<std::uint8_t, 8> data{};
  for (std::uint64_t v : {0ULL, 1ULL, 0x55ULL, 0xAAULL, 0xFFULL}) {
    encode_raw(data, spec, v);
    EXPECT_EQ(decode_raw(data, spec), v) << "start=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(StartBits, SignalSweep, ::testing::Range(0, 57));

// --- dbc parsing --------------------------------------------------------------

constexpr const char* kDemoDbc = R"(VERSION "1.0"

BU_: VMG TargetECU

BO_ 256 SwInventoryReq: 2 VMG
 SG_ ReqType : 0|8@1+ (1,0) [0|255] "" TargetECU
 SG_ SessionId : 8|8@1+ (1,0) [0|255] "" TargetECU

BO_ 257 SwReport: 4 TargetECU
 SG_ Status : 0|8@1+ (1,0) [0|3] "" VMG
 SG_ SwVersion : 8|16@1+ (1,0) [0|65535] "" VMG

VAL_ 257 Status 0 "ok" 1 "updating" 2 "failed" ;
CM_ BO_ 257 "Software diagnosis report";
CM_ SG_ 257 Status "Result of software diagnosis";
)";

TEST(Dbc, ParsesVersionNodesAndMessages) {
  const DbcDatabase db = parse_dbc(kDemoDbc);
  EXPECT_EQ(db.version, "1.0");
  EXPECT_EQ(db.nodes, (std::vector<std::string>{"VMG", "TargetECU"}));
  ASSERT_EQ(db.messages.size(), 2u);
  EXPECT_EQ(db.messages[0].name, "SwInventoryReq");
  EXPECT_EQ(db.messages[0].id, 256u);
  EXPECT_EQ(db.messages[0].dlc, 2u);
  EXPECT_EQ(db.messages[0].sender, "VMG");
}

TEST(Dbc, ParsesSignals) {
  const DbcDatabase db = parse_dbc(kDemoDbc);
  const DbcMessage* m = db.find_message("SwReport");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->signals.size(), 2u);
  const DbcSignal* v = m->find_signal("SwVersion");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->spec.start_bit, 8u);
  EXPECT_EQ(v->spec.length, 16u);
  EXPECT_EQ(v->spec.byte_order, ByteOrder::Intel);
  EXPECT_FALSE(v->spec.is_signed);
  EXPECT_EQ(v->receivers, (std::vector<std::string>{"VMG"}));
}

TEST(Dbc, ParsesValueTables) {
  const DbcDatabase db = parse_dbc(kDemoDbc);
  const DbcSignal* s = db.find_message("SwReport")->find_signal("Status");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->value_table.size(), 3u);
  EXPECT_EQ(s->value_table.at(2), "failed");
}

TEST(Dbc, ParsesComments) {
  const DbcDatabase db = parse_dbc(kDemoDbc);
  EXPECT_EQ(db.find_message("SwReport")->comment,
            "Software diagnosis report");
  EXPECT_EQ(db.find_message("SwReport")->find_signal("Status")->comment,
            "Result of software diagnosis");
}

TEST(Dbc, FindByIdAndName) {
  const DbcDatabase db = parse_dbc(kDemoDbc);
  EXPECT_EQ(db.find_message(256u), db.find_message("SwInventoryReq"));
  EXPECT_EQ(db.find_message(999u), nullptr);
  EXPECT_EQ(db.find_message("nope"), nullptr);
}

TEST(Dbc, ExtendedIdBitIsStripped) {
  const DbcDatabase db = parse_dbc(
      "BO_ 2566844672 BigMsg: 8 N\n");  // 0x99000100 with bit31 set
  ASSERT_EQ(db.messages.size(), 1u);
  EXPECT_EQ(db.messages[0].id, 2566844672u & MAX_EXTENDED_ID);
}

TEST(Dbc, SignalOutsideMessageThrows) {
  EXPECT_THROW(parse_dbc("SG_ S : 0|8@1+ (1,0) [0|255] \"\" N\n"),
               DbcParseError);
}

TEST(Dbc, MalformedSignalThrows) {
  EXPECT_THROW(parse_dbc("BO_ 10 M: 8 N\n SG_ S : xx\n"), DbcParseError);
}

/// The DbcParseError `text` raises, or a failure naming what else happened.
::testing::AssertionResult rejects_at(const std::string& text, int line,
                                      const std::string& message) {
  try {
    (void)parse_dbc(text);
  } catch (const DbcParseError& e) {
    if (e.line != line) {
      return ::testing::AssertionFailure()
             << "line " << e.line << ": " << e.what();
    }
    if (std::string(e.what()).find(message) == std::string::npos) {
      return ::testing::AssertionFailure() << e.what();
    }
    return ::testing::AssertionSuccess();
  } catch (const std::exception& e) {
    return ::testing::AssertionFailure() << "untyped error: " << e.what();
  }
  return ::testing::AssertionFailure() << "accepted";
}

TEST(Dbc, IntegersAreCheckedBeforeNarrowing) {
  // Narrowed unchecked, each of these would wrap or truncate into a
  // plausible field value.
  EXPECT_TRUE(
      rejects_at("BO_ 256 M: 264 VMG\n", 1, "dlc 264 is out of range 0..8"));
  EXPECT_TRUE(rejects_at("BO_ 256 M: 9 VMG\n", 1, "dlc 9 is out of range"));
  EXPECT_TRUE(rejects_at("BO_ 256 M: -1 VMG\n", 1, "dlc -1 is out of range"));
  EXPECT_TRUE(rejects_at(
      "BO_ 256 M: 8 VMG\n SG_ S : 65544|8@1+ (1,0) [0|255] \"\" VMG\n", 2,
      "start bit 65544 is out of range 0..65535"));
  EXPECT_TRUE(rejects_at(
      "BO_ 256 M: 8 VMG\n SG_ S : 0|65536@1+ (1,0) [0|255] \"\" VMG\n", 2,
      "length 65536 is out of range"));
  EXPECT_TRUE(rejects_at(
      "BO_ 256 M: 8 VMG\n SG_ S : 0|8@2+ (1,0) [0|255] \"\" VMG\n", 2,
      "byte order 2 is out of range 0..1"));
  EXPECT_TRUE(rejects_at("BO_ 4294967296 M: 8 VMG\n", 1,
                         "message id 4294967296 is out of range"));
  // Beyond int64 entirely: no undefined double-to-integer conversion.
  EXPECT_TRUE(rejects_at("BO_ 99999999999999999999 M: 8 VMG\n", 1,
                         "message id 99999999999999999999 is out of range"));
  EXPECT_TRUE(rejects_at(
      "BO_ 256 M: 8 VMG\n SG_ S : 0|8@1+ (1,0) [0|255] \"\" VMG\n"
      "VAL_ 256 S 99999999999999999999 \"x\" ;\n",
      3, "value 99999999999999999999 is out of range"));
  EXPECT_TRUE(rejects_at("BO_ 256 M: 8 VMG\nCM_ BO_ -5 \"c\";\n", 2,
                         "message id -5 is out of range"));
}

TEST(Dbc, IntegersMustBeWholeDecimalTokens) {
  EXPECT_TRUE(rejects_at("BO_ 2.5 M: 8 VMG\n", 1,
                         "message id 2.5 is not an integer"));
  EXPECT_TRUE(
      rejects_at("BO_ 256 M: 8e0 VMG\n", 1, "dlc 8e0 is not an integer"));
  EXPECT_TRUE(
      rejects_at("BO_ - M: 8 VMG\n", 1, "message id - is not an integer"));
  // 1e999 overflows a double: a typed error on its line, not a bare
  // std::out_of_range from the conversion.
  EXPECT_TRUE(rejects_at("\nBO_ 1e999 M: 8 VMG\n", 2,
                         "message id 1e999 is not an integer"));
  EXPECT_TRUE(rejects_at(
      "BO_ 256 M: 8 VMG\n SG_ S : 0|8@1+ (1e999,0) [0|255] \"\" VMG\n", 2,
      "1e999 is out of range"));
  EXPECT_TRUE(rejects_at(
      "BO_ 256 M: 8 VMG\n SG_ S : 0|8@1+ (1.2.3,0) [0|255] \"\" VMG\n", 2,
      "1.2.3 is not a number"));
}

TEST(Dbc, ValueTablesAreReadWhateverTheyName) {
  // The pairs are checked before the lookup: a malformed value is an error
  // even when no message or signal matches the VAL_ line.
  const std::string dbc =
      "BO_ 260 M: 8 VMG\n SG_ S : 0|8@1+ (1,0) [0|255] \"\" VMG\n";
  EXPECT_TRUE(rejects_at(dbc + "VAL_ 999 S 1e999 \"x\" ;\n", 3,
                         "value 1e999 is not an integer"));
  EXPECT_TRUE(rejects_at(dbc + "VAL_ 260 T 2.5 \"y\" ;\n", 3,
                         "value 2.5 is not an integer"));
  // A well-formed table for an unknown message is still dropped quietly.
  const DbcDatabase db = parse_dbc(dbc + "VAL_ 999 S 1 \"on\" 0 \"off\" ;\n");
  EXPECT_TRUE(db.find_message("M")->find_signal("S")->value_table.empty());
}

TEST(Dbc, NumbersAtTheirBoundsParse) {
  const DbcDatabase db = parse_dbc(
      "BO_ 4294967295 M: 0 VMG\n"
      " SG_ S : 65535|65535@0- (+1.5,-2e3) [-1e3|+255] \"\" VMG\n"
      "VAL_ 4294967295 S -9223372036854775808 \"lo\" "
      "9223372036854775807 \"hi\" ;\n");
  ASSERT_EQ(db.messages.size(), 1u);
  const DbcMessage& m = db.messages[0];
  EXPECT_EQ(m.id, 0xFFFFFFFFu & MAX_EXTENDED_ID);
  EXPECT_EQ(m.dlc, 0u);
  ASSERT_EQ(m.signals.size(), 1u);
  const SignalSpec& spec = m.signals[0].spec;
  EXPECT_EQ(spec.start_bit, 65535u);
  EXPECT_EQ(spec.length, 65535u);
  EXPECT_EQ(spec.byte_order, ByteOrder::Motorola);
  EXPECT_TRUE(spec.is_signed);
  EXPECT_EQ(spec.factor, 1.5);
  EXPECT_EQ(spec.offset, -2000.0);
  EXPECT_EQ(spec.minimum, -1000.0);
  EXPECT_EQ(spec.maximum, 255.0);
  const auto& table = m.signals[0].value_table;
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table.begin()->first, INT64_MIN);
  EXPECT_EQ(table.rbegin()->first, INT64_MAX);
}

TEST(Dbc, UnknownRecordsAreTolerated) {
  const DbcDatabase db = parse_dbc(
      "NS_:\n BA_DEF_\nBS_:\nBO_ 5 M: 8 N\n");
  EXPECT_EQ(db.messages.size(), 1u);
}

TEST(Dbc, SignalCodecIntegration) {
  const DbcDatabase db = parse_dbc(kDemoDbc);
  const DbcSignal* v = db.find_message("SwReport")->find_signal("SwVersion");
  CanFrame f;
  f.id = 257;
  encode_physical(f.data, v->spec, 0x0203);
  EXPECT_EQ(f.byte(1), 0x03);
  EXPECT_EQ(f.byte(2), 0x02);
  EXPECT_DOUBLE_EQ(decode_physical(f.data, v->spec), double(0x0203));
}

// --- bus ------------------------------------------------------------------------

TEST(CanBus, DeliversToAllListeners) {
  CanBus bus;
  int count = 0;
  bus.add_listener([&](const CanFrame&, int) { ++count; });
  bus.add_listener([&](const CanFrame&, int) { ++count; });
  CanFrame f;
  f.id = 0x10;
  bus.transmit(f, 0);
  EXPECT_TRUE(bus.deliver_one(100));
  EXPECT_EQ(count, 2);
}

TEST(CanBus, ArbitrationPicksLowestId) {
  CanBus bus;
  std::vector<CanId> delivered;
  bus.add_listener([&](const CanFrame& f, int) { delivered.push_back(f.id); });
  CanFrame a;
  a.id = 0x300;
  CanFrame b;
  b.id = 0x100;
  CanFrame c;
  c.id = 0x200;
  bus.transmit(a, 0);
  bus.transmit(b, 0);
  bus.transmit(c, 0);
  while (bus.deliver_one(0)) {
  }
  EXPECT_EQ(delivered, (std::vector<CanId>{0x100, 0x200, 0x300}));
}

TEST(CanBus, FifoTiebreakOnEqualIds) {
  CanBus bus;
  std::vector<std::uint8_t> order;
  bus.add_listener([&](const CanFrame& f, int) { order.push_back(f.byte(0)); });
  for (std::uint8_t i = 1; i <= 3; ++i) {
    CanFrame f;
    f.id = 0x55;
    f.set_byte(0, i);
    bus.transmit(f, 0);
  }
  while (bus.deliver_one(0)) {
  }
  EXPECT_EQ(order, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(CanBus, TraceRecordsTimestampedFrames) {
  CanBus bus;
  CanFrame f;
  f.id = 0x42;
  bus.transmit(f, 0);
  bus.deliver_one(12345);
  ASSERT_EQ(bus.trace().size(), 1u);
  EXPECT_EQ(bus.trace()[0].timestamp_us, 12345u);
}

TEST(CanBus, IdleWhenDrained) {
  CanBus bus;
  EXPECT_TRUE(bus.idle());
  CanFrame f;
  bus.transmit(f, 0);
  EXPECT_FALSE(bus.idle());
  bus.deliver_one(0);
  EXPECT_TRUE(bus.idle());
}


// --- ASC measurement logs ------------------------------------------------------

TEST(Asc, WritesHeaderAndRecords) {
  CanFrame f;
  f.id = 0x1A0;
  f.dlc = 2;
  f.set_byte(0, 0xAB);
  f.set_byte(1, 0x01);
  f.timestamp_us = 1230;
  const std::string log = write_asc({f});
  EXPECT_NE(log.find("base hex"), std::string::npos);
  EXPECT_NE(log.find("Begin TriggerBlock"), std::string::npos);
  EXPECT_NE(log.find("0.001230"), std::string::npos);
  EXPECT_NE(log.find("1A0"), std::string::npos);
  EXPECT_NE(log.find("AB 01"), std::string::npos);
}

TEST(Asc, RoundTripsFrames) {
  std::vector<CanFrame> frames;
  for (int i = 0; i < 5; ++i) {
    CanFrame f;
    f.id = static_cast<CanId>(0x100 + i);
    f.dlc = static_cast<std::uint8_t>(i);
    for (int b = 0; b < i; ++b) f.set_byte(b, static_cast<std::uint8_t>(b * 3));
    f.timestamp_us = static_cast<std::uint64_t>(i) * 100;
    frames.push_back(f);
  }
  const std::vector<CanFrame> back = parse_asc(write_asc(frames));
  ASSERT_EQ(back.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(back[i].id, frames[i].id);
    EXPECT_EQ(back[i].dlc, frames[i].dlc);
    EXPECT_EQ(back[i].data, frames[i].data);
    EXPECT_EQ(back[i].timestamp_us, frames[i].timestamp_us);
  }
}

TEST(Asc, ExtendedIdsKeepTheSuffix) {
  CanFrame f;
  f.id = 0x18DAF110;
  f.extended = true;
  f.dlc = 0;
  const std::string log = write_asc({f});
  EXPECT_NE(log.find("18DAF110x"), std::string::npos);
  const auto back = parse_asc(log);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_TRUE(back[0].extended);
  EXPECT_EQ(back[0].id, 0x18DAF110u);
}

TEST(Asc, SkipsHeaderLinesAndRejectsGarbageRecords) {
  EXPECT_TRUE(parse_asc("date something\nno frames here\n").empty());
  EXPECT_THROW(parse_asc("   0.1 1 100 Rx d 99 00\n"), AscParseError);
  EXPECT_THROW(parse_asc("   0.1 1 100 Rx d 4 00\n"), AscParseError);
}

}  // namespace
}  // namespace ecucsp::can
