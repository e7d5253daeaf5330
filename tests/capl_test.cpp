#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "capl/interp.hpp"
#include "capl/lexer.hpp"
#include "capl/parser.hpp"

namespace ecucsp::capl {
namespace {

// --- parsing ------------------------------------------------------------------

TEST(CaplParser, FourBlockKinds) {
  const CaplProgram p = parse_capl(R"(
    includes { "common.cin" }
    variables {
      message 0x100 msgReq;
      int counter = 0;
    }
    on start { output(msgReq); }
    void helper(int x) { counter = x; }
  )");
  EXPECT_EQ(p.includes, (std::vector<std::string>{"common.cin"}));
  ASSERT_EQ(p.variables.size(), 2u);
  EXPECT_EQ(p.variables[0].msg_id, 0x100);
  ASSERT_EQ(p.handlers.size(), 1u);
  EXPECT_EQ(p.handlers[0].kind, EventHandler::Kind::Start);
  ASSERT_EQ(p.functions.size(), 1u);
  EXPECT_EQ(p.functions[0].params.size(), 1u);
}

TEST(CaplParser, OnMessageVariants) {
  const CaplProgram p = parse_capl(R"(
    on message 0x200 { }
    on message SwReport { }
    on message * { }
  )");
  ASSERT_EQ(p.handlers.size(), 3u);
  EXPECT_EQ(p.handlers[0].msg_id, 0x200);
  EXPECT_EQ(p.handlers[1].target, "SwReport");
  EXPECT_TRUE(p.handlers[2].any_message);
}

TEST(CaplParser, OnTimerAndOnKey) {
  const CaplProgram p = parse_capl(R"(
    on timer tRetry { }
    on key 'a' { }
  )");
  ASSERT_EQ(p.handlers.size(), 2u);
  EXPECT_EQ(p.handlers[0].kind, EventHandler::Kind::Timer);
  EXPECT_EQ(p.handlers[0].target, "tRetry");
  EXPECT_EQ(p.handlers[1].kind, EventHandler::Kind::Key);
  EXPECT_EQ(p.handlers[1].target, "a");
}

TEST(CaplParser, HexAndDecimalNumbers) {
  const CaplProgram p = parse_capl("variables { int a = 0x1F; int b = 31; }");
  ASSERT_EQ(p.variables.size(), 2u);
  EXPECT_EQ(p.variables[0].init->number, 31);
  EXPECT_EQ(p.variables[1].init->number, 31);
}

TEST(CaplParser, ControlFlowStatements) {
  const CaplProgram p = parse_capl(R"(
    void f(int n) {
      int total = 0;
      for (int i = 0; i < n; i++) {
        if (i % 2 == 0) { total += i; } else { total -= 1; }
      }
      while (total > 100) { total = total / 2; break; }
      return;
    }
  )");
  ASSERT_EQ(p.functions.size(), 1u);
}

TEST(CaplParser, ThisByteAccess) {
  const CaplProgram p = parse_capl(
      "on message 0x1 { int x; x = this.byte(0) + this.word(2); }");
  ASSERT_EQ(p.handlers.size(), 1u);
}

TEST(CaplParser, ErrorsHaveLocations) {
  try {
    parse_capl("on start {\n  output(;\n}");
    FAIL() << "expected CaplError";
  } catch (const CaplError& e) {
    EXPECT_EQ(e.line, 2);
  }
}

TEST(CaplParser, IntegerLiteralsOutOfRangeAreErrorsAtTheLiteral) {
  EXPECT_EQ(lex("0x7FFFFFFFFFFFFFFF 9223372036854775807")[1].number,
            INT64_MAX);
  EXPECT_EQ(lex("0XfF")[0].number, 255);
  const std::pair<const char*, const char*> bad[] = {
      {"on start {\n  x = 99999999999999999999; }", "out of range"},
      {"on start {\n  x = 0x10000000000000000; }", "out of range"},
      {"on start {\n  x = 0x; }", "malformed integer literal"},
  };
  for (const auto& [source, why] : bad) {
    try {
      parse_capl(source);
      ADD_FAILURE() << "expected CaplError: " << source;
    } catch (const CaplError& e) {
      EXPECT_EQ(e.line, 2) << source;
      EXPECT_EQ(e.column, 7) << source;
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << source;
    }
  }
}

TEST(CaplParser, MissingSemicolonRejected) {
  EXPECT_THROW(parse_capl("on start { int x = 1 }"), CaplError);
}

// --- interpretation --------------------------------------------------------------

CaplProgram g_prog;  // keep-alive storage for nodes in each test

CaplNode make_node(const std::string& src, const can::DbcDatabase* db = nullptr) {
  g_prog = parse_capl(src);
  return CaplNode("dut", g_prog, db);
}

TEST(CaplInterp, GlobalInitialisers) {
  auto node = make_node("variables { int a = 2 + 3 * 4; int b = a; }");
  EXPECT_EQ(node.global("a")->i, 14);
  EXPECT_EQ(node.global("b")->i, 14);
}

TEST(CaplInterp, FunctionsComputeValues) {
  auto node = make_node(R"(
    int square(int x) { return x * x; }
    int sum(int n) {
      int total = 0;
      for (int i = 1; i <= n; i++) { total += i; }
      return total;
    }
  )");
  EXPECT_EQ(node.call_function("square", {RtValue::of_int(9)}).i, 81);
  EXPECT_EQ(node.call_function("sum", {RtValue::of_int(10)}).i, 55);
}

TEST(CaplInterp, WhileAndBreak) {
  auto node = make_node(R"(
    int firstPow2Above(int n) {
      int p = 1;
      while (1) {
        if (p > n) { break; }
        p = p * 2;
      }
      return p;
    }
  )");
  EXPECT_EQ(node.call_function("firstPow2Above", {RtValue::of_int(100)}).i, 128);
}

TEST(CaplInterp, BitOperations) {
  auto node = make_node(
      "int mix(int a, int b) { return ((a << 4) | (b & 0xF)) ^ 0xFF; }");
  EXPECT_EQ(node.call_function("mix", {RtValue::of_int(0xA), RtValue::of_int(0x5)}).i,
            (0xA5 ^ 0xFF));
}

TEST(CaplInterp, OnStartOutputsMessage) {
  sim::Environment env;
  auto node = make_node(R"(
    variables { message 0x321 msgHello; }
    on start {
      msgHello.byte(0) = 0xAB;
      msgHello.dlc = 1;
      output(msgHello);
    }
  )");
  env.attach(node);
  env.run();
  ASSERT_EQ(env.bus().trace().size(), 1u);
  EXPECT_EQ(env.bus().trace()[0].id, 0x321u);
  EXPECT_EQ(env.bus().trace()[0].byte(0), 0xAB);
  EXPECT_EQ(env.bus().trace()[0].dlc, 1);
}

TEST(CaplInterp, MessageHandlerRepliesAndThisWorks) {
  sim::Environment env;
  auto vmg = make_node(R"(
    variables { message 0x100 msgReq; }
    on start { msgReq.byte(0) = 7; output(msgReq); }
  )");
  static CaplProgram ecu_prog;
  ecu_prog = parse_capl(R"(
    variables { message 0x101 msgRsp; }
    on message 0x100 {
      msgRsp.byte(0) = this.byte(0) + 1;
      output(msgRsp);
    }
  )");
  CaplNode ecu("ecu", ecu_prog);
  env.attach(vmg);
  env.attach(ecu);
  env.run();
  ASSERT_EQ(env.bus().trace().size(), 2u);
  EXPECT_EQ(env.bus().trace()[1].id, 0x101u);
  EXPECT_EQ(env.bus().trace()[1].byte(0), 8);
}

TEST(CaplInterp, TimersFireAndCancel) {
  sim::Environment env;
  auto node = make_node(R"(
    variables {
      msTimer tPing;
      msTimer tNever;
      int fired = 0;
    }
    on start {
      setTimer(tPing, 5);
      setTimer(tNever, 1000);
      cancelTimer(tNever);
    }
    on timer tPing {
      fired = fired + 1;
      if (fired < 3) { setTimer(tPing, 5); }
    }
    on timer tNever { fired = 100; }
  )");
  env.attach(node);
  env.run(2'000'000);
  EXPECT_EQ(node.global("fired")->i, 3);
}

TEST(CaplInterp, WriteGoesToEnvironmentLog) {
  sim::Environment env;
  auto node = make_node(R"(
    on start { write("status %d of %d", 2, 3); }
  )");
  env.attach(node);
  env.run();
  ASSERT_EQ(env.log().size(), 1u);
  EXPECT_EQ(env.log()[0].text, "status 2 of 3");
}

TEST(CaplInterp, KeyEventDispatch) {
  sim::Environment env;
  auto node = make_node(R"(
    variables { int pressed = 0; }
    on key 'x' { pressed = 1; }
  )");
  env.attach(node);
  node.press_key('x');
  EXPECT_EQ(node.global("pressed")->i, 1);
  node.press_key('y');
  EXPECT_EQ(node.global("pressed")->i, 1);
}

TEST(CaplInterp, DbcSignalAccess) {
  const can::DbcDatabase db = can::parse_dbc(R"(
BO_ 512 Report: 4 ECU
 SG_ Status : 0|8@1+ (1,0) [0|255] "" VMG
 SG_ Version : 8|16@1+ (1,0) [0|65535] "" VMG
)");
  sim::Environment env;
  auto node = make_node(R"(
    variables { message Report msgOut; int seen = 0; }
    on start {
      msgOut.Status = 2;
      msgOut.Version = 0x0304;
      output(msgOut);
    }
    on message 0x200 { seen = this.Status; }
  )",
                        &db);
  env.attach(node);
  env.run();
  ASSERT_EQ(env.bus().trace().size(), 1u);
  EXPECT_EQ(env.bus().trace()[0].id, 512u);
  EXPECT_EQ(env.bus().trace()[0].byte(0), 2);
  EXPECT_EQ(env.bus().trace()[0].byte(1), 0x04);
  EXPECT_EQ(env.bus().trace()[0].byte(2), 0x03);
}

TEST(CaplInterp, MessageNameResolutionNeedsDb) {
  EXPECT_THROW(make_node("variables { message NotInDb m; }"), CaplError);
}

TEST(CaplInterp, UnknownFunctionThrows) {
  sim::Environment env;
  auto node = make_node("on start { frobnicate(1); }");
  env.attach(node);
  EXPECT_THROW(env.run(), CaplError);
}

TEST(CaplInterp, DivisionByZeroThrows) {
  auto node = make_node("int f(int x) { return 1 / x; }");
  EXPECT_THROW(node.call_function("f", {RtValue::of_int(0)}), CaplError);
}

TEST(CaplInterp, RunawayLoopGuard) {
  auto node = make_node("void f() { while (1) { } }");
  EXPECT_THROW(node.call_function("f", {}), CaplError);
}

TEST(CaplFormat, FormatsDxsAndPercent) {
  EXPECT_EQ(capl_format("a=%d b=%x c=%% d=%d",
                        {RtValue::of_int(10), RtValue::of_int(255),
                         RtValue::of_int(-1)}),
            "a=10 b=ff c=% d=-1");
}

TEST(CaplFormat, MissingArgumentsLeaveSpecifier) {
  EXPECT_EQ(capl_format("x=%d y=%d", {RtValue::of_int(1)}), "x=1 y=%d");
}


TEST(CaplParser, SwitchStatement) {
  const CaplProgram p = parse_capl(R"(
    int classify(int x) {
      switch (x) {
        case 0: return 10;
        case 'a': return 20;
        default: return 30;
      }
    }
  )");
  ASSERT_EQ(p.functions.size(), 1u);
}

TEST(CaplParser, SwitchRequiresCaseOrDefault) {
  EXPECT_THROW(parse_capl("void f() { switch (1) { return; } }"), CaplError);
}

TEST(CaplInterp, SwitchSelectsMatchingCase) {
  auto node = make_node(R"(
    int classify(int x) {
      switch (x) {
        case 1: return 100;
        case 2: return 200;
        default: return -1;
      }
    }
  )");
  EXPECT_EQ(node.call_function("classify", {RtValue::of_int(1)}).i, 100);
  EXPECT_EQ(node.call_function("classify", {RtValue::of_int(2)}).i, 200);
  EXPECT_EQ(node.call_function("classify", {RtValue::of_int(9)}).i, -1);
}

TEST(CaplInterp, SwitchFallThroughAndBreak) {
  auto node = make_node(R"(
    int tally(int x) {
      int total = 0;
      switch (x) {
        case 1: total += 1;
        case 2: total += 2; break;
        case 3: total += 4;
      }
      return total;
    }
  )");
  EXPECT_EQ(node.call_function("tally", {RtValue::of_int(1)}).i, 3);  // 1+2
  EXPECT_EQ(node.call_function("tally", {RtValue::of_int(2)}).i, 2);
  EXPECT_EQ(node.call_function("tally", {RtValue::of_int(3)}).i, 4);
  EXPECT_EQ(node.call_function("tally", {RtValue::of_int(7)}).i, 0);  // no default
}

TEST(CaplInterp, SwitchOnCharLiteral) {
  auto node = make_node(R"(
    int keycode(int c) {
      switch (c) {
        case 'u': return 1;
        case 'd': return 2;
      }
      return 0;
    }
  )");
  EXPECT_EQ(node.call_function("keycode", {RtValue::of_int('u')}).i, 1);
  EXPECT_EQ(node.call_function("keycode", {RtValue::of_int('d')}).i, 2);
}

// --- hostile nesting --------------------------------------------------------

std::string repeat(std::string_view s, int n) {
  std::string out;
  out.reserve(s.size() * n);
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

TEST(CaplParser, DeepNestingIsAnErrorWithALocation) {
  for (const std::string& handler :
       {"x = " + repeat("(", 50000) + "1" + repeat(")", 50000) + ";",
        "x = " + repeat("- ", 50000) + "1;",
        "x = " + repeat("!", 50000) + "1;",
        repeat("{", 50000) + repeat("}", 50000),
        repeat("if (x) ", 50000) + "x = 1;"}) {
    try {
      parse_capl("variables { int x; }\non start { " + handler + " }\n");
      ADD_FAILURE() << "parsed: " << handler.substr(0, 12);
    } catch (const CaplError& e) {
      EXPECT_NE(std::string(e.what()).find("input nests too deeply"),
                std::string::npos);
      EXPECT_EQ(e.line, 2);
      EXPECT_GT(e.column, 10);
    }
  }
}

TEST(CaplParser, LongOperatorChainParsesAndFrees) {
  const CaplProgram p = parse_capl("variables { int x; }\non start { x = 1" +
                                   repeat(" + 1", 200000) + "; }\n");
  ASSERT_EQ(p.handlers.size(), 1u);
}

}  // namespace
}  // namespace ecucsp::capl
