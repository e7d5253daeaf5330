// The option table shared by the ecucsp_* tools (core/cli.hpp): one parser
// for both value forms, strict bounded numbers, choice rows, usage errors,
// positionals in order, and usage text generated from the rows.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/cli.hpp"

namespace {

using namespace ecucsp;

/// Every option kind, plus a positional collector.
struct Fixture {
  unsigned jobs = 7;
  std::uint64_t seed = 0;
  bool json = false;
  bool strict = false;
  std::string mode = "none";
  std::string dir;
  std::vector<std::string> logs;
  std::vector<std::string> bare;
  cli::Tool tool;

  Fixture() {
    tool.synopsis = {"[options] <file>...", "[options] --json"};
    tool.about = "A tool for tests.";
    tool.options = {
        cli::number("--jobs", "N", "workers", jobs, 0, 256),
        cli::number("--seed", "N", "seed",
                    [this](std::uint64_t n) { seed = n; }),
        cli::flag("--json", "JSON report", json),
        cli::flag("--strict", "strict", [this] { strict = true; }),
        cli::flag("--lenient", "lenient", [this] { strict = false; }),
        cli::choice("--mode", "M", "pruning mode", {"none", "static"},
                    [this](std::string_view m) { mode = m; }),
        cli::value("--dir", "D", "a directory",
                   [this](std::string_view d) { dir = d; }),
        cli::value("--log", "FILE", "a log (repeatable)",
                   [this](std::string_view f) { logs.emplace_back(f); }),
    };
    tool.positional = [this](std::string_view a) { bare.emplace_back(a); };
  }

  bool parse(std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return cli::parse(tool, static_cast<int>(args.size()), args.data());
  }
};

TEST(CoreCli, BothValueFormsAreAccepted) {
  Fixture f;
  EXPECT_TRUE(f.parse({"--jobs", "3", "--dir=/tmp/x", "--mode", "static"}));
  EXPECT_EQ(f.jobs, 3u);
  EXPECT_EQ(f.dir, "/tmp/x");
  EXPECT_EQ(f.mode, "static");

  Fixture g;
  EXPECT_TRUE(g.parse({"--jobs=4", "--dir", "d", "--mode=none", "--seed=9"}));
  EXPECT_EQ(g.jobs, 4u);
  EXPECT_EQ(g.dir, "d");
  EXPECT_EQ(g.mode, "none");
  EXPECT_EQ(g.seed, 9u);

  // Only the first '=' splits; the rest belongs to the value.
  Fixture h;
  h.parse({"--dir=a=b", "--log="});
  EXPECT_EQ(h.dir, "a=b");
  EXPECT_EQ(h.logs, std::vector<std::string>{""});
}

TEST(CoreCli, NumbersAreStrictDecimalsWithinTheRowRange) {
  EXPECT_EQ(cli::parse_number("--n", "0", 0, 10), 0u);
  EXPECT_EQ(cli::parse_number("--n", "10", 0, 10), 10u);
  EXPECT_EQ(cli::parse_number("--n", "007", 0, 10), 7u);
  EXPECT_EQ(cli::parse_number("--n", "18446744073709551615", 0, UINT64_MAX),
            UINT64_MAX);
  for (const char* bad :
       {"", "-1", "+1", "1x", "0x10", " 1", "1 ", "1.5", "abc",
        "18446744073709551616", "99999999999999999999999"}) {
    EXPECT_THROW(cli::parse_number("--n", bad, 0, UINT64_MAX),
                 cli::UsageError)
        << "'" << bad << "'";
  }
  EXPECT_THROW(cli::parse_number("--n", "11", 0, 10), cli::UsageError);
  EXPECT_THROW(cli::parse_number("--n", "0", 1, 10), cli::UsageError);

  // Through a row: the bound is the row's, and a rejected value leaves the
  // target untouched.
  for (const char* bad : {"257", "-1", "abc", ""}) {
    Fixture f;
    EXPECT_THROW(f.parse({"--jobs", bad}), cli::UsageError) << bad;
    EXPECT_EQ(f.jobs, 7u);
  }
  Fixture f;
  f.parse({"--jobs", "256"});
  EXPECT_EQ(f.jobs, 256u);
}

TEST(CoreCli, ARowNeverStoresMoreThanItsTargetHolds) {
  std::uint16_t port = 0;
  cli::Tool tool;
  tool.options = {cli::number("--port", "P", "port", port)};
  const char* ok[] = {"prog", "--port", "65535"};
  cli::parse(tool, 3, ok);
  EXPECT_EQ(port, 65535u);
  const char* wide[] = {"prog", "--port", "65536"};
  EXPECT_THROW(cli::parse(tool, 3, wide), cli::UsageError);
  EXPECT_EQ(port, 65535u);
}

TEST(CoreCli, RepeatableRowsKeepOrderAndScalarsKeepTheLastValue) {
  Fixture f;
  f.parse({"--log", "a", "--jobs", "1", "--log=b", "--jobs", "2", "--log",
           "c", "--strict", "--lenient", "--strict"});
  EXPECT_EQ(f.logs, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(f.jobs, 2u);
  EXPECT_TRUE(f.strict);

  Fixture g;
  g.parse({"--strict", "--lenient", "--mode=static", "--mode", "none"});
  EXPECT_FALSE(g.strict);
  EXPECT_EQ(g.mode, "none");
}

TEST(CoreCli, ChoiceRowsAcceptOnlyTheirValues) {
  for (const char* bad : {"bogus", "", "Static", "static "}) {
    Fixture f;
    EXPECT_THROW(f.parse({"--mode", bad}), cli::UsageError) << bad;
    EXPECT_EQ(f.mode, "none");
  }
}

TEST(CoreCli, MalformedCommandLinesAreUsageErrors) {
  // A value row at the end of the line with its value missing.
  for (const char* flag : {"--jobs", "--dir", "--mode", "--log"}) {
    Fixture f;
    EXPECT_THROW(f.parse({"--json", flag}), cli::UsageError) << flag;
  }
  Fixture f;
  EXPECT_THROW(f.parse({"--bogus"}), cli::UsageError);
  EXPECT_THROW(f.parse({"-j"}), cli::UsageError);
  EXPECT_THROW(f.parse({"--"}), cli::UsageError);
  EXPECT_THROW(f.parse({"--json=1"}), cli::UsageError);  // a switch
  EXPECT_THROW(f.parse({"--help=1"}), cli::UsageError);

  // A tool without a positional handler takes no bare arguments.
  f.tool.positional = nullptr;
  EXPECT_THROW(f.parse({"file.csp"}), cli::UsageError);
}

TEST(CoreCli, PositionalsReachTheHandlerInOrder) {
  Fixture f;
  EXPECT_TRUE(f.parse({"a.csp", "--json", "b.csp", "--jobs", "2", "-",
                       "c.csp"}));
  EXPECT_EQ(f.bare, (std::vector<std::string>{"a.csp", "b.csp", "-", "c.csp"}));
  EXPECT_TRUE(f.json);
  // A value is taken whole, even when it looks like a flag.
  Fixture g;
  g.parse({"--dir", "--json"});
  EXPECT_EQ(g.dir, "--json");
  EXPECT_FALSE(g.json);
}

TEST(CoreCli, HelpStopsParsing) {
  Fixture f;
  EXPECT_FALSE(f.parse({"--jobs", "2", "--help", "--bogus", "--jobs", "x"}));
  EXPECT_EQ(f.jobs, 2u);
}

TEST(CoreCli, UsageListsEveryRowInRowOrder) {
  const Fixture f;
  const std::string text = cli::usage(f.tool, "prog");
  EXPECT_TRUE(text.starts_with("usage: prog [options] <file>...\n"
                               "       prog [options] --json\n"
                               "A tool for tests.\n"))
      << text;
  std::size_t at = 0;
  for (const char* row : {"  --jobs N ", "  --seed N ", "  --json ",
                          "  --strict ", "  --lenient ", "  --mode M ",
                          "  --dir D ", "  --log FILE ", "  --help "}) {
    const std::size_t next = text.find(row, at);
    ASSERT_NE(next, std::string::npos) << row << " missing or out of order\n"
                                       << text;
    at = next;
  }
  // Ranges and choices come from the rows too.
  EXPECT_NE(text.find("workers (at most 256)"), std::string::npos) << text;
  EXPECT_NE(text.find("(one of: none, static)"), std::string::npos) << text;
  for (std::size_t b = 0, e = 0; b < text.size(); b = e + 1) {
    e = text.find('\n', b);
    EXPECT_LE(e - b, 79u) << text.substr(b, e - b);
  }
}

TEST(CoreCli, RunMapsHelpUsageErrorsAndExceptionsToExitCodes) {
  Fixture f;
  int calls = 0;
  const auto run = [&](std::vector<const char*> args, auto body) {
    args.insert(args.begin(), "prog");
    return cli::run(static_cast<int>(args.size()),
                    const_cast<char**>(args.data()), f.tool, body);
  };
  const auto body = [&] {
    ++calls;
    return 3;
  };
  EXPECT_EQ(run({"--json"}, body), 3);
  EXPECT_EQ(run({"--help"}, body), 0);
  EXPECT_EQ(run({"--bogus"}, body), 2);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(run({}, []() -> int { throw cli::UsageError("no input"); }), 2);
  EXPECT_EQ(run({}, []() -> int { throw std::runtime_error("boom"); }), 2);
}

TEST(CoreCli, ReadFileReturnsBytesAndRejectsNonRegularPaths) {
  const std::filesystem::path p =
      std::filesystem::temp_directory_path() /
      ("ecucsp_cli_test_" + std::to_string(::getpid()));
  const std::string bytes("a\0b\r\n", 5);
  {
    std::ofstream out(p, std::ios::binary);
    out << bytes;
  }
  EXPECT_EQ(cli::read_file(p), bytes);
  std::filesystem::remove(p);
  EXPECT_THROW(cli::read_file(p), std::runtime_error);
  EXPECT_THROW(cli::read_file(std::filesystem::temp_directory_path()),
               std::runtime_error);
}

}  // namespace
