// Command-line option tables for the ecucsp_* tools.
//
// A tool is declared, not hand-parsed: a synopsis, an about text, a
// positional handler and a list of option rows {name, metavar, help,
// setter}. One parser reads every row as `--opt V` or `--opt=V`, numbers
// are read strictly (decimal digits only, the whole token, within the
// row's [min, max]), and the usage text is generated from the same rows,
// so a flag cannot be accepted without being documented or documented
// without being accepted. `run` owns the exit-code contract: `--help`
// prints the usage on stdout and exits 0, a usage error prints one
// `error:` line plus the synopsis on stderr and exits 2, and any other
// exception escaping the tool's body prints one `error:` line and exits 2.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ecucsp::cli {

/// A malformed command line: unknown flag, missing or malformed value, or
/// a missing input that a tool's body requires. `run` maps it to exit 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Upper bound of every worker-count flag. `--jobs 0` already means every
/// core, and the scheduler starts one thread per worker up front.
inline constexpr std::uint64_t kMaxJobs = 256;
/// Upper bound of every TCP port flag.
inline constexpr std::uint64_t kMaxPort = 65535;
/// Upper bound of every millisecond timeout flag (about 49 days).
inline constexpr std::uint64_t kMaxTimeoutMs =
    std::numeric_limits<std::uint32_t>::max();

/// One option row. A row with an empty metavar is a switch: it takes no
/// value and its setter receives "". The setter throws UsageError on a
/// value it rejects; the row builders below generate it.
struct Option {
  std::string name;     // "--jobs"
  std::string metavar;  // "N"; empty for a switch
  std::string help;     // one paragraph; usage() wraps it
  std::function<void(std::string_view)> set;
};

struct Tool {
  /// One line per form of the command, without the program name.
  std::vector<std::string> synopsis;
  std::string about;
  std::vector<Option> options;
  /// Receives every bare argument in command-line order; when empty, a
  /// bare argument is a usage error.
  std::function<void(std::string_view)> positional = nullptr;
};

/// A switch that sets `target` to true.
Option flag(std::string name, std::string help, bool& target);
/// A switch that runs `action`.
Option flag(std::string name, std::string help, std::function<void()> action);

/// A value row passed through as text.
Option value(std::string name, std::string metavar, std::string help,
             std::function<void(std::string_view)> set);

/// A value row that accepts only one of `choices`.
Option choice(std::string name, std::string metavar, std::string help,
              std::vector<std::string> choices,
              std::function<void(std::string_view)> set);

/// A numeric row: the value must be a decimal number in [min, max].
Option number(std::string name, std::string metavar, std::string help,
              std::function<void(std::uint64_t)> set, std::uint64_t min = 0,
              std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// A numeric row stored straight into `target`; `max` is capped at the
/// largest value `T` holds.
template <std::unsigned_integral T>
Option number(std::string name, std::string metavar, std::string help,
              T& target, std::uint64_t min = 0,
              std::uint64_t max = std::numeric_limits<T>::max()) {
  return number(
      std::move(name), std::move(metavar), std::move(help),
      [&target](std::uint64_t n) { target = static_cast<T>(n); }, min,
      std::min<std::uint64_t>(max, std::numeric_limits<T>::max()));
}

/// `text` as a decimal number in [min, max]; throws UsageError naming
/// `option` otherwise. No sign, no base prefix, no surrounding blanks.
std::uint64_t parse_number(std::string_view option, std::string_view text,
                           std::uint64_t min, std::uint64_t max);

/// Applies every argument after argv[0] to `tool`'s rows and positional
/// handler. Returns false when `--help` was given (parsing stops there).
/// Throws UsageError on a malformed command line.
bool parse(const Tool& tool, int argc, const char* const* argv);

/// The usage text generated from `tool`'s rows, in row order, `--help`
/// last.
std::string usage(const Tool& tool, std::string_view program);

/// The bytes of the regular file at `path`; throws std::runtime_error
/// when it is missing, not a regular file or unreadable.
std::string read_file(const std::filesystem::path& path);

/// Parses the command line, then returns `body()`'s exit code. `--help`
/// prints the usage on stdout and returns 0 without calling `body`; a
/// UsageError, from parsing or from `body`, prints `error: <what>` and the
/// synopsis on stderr and returns 2; any other escaping exception prints
/// `error: <what>` on stderr and returns 2.
int run(int argc, char** argv, const Tool& tool,
        const std::function<int()>& body);

}  // namespace ecucsp::cli
