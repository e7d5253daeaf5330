#include "core/cli.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

namespace ecucsp::cli {

namespace {

constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
constexpr std::size_t kWidth = 79;       // usage lines wrap before this
constexpr std::size_t kFlagColumn = 24;  // wider "--flag METAVAR" heads
                                         // put their help on the next line

std::string with_note(std::string help, const std::string& note) {
  if (note.empty()) return help;
  return help + " " + note;
}

std::string range_note(std::uint64_t min, std::uint64_t max) {
  if (max == kTop) {
    return min == 0 ? "" : "(at least " + std::to_string(min) + ")";
  }
  if (min == 0) return "(at most " + std::to_string(max) + ")";
  return "(" + std::to_string(min) + " to " + std::to_string(max) + ")";
}

std::string joined(const std::vector<std::string>& xs) {
  std::string out;
  for (const std::string& x : xs) {
    if (!out.empty()) out += ", ";
    out += x;
  }
  return out;
}

/// `text` word-wrapped into lines of at most `kWidth` columns, the first
/// continuing `out` at column `start`, the rest indented to `indent`.
void wrap(std::string& out, std::string_view text, std::size_t start,
          std::size_t indent) {
  std::size_t column = start;
  bool line_empty = true;
  while (!text.empty()) {
    const std::size_t space = text.find(' ');
    const std::string_view word = text.substr(0, space);
    text = space == std::string_view::npos ? std::string_view{}
                                           : text.substr(space + 1);
    if (word.empty()) continue;
    if (!line_empty && column + 1 + word.size() > kWidth) {
      out += '\n';
      out.append(indent, ' ');
      column = indent;
      line_empty = true;
    }
    if (!line_empty) {
      out += ' ';
      ++column;
    }
    out += word;
    column += word.size();
    line_empty = false;
  }
  out += '\n';
}

std::string synopsis(const Tool& tool, std::string_view program) {
  std::string out;
  for (std::size_t i = 0; i < tool.synopsis.size(); ++i) {
    out += i == 0 ? "usage: " : "       ";
    out += program;
    out += ' ';
    out += tool.synopsis[i];
    out += '\n';
  }
  return out;
}

const Option* find(const Tool& tool, std::string_view name) {
  for (const Option& o : tool.options) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

}  // namespace

Option flag(std::string name, std::string help, bool& target) {
  return {std::move(name), "", std::move(help),
          [&target](std::string_view) { target = true; }};
}

Option flag(std::string name, std::string help, std::function<void()> action) {
  return {std::move(name), "", std::move(help),
          [action = std::move(action)](std::string_view) { action(); }};
}

Option value(std::string name, std::string metavar, std::string help,
             std::function<void(std::string_view)> set) {
  return {std::move(name), std::move(metavar), std::move(help),
          std::move(set)};
}

Option choice(std::string name, std::string metavar, std::string help,
              std::vector<std::string> choices,
              std::function<void(std::string_view)> set) {
  const std::string note = "(one of: " + joined(choices) + ")";
  std::string flag_name = name;
  return {std::move(name), std::move(metavar),
          with_note(std::move(help), note),
          [flag_name = std::move(flag_name), choices = std::move(choices),
           set = std::move(set)](std::string_view v) {
            if (std::find(choices.begin(), choices.end(), v) ==
                choices.end()) {
              throw UsageError(flag_name + " must be one of " +
                               joined(choices) + ", got '" + std::string(v) +
                               "'");
            }
            set(v);
          }};
}

Option number(std::string name, std::string metavar, std::string help,
              std::function<void(std::uint64_t)> set, std::uint64_t min,
              std::uint64_t max) {
  std::string flag_name = name;
  return {std::move(name), std::move(metavar),
          with_note(std::move(help), range_note(min, max)),
          [flag_name = std::move(flag_name), set = std::move(set), min,
           max](std::string_view v) {
            set(parse_number(flag_name, v, min, max));
          }};
}

std::uint64_t parse_number(std::string_view option, std::string_view text,
                           std::uint64_t min, std::uint64_t max) {
  std::uint64_t n = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, n, 10);
  // from_chars takes no '+' and, for an unsigned type, no '-'; the stop
  // check rejects trailing junk such as "1x" or the "x10" of "0x10".
  if (text.empty() || ec != std::errc{} || stop != end || n < min ||
      n > max) {
    throw UsageError(std::string(option) + " needs a decimal number from " +
                     std::to_string(min) + " to " + std::to_string(max) +
                     ", got '" + std::string(text) + "'");
  }
  return n;
}

bool parse(const Tool& tool, int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.size() < 2 || arg[0] != '-') {
      if (!tool.positional) {
        throw UsageError("unexpected argument '" + std::string(arg) + "'");
      }
      tool.positional(arg);
      continue;
    }
    const std::size_t eq =
        arg.starts_with("--") ? arg.find('=') : std::string_view::npos;
    const bool inline_value = eq != std::string_view::npos;
    const std::string name(arg.substr(0, eq));
    const Option* row = find(tool, name);
    if (!row && name != "--help") {
      throw UsageError("unknown option '" + name + "'");
    }
    const bool is_switch = !row || row->metavar.empty();
    if (is_switch && inline_value) {
      throw UsageError(name + " takes no value");
    }
    if (!row) return false;  // --help: stop here, print the usage
    if (is_switch) {
      row->set({});
    } else if (inline_value) {
      row->set(arg.substr(eq + 1));
    } else if (i + 1 < argc) {
      row->set(argv[++i]);
    } else {
      throw UsageError(row->name + " needs a value (" + row->name + " " +
                       row->metavar + ")");
    }
  }
  return true;
}

std::string usage(const Tool& tool, std::string_view program) {
  std::string out = synopsis(tool, program);
  if (!tool.about.empty()) wrap(out, tool.about, 0, 0);
  std::vector<std::pair<std::string, std::string>> rows;
  rows.reserve(tool.options.size() + 1);
  for (const Option& o : tool.options) {
    rows.emplace_back(o.metavar.empty() ? o.name : o.name + " " + o.metavar,
                      o.help);
  }
  rows.emplace_back("--help", "print this help and exit");
  std::size_t width = 0;
  for (const auto& [head, help] : rows) {
    if (head.size() <= kFlagColumn) width = std::max(width, head.size());
  }
  const std::size_t indent = 2 + width + 2;
  for (const auto& [head, help] : rows) {
    out += "  " + head;
    if (head.size() > width) {
      out += '\n';
      out.append(indent, ' ');
    } else {
      out.append(indent - 2 - head.size(), ' ');
    }
    wrap(out, help, indent, indent);
  }
  return out;
}

std::string read_file(const std::filesystem::path& path) {
  const std::string shown = "'" + path.string() + "'";
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec) || ec) {
    throw std::runtime_error("cannot read " + shown + ": not a regular file");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + shown);
  std::ostringstream out;
  out << in.rdbuf();
  if (in.bad() || out.fail()) {
    throw std::runtime_error("read error on " + shown);
  }
  return out.str();
}

int run(int argc, char** argv, const Tool& tool,
        const std::function<int()>& body) {
  const std::string program = argc > 0 ? argv[0] : "ecucsp";
  try {
    if (!parse(tool, argc, argv)) {
      std::fputs(usage(tool, program).c_str(), stdout);
      return 0;
    }
    return body();
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n%s(%s --help lists every option)\n",
                 e.what(), synopsis(tool, program).c_str(), program.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

}  // namespace ecucsp::cli
