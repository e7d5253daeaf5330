#include "can/dbc.hpp"

#include <cctype>
#include <charconv>
#include <sstream>
#include <utility>

namespace ecucsp::can {

const DbcSignal* DbcMessage::find_signal(std::string_view name) const {
  for (const DbcSignal& s : signals) {
    if (s.spec.name == name) return &s;
  }
  return nullptr;
}

const DbcMessage* DbcDatabase::find_message(std::string_view name) const {
  for (const DbcMessage& m : messages) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

const DbcMessage* DbcDatabase::find_message(CanId id) const {
  for (const DbcMessage& m : messages) {
    if (m.id == id) return &m;
  }
  return nullptr;
}

namespace {

/// A DBC message id is 32 bits wide: bit 31 flags an extended id.
constexpr std::int64_t kMaxRawId = 0xFFFFFFFFLL;

/// Minimal line-oriented tokenizer for DBC records.
class LineScanner {
 public:
  LineScanner(std::string_view text, int line) : text_(text), line_(line) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool done() {
    skip_ws();
    return pos_ >= text_.size();
  }
  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  bool accept(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!accept(c)) {
      fail(std::string("expected '") + c + "'");
    }
  }
  std::string word() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (start == pos_) fail("expected an identifier");
    return std::string(text_.substr(start, pos_ - start));
  }
  /// The next number as a double; the whole numeric token must parse.
  double number() {
    const std::string_view tok = numeric_token();
    const char* last = tok.data() + tok.size();
    double v = 0;
    const auto [end, ec] = std::from_chars(tok.data(), last, v);
    if (end != last) fail(std::string(tok) + " is not a number");
    if (ec != std::errc()) fail(std::string(tok) + " is out of range");
    return v;
  }
  /// The next number as an integer in [lo, hi], the range of the field
  /// named `what`: the whole token must be a decimal integer, and it is
  /// range-checked before any caller narrows it.
  std::int64_t integer(std::string_view what, std::int64_t lo,
                       std::int64_t hi) {
    const std::string_view tok = numeric_token();
    const char* last = tok.data() + tok.size();
    std::int64_t v = 0;
    const auto [end, ec] = std::from_chars(tok.data(), last, v);
    if (end != last) {
      fail(std::string(what) + " " + std::string(tok) + " is not an integer");
    }
    if (ec != std::errc() || v < lo || v > hi) {
      fail(std::string(what) + " " + std::string(tok) + " is out of range " +
           std::to_string(lo) + ".." + std::to_string(hi));
    }
    return v;
  }
  std::string quoted() {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected a string");
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') out += text_[pos_++];
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }
  [[noreturn]] void fail(const std::string& msg) {
    throw DbcParseError(msg, line_);
  }

 private:
  /// The next run of number characters (digits, '.', an exponent and
  /// signs), with one leading '+' dropped since from_chars takes none.
  std::string_view numeric_token() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '-' || text_[pos_] == '+') && pos_ > start &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      ++pos_;
    }
    if (start == pos_) fail("expected a number");
    std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.size() > 1 && tok[0] == '+') tok.remove_prefix(1);
    return tok;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_;
};

}  // namespace

DbcDatabase parse_dbc(std::string_view text) {
  DbcDatabase db;
  DbcMessage* current = nullptr;

  std::istringstream stream{std::string(text)};
  std::string raw;
  int line_no = 0;
  while (std::getline(stream, raw)) {
    ++line_no;
    // Strip leading whitespace to classify the record.
    std::size_t first = raw.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const std::string_view line = std::string_view(raw).substr(first);

    if (line.starts_with("VERSION")) {
      LineScanner s(line.substr(7), line_no);
      db.version = s.quoted();
      continue;
    }
    if (line.starts_with("BU_")) {
      LineScanner s(line.substr(3), line_no);
      s.expect(':');
      while (!s.done()) db.nodes.push_back(s.word());
      continue;
    }
    if (line.starts_with("BO_ ")) {
      LineScanner s(line.substr(4), line_no);
      DbcMessage m;
      m.line = line_no;
      const std::int64_t raw_id = s.integer("message id", 0, kMaxRawId);
      // Bit 31 marks an extended identifier in DBC files.
      if (raw_id & 0x80000000LL) {
        m.id = static_cast<CanId>(raw_id & MAX_EXTENDED_ID);
      } else {
        m.id = static_cast<CanId>(raw_id);
      }
      m.name = s.word();
      s.expect(':');
      m.dlc = static_cast<std::uint8_t>(s.integer("dlc", 0, 8));
      m.sender = s.word();
      db.messages.push_back(std::move(m));
      current = &db.messages.back();
      continue;
    }
    if (line.starts_with("SG_ ")) {
      if (!current) throw DbcParseError("SG_ outside a BO_ block", line_no);
      LineScanner s(line.substr(4), line_no);
      DbcSignal sig;
      sig.line = line_no;
      sig.spec.name = s.word();
      s.expect(':');
      sig.spec.start_bit =
          static_cast<std::uint16_t>(s.integer("start bit", 0, UINT16_MAX));
      s.expect('|');
      sig.spec.length =
          static_cast<std::uint16_t>(s.integer("length", 0, UINT16_MAX));
      s.expect('@');
      sig.spec.byte_order = s.integer("byte order", 0, 1) == 1
                                ? ByteOrder::Intel
                                : ByteOrder::Motorola;
      if (s.accept('-')) {
        sig.spec.is_signed = true;
      } else {
        s.expect('+');
      }
      s.expect('(');
      sig.spec.factor = s.number();
      s.expect(',');
      sig.spec.offset = s.number();
      s.expect(')');
      s.expect('[');
      sig.spec.minimum = s.number();
      s.expect('|');
      sig.spec.maximum = s.number();
      s.expect(']');
      sig.spec.unit = s.quoted();
      while (!s.done()) {
        sig.receivers.push_back(s.word());
        s.accept(',');
      }
      current->signals.push_back(std::move(sig));
      continue;
    }
    if (line.starts_with("VAL_ ")) {
      LineScanner s(line.substr(5), line_no);
      const std::int64_t raw_id = s.integer("message id", 0, kMaxRawId);
      const CanId id = static_cast<CanId>(raw_id & MAX_EXTENDED_ID);
      const std::string sig_name = s.word();
      // Read the pairs whatever they name, so a malformed value is an
      // error even when no signal matches and the pairs are dropped.
      std::vector<std::pair<std::int64_t, std::string>> pairs;
      while (!s.done() && s.peek() != ';') {
        const std::int64_t v = s.integer("value", INT64_MIN, INT64_MAX);
        pairs.emplace_back(v, s.quoted());
      }
      for (DbcMessage& m : db.messages) {
        if (m.id != id) continue;
        for (DbcSignal& sig : m.signals) {
          if (sig.spec.name != sig_name) continue;
          for (const auto& [v, text] : pairs) sig.value_table[v] = text;
        }
      }
      continue;
    }
    if (line.starts_with("CM_ ")) {
      LineScanner s(line.substr(4), line_no);
      const std::string kind = s.word();
      if (kind == "BO_") {
        const CanId id = static_cast<CanId>(
            s.integer("message id", 0, kMaxRawId) & MAX_EXTENDED_ID);
        for (DbcMessage& m : db.messages) {
          if (m.id == id) m.comment = s.quoted();
        }
      } else if (kind == "SG_") {
        const CanId id = static_cast<CanId>(
            s.integer("message id", 0, kMaxRawId) & MAX_EXTENDED_ID);
        const std::string sig_name = s.word();
        for (DbcMessage& m : db.messages) {
          if (m.id != id) continue;
          for (DbcSignal& sig : m.signals) {
            if (sig.spec.name == sig_name) sig.comment = s.quoted();
          }
        }
      }
      continue;
    }
    // Unknown record types (BA_, NS_, BS_, ...) are tolerated, as real DBC
    // consumers must be.
  }
  return db;
}

}  // namespace ecucsp::can
