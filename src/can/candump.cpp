#include "can/candump.hpp"

#include <array>
#include <cstdio>
#include <limits>

namespace ecucsp::can {

namespace {

bool blank(char c) { return c == ' ' || c == '\t'; }

bool digit(char c) { return c >= '0' && c <= '9'; }

constexpr auto kHexValue = [] {
  std::array<std::int8_t, 256> t{};
  t.fill(-1);
  for (int c = 0; c < 10; ++c) t['0' + c] = static_cast<std::int8_t>(c);
  for (int c = 0; c < 6; ++c) {
    t['a' + c] = t['A' + c] = static_cast<std::int8_t>(10 + c);
  }
  return t;
}();

/// 0..15, or -1 for a character that is not a hex digit.
int hex_digit(char c) { return kHexValue[static_cast<unsigned char>(c)]; }

constexpr std::uint64_t kMaxUs = std::numeric_limits<std::uint64_t>::max();

}  // namespace

const char* parse_candump_line(std::string_view line, CanFrame& frame,
                               std::string_view& channel) {
  constexpr const char* kTruncated =
      "truncated record (expected '(timestamp) iface id#data')";
  const char* p = line.data();
  const char* end = p + line.size();
  while (end != p && (blank(end[-1]) || end[-1] == '\r')) --end;
  while (p != end && blank(*p)) ++p;
  if (p == end) return kTruncated;

  // Timestamp "(secs[.frac])": at most six fraction digits, and the
  // microsecond count must fit in 64 bits. The closing ')' is the one that
  // ends the token, so an error found inside the token yields to the
  // bracket error once the token's end is known.
  const char* ts_err = nullptr;
  std::uint64_t secs = 0;
  std::uint64_t micros = 0;
  int frac = 0;
  const char* const ts = p++;
  const char* const inner = p;
  for (; p != end && digit(*p); ++p) {
    secs = secs * 10 + static_cast<std::uint64_t>(*p - '0');
    if (secs > kMaxUs / 1'000'000) {
      ts_err = "timestamp out of range";
      break;
    }
  }
  if (ts_err == nullptr && p != inner && p != end && *p == '.') {
    for (++p; frac < 6 && p != end && digit(*p); ++p, ++frac) {
      micros = micros * 10 + static_cast<std::uint64_t>(*p - '0');
    }
  }
  if (ts_err == nullptr && *ts == '(' && p != end && *p == ')' &&
      (p + 1 == end || blank(p[1]))) {
    ++p;
    for (; frac < 6; ++frac) micros *= 10;
    if (p == inner + 1) {
      ts_err = "malformed timestamp (no digits)";
    } else if (micros > kMaxUs - secs * 1'000'000) {
      ts_err = "timestamp out of range";
    }
  } else {
    if (ts_err == nullptr) {
      ts_err = p == inner ? "malformed timestamp (no digits)"
                          : "malformed timestamp fraction";
    }
    while (p != end && !blank(*p)) ++p;
    if (*ts != '(' || p[-1] != ')') {
      ts_err = "malformed timestamp (expected '(seconds.frac)')";
    }
  }

  while (p != end && blank(*p)) ++p;
  if (p == end) return kTruncated;
  const char* const name = p;
  while (p != end && !blank(*p)) ++p;
  channel = std::string_view(name, static_cast<std::size_t>(p - name));
  while (p != end && blank(*p)) ++p;
  if (p == end) return kTruncated;

  // Frame "id#data": 1..8 hex id digits, then an even number of at most 16
  // payload hex digits, decoded in place. The checks rank as written below,
  // not by where in the token a fault sits.
  frame.data = {};
  std::uint32_t id = 0;
  int hex = 0;  // negative once a character is not a hex digit
  const char* const id_begin = p;
  for (; p != end && !blank(*p) && *p != '#'; ++p) {
    const int d = hex_digit(*p);
    hex |= d;
    id = (id << 4) | static_cast<std::uint32_t>(d & 0xF);
  }
  const auto id_len = static_cast<std::size_t>(p - id_begin);
  const bool id_hex = hex >= 0;
  const bool has_hash = p != end && *p == '#';
  if (has_hash) ++p;
  const char* const data = p;
  hex = 0;
  for (; p != end && !blank(*p); ++p) {
    const auto i = static_cast<std::size_t>(p - data);
    const int d = hex_digit(*p);
    hex |= d;
    if (i < 16) {
      frame.data[i / 2] |= static_cast<std::uint8_t>((d & 0xF)
                                                     << (i % 2 ? 0 : 4));
    }
  }
  const auto n = static_cast<std::size_t>(p - data);
  while (p != end && blank(*p)) ++p;
  if (p != end) return "unexpected trailing content after the frame token";
  if (ts_err != nullptr) return ts_err;
  if (!has_hash) return "malformed frame token (no '#' separator)";
  if (id_len == 0 || id_len > 8 || !id_hex) {
    return "malformed CAN id (expected 1..8 hex digits)";
  }
  if (id > MAX_EXTENDED_ID) return "CAN id exceeds the 29-bit extended range";
  if (n > 0 && *data == '#') {
    return "CAN FD record ('##') is not representable as classic CAN";
  }
  if (n > 0 && (*data == 'R' || *data == 'r')) {
    return "remote frame record ('#R') is not supported";
  }
  if (n % 2 != 0) return "odd number of payload hex digits";
  if (n > 16) return "payload exceeds 8 bytes (classic CAN)";
  if (hex < 0) return "malformed payload hex";
  frame.id = id;
  frame.extended = id > MAX_STANDARD_ID || id_len == 8;
  frame.dlc = static_cast<std::uint8_t>(n / 2);
  frame.timestamp_us = secs * 1'000'000 + micros;
  return nullptr;
}

std::optional<CandumpRecord> parse_candump_line(std::string_view line,
                                                std::string* error) {
  CandumpRecord rec;
  std::string_view channel;
  if (const char* what = parse_candump_line(line, rec.frame, channel)) {
    if (error != nullptr) *error = what;
    return std::nullopt;
  }
  rec.timestamp_us = rec.frame.timestamp_us;
  rec.channel = channel;
  return rec;
}

std::string format_candump_line(std::uint64_t timestamp_us,
                                std::string_view channel,
                                const CanFrame& frame) {
  char head[64];
  const bool ext = frame.extended || frame.id > MAX_STANDARD_ID;
  std::snprintf(head, sizeof head, "(%llu.%06llu) %.*s %0*X#",
                static_cast<unsigned long long>(timestamp_us / 1'000'000),
                static_cast<unsigned long long>(timestamp_us % 1'000'000),
                static_cast<int>(channel.size()), channel.data(), ext ? 8 : 3,
                frame.id);
  std::string out = head;
  for (std::size_t i = 0; i < frame.dlc && i < 8; ++i) {
    char b[4];
    std::snprintf(b, sizeof b, "%02X", frame.data[i]);
    out += b;
  }
  return out;
}

}  // namespace ecucsp::can
