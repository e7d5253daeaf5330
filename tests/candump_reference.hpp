// Test support: the token-then-validate candump line parser that
// can::parse_candump_line replaced, kept verbatim as an independent
// reference. It trims the line, splits it into three tokens, then checks
// the timestamp and the frame token, each in its own pass. The one-walk
// parser in src/can must accept exactly the lines this one accepts, with
// the same frame and channel, and reject the rest with the same error text.
#pragma once

#include <cctype>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "can/candump.hpp"

namespace ecucsp::can::reference {

namespace detail {

inline bool fail(std::string* error, const char* what) {
  if (error != nullptr) *error = what;
  return false;
}

inline std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

inline int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

inline bool parse_hex(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  out = 0;
  for (char c : s) {
    const int d = hex_digit(c);
    if (d < 0) return false;
    out = (out << 4) | static_cast<std::uint64_t>(d);
  }
  return true;
}

/// "(1736455225.123456)" -> microseconds. The fraction is optional and may
/// carry fewer than six digits (older loggers write milliseconds).
inline bool parse_timestamp(std::string_view s, std::uint64_t& out,
                            std::string* error) {
  if (s.size() < 2 || s.front() != '(' || s.back() != ')') {
    return fail(error, "malformed timestamp (expected '(seconds.frac)')");
  }
  s = s.substr(1, s.size() - 2);
  std::uint64_t secs = 0;
  std::size_t i = 0;
  if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i]))) {
    return fail(error, "malformed timestamp (no digits)");
  }
  // The microsecond count must fit in 64 bits; checking each digit keeps
  // `secs` itself from wrapping.
  constexpr std::uint64_t kMaxUs = std::numeric_limits<std::uint64_t>::max();
  for (; i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])); ++i) {
    secs = secs * 10 + static_cast<std::uint64_t>(s[i] - '0');
    if (secs > kMaxUs / 1'000'000) return fail(error, "timestamp out of range");
  }
  std::uint64_t micros = 0;
  if (i < s.size()) {
    if (s[i] != '.') return fail(error, "malformed timestamp fraction");
    ++i;
    std::size_t digits = 0;
    for (; i < s.size(); ++i, ++digits) {
      if (!std::isdigit(static_cast<unsigned char>(s[i])) || digits >= 6) {
        return fail(error, "malformed timestamp fraction");
      }
      micros = micros * 10 + static_cast<std::uint64_t>(s[i] - '0');
    }
    for (; digits < 6; ++digits) micros *= 10;
  }
  if (micros > kMaxUs - secs * 1'000'000) {
    return fail(error, "timestamp out of range");
  }
  out = secs * 1'000'000 + micros;
  return true;
}

}  // namespace detail

inline std::optional<CandumpRecord> parse_candump_line(std::string_view line,
                                                       std::string* error) {
  using namespace detail;
  const std::string_view text = trim(line);

  // Split into exactly three whitespace-separated tokens:
  // (timestamp) interface id#data.
  std::string_view tok[3];
  std::size_t pos = 0;
  for (int t = 0; t < 3; ++t) {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
    const std::size_t start = pos;
    while (pos < text.size() && text[pos] != ' ' && text[pos] != '\t') ++pos;
    tok[t] = text.substr(start, pos - start);
    if (tok[t].empty()) {
      fail(error, "truncated record (expected '(timestamp) iface id#data')");
      return std::nullopt;
    }
  }
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  if (pos != text.size()) {
    fail(error, "unexpected trailing content after the frame token");
    return std::nullopt;
  }

  CandumpRecord rec;
  if (!parse_timestamp(tok[0], rec.timestamp_us, error)) return std::nullopt;
  rec.channel = std::string(tok[1]);

  const std::string_view frame_tok = tok[2];
  const std::size_t hash = frame_tok.find('#');
  if (hash == std::string_view::npos) {
    fail(error, "malformed frame token (no '#' separator)");
    return std::nullopt;
  }
  const std::string_view id_part = frame_tok.substr(0, hash);
  std::string_view data = frame_tok.substr(hash + 1);

  std::uint64_t id = 0;
  if (id_part.empty() || id_part.size() > 8 || !parse_hex(id_part, id)) {
    fail(error, "malformed CAN id (expected 1..8 hex digits)");
    return std::nullopt;
  }
  if (id > MAX_EXTENDED_ID) {
    fail(error, "CAN id exceeds the 29-bit extended range");
    return std::nullopt;
  }
  rec.frame.id = static_cast<CanId>(id);
  rec.frame.extended = id > MAX_STANDARD_ID || id_part.size() == 8;

  if (!data.empty() && data.front() == '#') {
    fail(error, "CAN FD record ('##') is not representable as classic CAN");
    return std::nullopt;
  }
  if (!data.empty() && (data.front() == 'R' || data.front() == 'r')) {
    fail(error, "remote frame record ('#R') is not supported");
    return std::nullopt;
  }
  if (data.size() % 2 != 0) {
    fail(error, "odd number of payload hex digits");
    return std::nullopt;
  }
  if (data.size() > 16) {
    fail(error, "payload exceeds 8 bytes (classic CAN)");
    return std::nullopt;
  }
  rec.frame.dlc = static_cast<std::uint8_t>(data.size() / 2);
  for (std::size_t i = 0; i < rec.frame.dlc; ++i) {
    const int hi = hex_digit(data[2 * i]);
    const int lo = hex_digit(data[2 * i + 1]);
    if (hi < 0 || lo < 0) {
      fail(error, "malformed payload hex");
      return std::nullopt;
    }
    rec.frame.data[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  rec.frame.timestamp_us = rec.timestamp_us;
  return rec;
}

}  // namespace ecucsp::can::reference
