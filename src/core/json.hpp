// JSON string escaping, shared by every report and wire writer.
//
// Quote, backslash, newline, carriage return and tab get their short
// escapes; every other control byte becomes \u00XX; all other bytes,
// UTF-8 sequences included, pass through unchanged.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace ecucsp {

/// Append `s` to `out`, escaped for the inside of a JSON string.
inline void json_escape_to(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  json_escape_to(out, s);
  return out;
}

/// `xs` as a JSON array of strings.
inline std::string json_string_list(const std::vector<std::string>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ",";
    out += '"';
    json_escape_to(out, xs[i]);
    out += '"';
  }
  return out + "]";
}

}  // namespace ecucsp
