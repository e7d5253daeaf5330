// SocketCAN candump log records.
//
// A fleet's logged evidence overwhelmingly arrives as `candump -L` text —
// one frame per line, timestamp in parentheses, interface name, then the
// id#data token:
//
//   (1736455225.123456) can0 123#DEADBEEF
//   (1736455225.124001) can1 18FF10F3#0102030405060708
//
// This is the per-line codec only: parse one record, format one record.
// The parser reads a line in one forward walk that splits and decodes the
// three tokens together, writing into a frame the caller owns; file-level
// concerns (mmap ingestion, tolerant multi-line scanning with diagnostics,
// multi-channel merge) live in src/replay/log.hpp, which is built on it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "can/frame.hpp"

namespace ecucsp::can {

struct CandumpRecord {
  std::uint64_t timestamp_us = 0;  // seconds.fraction rendered to microseconds
  std::string channel;             // interface name ("can0")
  CanFrame frame;                  // timestamp_us is mirrored into the frame
};

/// Parse one candump log line into `frame` and `channel` (a view into
/// `line`). Returns nullptr on success, or a static one-line description of
/// what is wrong: the caller records it as a diagnostic instead of aborting
/// the ingest, and `frame` and `channel` are then unspecified. On success
/// every field of `frame` is written, payload bytes past `dlc` are zero, and
/// frame.timestamp_us is the line's timestamp. CAN FD ('##') and remote
/// ('#R') records are recognised but rejected: the classic-CAN frame model
/// cannot represent them faithfully, and a silent down-conversion would
/// corrupt the evidence.
const char* parse_candump_line(std::string_view line, CanFrame& frame,
                               std::string_view& channel);

/// The same parse as a value: nullopt on malformed input, with the error
/// text stored in `*error` when `error` is non-null.
std::optional<CandumpRecord> parse_candump_line(std::string_view line,
                                                std::string* error = nullptr);

/// Render one frame as a candump log line (no trailing newline). Standard
/// ids print as 3 hex digits, extended ids as 8 — the same convention
/// candump itself uses, so written logs round-trip through external tools.
std::string format_candump_line(std::uint64_t timestamp_us,
                                std::string_view channel,
                                const CanFrame& frame);

}  // namespace ecucsp::can
