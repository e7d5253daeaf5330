// Candump log ingestion: mmap'd input, tolerant parallel parsing, and the
// multi-file timestamp-ordered merge.
//
// A fleet log is evidence, so the ingester never aborts on a bad line: every
// malformed record becomes a LogDiagnostic carrying the file, line number
// and byte offset, and the scan continues. Well-formed records from any
// number of log files are merged into one timestamp-ordered record stream
// (stable: ties keep file-then-line order), which is what the decode and
// sweep layers consume.
//
// Parsing is split-invariant: each line is a pure function of its own
// bytes, so the ingester cuts a file into byte ranges at newlines, counts
// each range's lines, and has scheduler workers parse the ranges in place
// into one record array, each into the slots its line prefix sum gives it.
// One ordered pass closes the gaps that malformed lines left. Records,
// channels, diagnostics and line numbers are byte-identical at any worker
// count.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "can/frame.hpp"

namespace ecucsp::verify {
class VerifyScheduler;
}

namespace ecucsp::replay {

enum class DiagSeverity {
  Error,    // record dropped (malformed line, unknown CAN id, ...)
  Warning,  // record kept (out-of-order timestamp, ...)
};

std::string_view to_string(DiagSeverity s);

struct LogDiagnostic {
  std::uint32_t file = 0;  // index into the ingested file list
  std::uint32_t line = 0;  // 1-based; 0 = whole-file diagnostic
  std::uint64_t byte_offset = 0;
  DiagSeverity severity = DiagSeverity::Error;
  std::string message;
};

struct LogRecord {
  can::CanFrame frame;  // frame.timestamp_us carries the log timestamp
  std::uint32_t file = 0;
  std::uint32_t line = 0;  // 1-based line in its source file
  std::uint16_t channel = 0;  // index into ParsedLog::channels
  std::uint64_t byte_offset = 0;  // offset of the record's line in its file
};

struct ParsedLog {
  /// Merged records, ordered by (timestamp, file, line).
  std::vector<LogRecord> records;
  std::vector<std::string> channels;  // interned interface names
  /// Stored diagnostics, capped at kMaxStoredDiagnostics; diagnostic_count
  /// is the uncapped total so truncation is never silent.
  std::vector<LogDiagnostic> diagnostics;
  std::size_t diagnostic_count = 0;
  std::size_t lines = 0;  // total lines scanned across all files

  static constexpr std::size_t kMaxStoredDiagnostics = 4096;

  void add_diagnostic(LogDiagnostic d);
};

/// Read-only view of a log file: mmap(2) when the platform and the file
/// cooperate, a bounded-chunk read fallback otherwise (pipes, empty files,
/// filesystems without mmap). Throws std::runtime_error when the file
/// cannot be opened at all — a missing log is a usage error, not a
/// diagnostic.
class MappedFile {
 public:
  explicit MappedFile(const std::filesystem::path& path);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::string_view view() const { return view_; }
  bool is_mapped() const { return mapped_ != nullptr; }

 private:
  std::string_view view_;
  void* mapped_ = nullptr;
  std::size_t mapped_size_ = 0;
  std::string fallback_;
};

/// scan_candump cuts a log of n bytes into at most n / kMinChunkBytes + 1
/// chunks, so a log under this size is one chunk whatever the worker count.
inline constexpr std::size_t kMinChunkBytes = 1u << 20;

/// Scan one candump log held in memory as file index `file`, appending its
/// records (channel indices interned into `out.channels`), diagnostics and
/// line count to `out`. Blank lines and '#' comment lines are skipped
/// silently; an entirely empty file yields a whole-file diagnostic. When
/// `sched` is non-null the byte range is counted and parsed in parallel
/// chunks on its workers; output is byte-identical either way.
void scan_candump(std::string_view text, std::uint32_t file, ParsedLog& out,
                  verify::VerifyScheduler* sched = nullptr);

/// Finish ingestion after every file has been scanned: emit a Warning
/// diagnostic for each timestamp regression within a file, then stable-sort
/// the merged records by timestamp (ties keep file-then-line order) unless
/// the same walk found them in timestamp order already.
void finalize_merge(ParsedLog& log);

}  // namespace ecucsp::replay
