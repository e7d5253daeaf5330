#include "replay/log.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <system_error>
#include <tuple>
#include <utility>

#include "can/candump.hpp"
#include "verify/scheduler.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define ECUCSP_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define ECUCSP_HAVE_MMAP 0
#endif

#include <fstream>

namespace ecucsp::replay {

std::string_view to_string(DiagSeverity s) {
  return s == DiagSeverity::Error ? "error" : "warning";
}

void ParsedLog::add_diagnostic(LogDiagnostic d) {
  ++diagnostic_count;
  if (diagnostics.size() < kMaxStoredDiagnostics) {
    diagnostics.push_back(std::move(d));
  }
}

// --- MappedFile --------------------------------------------------------------

MappedFile::MappedFile(const std::filesystem::path& path) {
#if ECUCSP_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("cannot open log file '" + path.string() + "'");
  }
  struct stat st{};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    void* p = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                     MAP_PRIVATE, fd, 0);
    if (p != MAP_FAILED) {
      mapped_ = p;
      mapped_size_ = static_cast<std::size_t>(st.st_size);
      view_ = std::string_view(static_cast<const char*>(p), mapped_size_);
      ::close(fd);
      return;
    }
  }
  // Bounded-read fallback: not a regular file, empty, or mmap refused.
  if (st.st_size == 0 && S_ISREG(st.st_mode)) {
    ::close(fd);
    view_ = std::string_view();
    return;
  }
  constexpr std::size_t kChunk = 1u << 20;
  std::string buf(kChunk, '\0');
  for (;;) {
    const ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw std::runtime_error("cannot read log file '" + path.string() + "'");
    }
    if (n == 0) break;
    fallback_.append(buf.data(), static_cast<std::size_t>(n));
  }
  ::close(fd);
  view_ = fallback_;
#else
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open log file '" + path.string() + "'");
  }
  constexpr std::size_t kChunk = 1u << 20;
  std::string buf(kChunk, '\0');
  while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
         in.gcount() > 0) {
    fallback_.append(buf.data(), static_cast<std::size_t>(in.gcount()));
  }
  view_ = fallback_;
#endif
}

MappedFile::~MappedFile() {
#if ECUCSP_HAVE_MMAP
  if (mapped_ != nullptr) ::munmap(mapped_, mapped_size_);
#endif
}

// --- scanning ----------------------------------------------------------------

namespace {

/// One byte range [lo, hi) of a file. Its records are parsed straight into
/// the shared array from `first_slot` on, with file-global line numbers and
/// channel indices into the chunk's own first-seen table `channels`.
struct ChunkScan {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t lines = 0;
  std::size_t slots = 0;  // lines that are not skipped: at most one record each
  std::size_t first_line = 0;  // prefix sums over the earlier chunks
  std::size_t first_slot = 0;
  std::size_t records = 0;
  std::vector<std::string_view> channels;
  // Line, byte offset and message of each malformed line.
  std::vector<std::tuple<std::uint32_t, std::uint64_t, const char*>> errors;
};

/// The end of the line that starts at `pos`: its '\n', or `hi`.
std::size_t line_end(std::string_view text, std::size_t pos, std::size_t hi) {
  const void* nl = std::memchr(text.data() + pos, '\n', hi - pos);
  return nl != nullptr ? static_cast<std::size_t>(
                             static_cast<const char*>(nl) - text.data())
                       : hi;
}

/// Blank lines and '#' comments are structure, not evidence.
bool skipped(std::string_view line) {
  const std::size_t body = line.find_first_not_of(" \t");
  return body == std::string_view::npos || line[body] == '#' ||
         line.substr(body) == "\r";
}

void scan_chunk(std::string_view text, std::uint32_t file, ChunkScan& chunk,
                LogRecord* slots) {
  LogRecord* r = slots + chunk.first_slot;
  std::size_t lineno = chunk.first_line;
  std::string_view channel;
  for (std::size_t pos = chunk.lo, eol; pos < chunk.hi; pos = eol + 1) {
    eol = line_end(text, pos, chunk.hi);
    const std::string_view line = text.substr(pos, eol - pos);
    ++lineno;
    if (skipped(line)) continue;
    if (const char* what = can::parse_candump_line(line, r->frame, channel)) {
      chunk.errors.emplace_back(static_cast<std::uint32_t>(lineno), pos, what);
      continue;
    }
    r->file = file;
    r->line = static_cast<std::uint32_t>(lineno);
    r->byte_offset = pos;
    const auto known = std::find(chunk.channels.begin(), chunk.channels.end(),
                                 channel);
    r->channel = static_cast<std::uint16_t>(known - chunk.channels.begin());
    if (known == chunk.channels.end()) chunk.channels.push_back(channel);
    ++r;
  }
  chunk.records = static_cast<std::size_t>(r - (slots + chunk.first_slot));
}

}  // namespace

void scan_candump(std::string_view text, std::uint32_t file, ParsedLog& out,
                  verify::VerifyScheduler* sched) {
  if (text.empty()) {
    out.add_diagnostic({file, 0, 0, DiagSeverity::Error, "empty log file"});
    return;
  }

  // Cut into byte ranges at newline boundaries. The split is purely a
  // parallelism decision: per-line parsing is split-invariant, so any
  // chunking yields identical output once the chunks are joined in order.
  const std::size_t workers = sched != nullptr ? sched->jobs() : 1;
  const std::size_t want =
      workers <= 1 ? 1
                   : std::min(workers * 4, text.size() / kMinChunkBytes + 1);
  std::vector<ChunkScan> chunks;
  for (std::size_t lo = 0, c = 0; lo < text.size(); ++c) {
    std::size_t hi = c + 1 >= want
                         ? text.size()
                         : lo + std::max<std::size_t>(
                                    1, (text.size() - lo) / (want - c));
    if (hi < text.size()) {
      const std::size_t nl = text.find('\n', hi);
      hi = nl == std::string_view::npos ? text.size() : nl + 1;
    }
    ChunkScan& chunk = chunks.emplace_back();
    chunk.lo = lo;
    chunk.hi = hi;
    lo = hi;
  }

  // Each step runs one task per chunk, on the workers when there are
  // several. run_bool_batch throws if any task throws, so a failed chunk is
  // an error exit, as it is on one job, never a silently empty chunk.
  const auto each_chunk = [&](std::string_view label, auto&& step) {
    if (chunks.size() == 1) {
      step(chunks[0]);
      return;
    }
    std::vector<std::function<bool(CancelToken&)>> tasks;
    tasks.reserve(chunks.size());
    for (ChunkScan& chunk : chunks) {
      tasks.emplace_back([&](CancelToken&) {
        step(chunk);
        return true;
      });
    }
    verify::run_bool_batch(*sched, tasks, label);
  };

  // 1. Count each chunk's lines, and the lines that can hold a record; the
  //    prefix sums are its first line number and its first record slot.
  each_chunk("count-chunk", [&](ChunkScan& chunk) {
    for (std::size_t pos = chunk.lo, eol; pos < chunk.hi; pos = eol + 1) {
      eol = line_end(text, pos, chunk.hi);
      ++chunk.lines;
      chunk.slots += !skipped(text.substr(pos, eol - pos));
    }
  });
  std::size_t lines = 0;
  std::size_t slot_count = 0;
  for (ChunkScan& chunk : chunks) {
    chunk.first_line = std::exchange(lines, lines + chunk.lines);
    chunk.first_slot = std::exchange(slot_count, slot_count + chunk.slots);
  }

  // 2. Size the array once; each chunk parses into its own slots.
  const std::size_t base = out.records.size();
  out.records.resize(base + slot_count);
  LogRecord* const slots = out.records.data() + base;
  each_chunk("scan-chunk", [&](ChunkScan& chunk) {
    scan_chunk(text, file, chunk, slots);
  });

  // 3. Join in chunk order: move a chunk's records down over the slots that
  //    malformed lines in earlier chunks left empty, and map its channel
  //    table onto the log's unless it is a prefix of it already.
  LogRecord* joined = slots;
  std::vector<std::uint16_t> global;
  for (const ChunkScan& chunk : chunks) {
    global.clear();
    bool prefix = true;
    for (const std::string_view name : chunk.channels) {
      const auto it = std::find(out.channels.begin(), out.channels.end(), name);
      const auto at = static_cast<std::size_t>(it - out.channels.begin());
      if (it == out.channels.end()) out.channels.emplace_back(name);
      prefix = prefix && at == global.size();
      global.push_back(static_cast<std::uint16_t>(at));
    }
    LogRecord* const first = slots + chunk.first_slot;
    if (joined != first) std::copy(first, first + chunk.records, joined);
    joined += chunk.records;
    if (!prefix) {
      for (LogRecord* r = joined - chunk.records; r != joined; ++r) {
        r->channel = global[r->channel];
      }
    }
    for (const auto& [line, offset, message] : chunk.errors) {
      out.add_diagnostic({file, line, offset, DiagSeverity::Error, message});
    }
  }
  out.records.resize(static_cast<std::size_t>(joined - out.records.data()));
  out.lines += lines;
}

void finalize_merge(ParsedLog& log) {
  // Timestamp regressions within one file: the recorder's clock stepped
  // back (or the log was concatenated out of order). The record is kept —
  // the merge sort below puts it where its timestamp says — but the
  // regression itself is evidence worth surfacing. The same walk notes
  // whether the merged records are in timestamp order already (a one-file
  // log usually is), so the sort runs only when they are not.
  std::uint32_t prev_file = 0xffffffffu;
  std::uint64_t prev_ts = 0;
  std::uint64_t last_ts = 0;  // of the record before, whatever its file
  bool sorted = true;
  for (const LogRecord& r : log.records) {
    sorted = sorted && last_ts <= r.frame.timestamp_us;
    last_ts = r.frame.timestamp_us;
    if (r.file != prev_file) {
      prev_file = r.file;
      prev_ts = r.frame.timestamp_us;
      continue;
    }
    if (r.frame.timestamp_us < prev_ts) {
      log.add_diagnostic({r.file, r.line, r.byte_offset, DiagSeverity::Warning,
                          "timestamp out of order within this file"});
    }
    prev_ts = std::max(prev_ts, r.frame.timestamp_us);
  }
  if (!sorted) {
    std::stable_sort(log.records.begin(), log.records.end(),
                     [](const LogRecord& a, const LogRecord& b) {
                       return a.frame.timestamp_us < b.frame.timestamp_us;
                     });
  }
}

}  // namespace ecucsp::replay
