#include "replay/log.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <stdexcept>
#include <system_error>

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

/// Output of one byte-range scan; line numbers and channel indices are
/// chunk-local until the merge step rebases them.
struct ChunkScan {
  std::vector<LogRecord> records;
  std::vector<std::string> channels;
  std::vector<LogDiagnostic> diagnostics;
  std::size_t lines = 0;
};

ChunkScan scan_chunk(std::string_view text, std::uint32_t file,
                     std::uint64_t base_offset) {
  ChunkScan out;
  std::map<std::string, std::uint16_t> channel_of;
  std::size_t pos = 0;
  std::string error;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    const std::uint64_t offset = base_offset + pos;
    ++out.lines;
    const std::uint32_t lineno = static_cast<std::uint32_t>(out.lines);
    pos = eol + 1;

    // Blank lines and '#' comments are structure, not evidence.
    std::string_view body = line;
    while (!body.empty() && (body.front() == ' ' || body.front() == '\t')) {
      body.remove_prefix(1);
    }
    if (body.empty() || body == "\r" || body.front() == '#') continue;

    const auto rec = can::parse_candump_line(line, &error);
    if (!rec) {
      out.diagnostics.push_back(
          {file, lineno, offset, DiagSeverity::Error, error});
      continue;
    }
    LogRecord r;
    r.frame = rec->frame;
    r.file = file;
    r.line = lineno;
    r.byte_offset = offset;
    auto [it, inserted] = channel_of.try_emplace(
        rec->channel, static_cast<std::uint16_t>(out.channels.size()));
    if (inserted) out.channels.push_back(rec->channel);
    r.channel = it->second;
    out.records.push_back(r);
  }
  return out;
}

/// Rebase one chunk's records/diagnostics into the shared log: global line
/// numbers, global channel indices.
void absorb_chunk(ChunkScan&& chunk, std::size_t line_base, ParsedLog& out) {
  std::vector<std::uint16_t> channel_map(chunk.channels.size());
  for (std::size_t i = 0; i < chunk.channels.size(); ++i) {
    const auto it = std::find(out.channels.begin(), out.channels.end(),
                              chunk.channels[i]);
    if (it != out.channels.end()) {
      channel_map[i] = static_cast<std::uint16_t>(it - out.channels.begin());
    } else {
      channel_map[i] = static_cast<std::uint16_t>(out.channels.size());
      out.channels.push_back(chunk.channels[i]);
    }
  }
  for (LogRecord& r : chunk.records) {
    r.line += static_cast<std::uint32_t>(line_base);
    r.channel = channel_map[r.channel];
    out.records.push_back(r);
  }
  for (LogDiagnostic& d : chunk.diagnostics) {
    d.line += static_cast<std::uint32_t>(line_base);
    out.add_diagnostic(std::move(d));
  }
  out.lines += chunk.lines;
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
  // chunking yields identical output once the chunks are absorbed in order.
  const unsigned workers = sched != nullptr ? sched->jobs() : 1;
  const std::size_t chunks =
      std::min<std::size_t>(workers * 4, text.size() / kMinChunkBytes + 1);
  if (sched == nullptr || workers <= 1 || chunks <= 1) {
    absorb_chunk(scan_chunk(text, file, 0), /*line_base=*/0, out);
    return;
  }

  std::vector<std::pair<std::size_t, std::size_t>> ranges;  // [lo, hi)
  std::size_t lo = 0;
  for (std::size_t c = 0; c < chunks && lo < text.size(); ++c) {
    std::size_t hi = (c + 1 == chunks)
                         ? text.size()
                         : lo + std::max<std::size_t>(
                                    1, (text.size() - lo) / (chunks - c));
    if (hi < text.size()) {
      const std::size_t nl = text.find('\n', hi);
      hi = nl == std::string_view::npos ? text.size() : nl + 1;
    }
    ranges.emplace_back(lo, hi);
    lo = hi;
  }

  // run_bool_batch throws if any chunk's scan throws, so a failed chunk
  // is an error exit, as it is on one job, never a silently empty chunk.
  std::vector<ChunkScan> results(ranges.size());
  std::vector<std::function<bool(CancelToken&)>> scans(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    scans[i] = [&, i](CancelToken&) {
      const auto [clo, chi] = ranges[i];
      results[i] = scan_chunk(text.substr(clo, chi - clo), file, clo);
      return true;
    };
  }
  verify::run_bool_batch(*sched, scans, "scan-chunk");

  // Absorb in range order; rebase each chunk's local line numbers onto the
  // lines already absorbed *of this file*, so numbering matches a
  // sequential scan exactly.
  std::size_t file_lines = 0;
  for (ChunkScan& chunk : results) {
    const std::size_t chunk_lines = chunk.lines;
    absorb_chunk(std::move(chunk), file_lines, out);
    file_lines += chunk_lines;
  }
}

void finalize_merge(ParsedLog& log) {
  // Timestamp regressions within one file: the recorder's clock stepped
  // back (or the log was concatenated out of order). The record is kept —
  // the merge sort below puts it where its timestamp says — but the
  // regression itself is evidence worth surfacing.
  std::uint32_t prev_file = 0xffffffffu;
  std::uint64_t prev_ts = 0;
  for (const LogRecord& r : log.records) {
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

  // A one-file log is usually in order already; skip the sort then.
  const auto earlier = [](const LogRecord& a, const LogRecord& b) {
    return a.frame.timestamp_us < b.frame.timestamp_us;
  };
  if (!std::is_sorted(log.records.begin(), log.records.end(), earlier)) {
    std::stable_sort(log.records.begin(), log.records.end(), earlier);
  }
}

}  // namespace ecucsp::replay
