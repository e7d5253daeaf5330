// Offline runtime verification of logged CAN traffic: ingest candump logs,
// decode through the DBC-backed FrameCodec, sweep the spec oracles, report
// the divergences with full frame provenance.
//
// This is the "check the fleet's evidence after the fact" counterpart of
// the live conformance harness: the same R01–R05 requirement oracles (and
// optionally the CAPL-extracted model oracle) judge a recorded bus trace
// instead of a simulated one. The report is reproducible evidence — the
// JSON rendering (replay_format 1) deliberately carries no timing and no
// worker-count echo, so two runs over the same logs are byte-identical at
// any --jobs setting (CI diffs them).
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "replay/log.hpp"

namespace ecucsp::replay {

struct ReplayOptions {
  std::vector<std::filesystem::path> logs;
  /// DBC file describing the logged traffic; nullopt = the built-in X.1373
  /// OTA database (src/ota).
  std::optional<std::filesystem::path> dbc;
  /// Spec oracles: "R01".."R05", "model" (CAPL-extracted ECU model),
  /// "all". Empty = R01..R05.
  std::vector<std::string> specs;
  unsigned jobs = 0;  // scheduler workers; 0 = hardware
  /// Ignored: each oracle is one walk. Frozen until the benchmark drops it.
  std::size_t chunk = 1u << 16;
  bool strict = false;          // any ingest diagnostic fails the run
  std::size_t max_diverge = 1;  // divergences reported per oracle
  std::size_t max_states = 1u << 20;  // model-oracle compile budget
};

/// Where a divergent event came from, down to the log line.
struct FrameProvenance {
  std::string file;     // log path as given
  std::string channel;  // interface name from the log
  std::uint64_t timestamp_us = 0;
  std::uint32_t line = 0;  // 1-based line in `file`
  std::uint64_t byte_offset = 0;
  std::string raw;  // the frame's id#data token, candump notation
};

struct ReplayDivergence {
  std::size_t event_index = 0;  // into the decoded event trace
  std::string event;
  std::vector<std::string> offered;  // what the spec allowed instead
  std::string reason;
  FrameProvenance frame;
};

struct OracleReport {
  std::string name;
  bool accepted = true;
  bool truncated = false;  // more divergences exist beyond max_diverge
  std::vector<ReplayDivergence> divergences;
};

struct ReplayReport {
  std::vector<std::string> logs;
  bool strict = false;
  std::size_t lines = 0;
  std::size_t frames = 0;  // well-formed records ingested
  std::size_t events = 0;  // decoded trace length
  std::size_t channels = 0;
  std::size_t diagnostic_count = 0;       // uncapped total
  std::vector<LogDiagnostic> diagnostics; // stored subset (see ParsedLog)
  std::vector<std::string> diagnostic_files;  // file index -> path
  std::vector<OracleReport> oracles;

  // Run facts that must NOT leak into render_json(): they vary run-to-run
  // or with the worker count, and the JSON is diffed across both.
  unsigned jobs_used = 1;
  double wall_ms = 0.0;

  /// Every oracle accepted, and (under strict) the ingest was clean.
  bool ok() const;

  std::string render_text() const;
  /// Deterministic "replay_format":1 document — byte-identical for the
  /// same logs and spec set at any worker count.
  std::string render_json() const;
};

/// Run the whole offline check. Throws std::runtime_error on unusable
/// inputs (unreadable log/DBC file, unknown spec name).
ReplayReport run_replay(const ReplayOptions& opt);

}  // namespace ecucsp::replay
