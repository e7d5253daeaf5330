#include "replay/replay.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "can/candump.hpp"
#include "can/dbc.hpp"
#include "conform/harness.hpp"
#include "conform/requirements.hpp"
#include "core/json.hpp"
#include "ota/ota.hpp"
#include "replay/sweep.hpp"
#include "verify/scheduler.hpp"

namespace ecucsp::replay {

namespace {

/// The id#data token of candump notation — provenance a user can grep for
/// in the original log.
std::string raw_token(const can::CanFrame& f) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), f.extended ? "%08X" : "%03X", f.id);
  std::string out = buf;
  out += '#';
  static constexpr char kHex[] = "0123456789ABCDEF";
  for (std::size_t i = 0; i < f.dlc && i < 8; ++i) {
    out += kHex[f.data[i] >> 4];
    out += kHex[f.data[i] & 0xF];
  }
  return out;
}

std::vector<conform::TraceOracle> resolve_specs(
    const std::vector<std::string>& specs, std::size_t max_states) {
  std::vector<std::string> names = specs;
  if (names.empty()) names = {"R01", "R02", "R03", "R04", "R05"};
  std::vector<conform::TraceOracle> out;
  for (const std::string& s : names) {
    if (s == "all") {
      for (auto& o : conform::ota_requirement_oracles()) {
        out.push_back(std::move(o));
      }
      out.push_back(conform::ota_model_oracle(max_states));
    } else if (s == "model") {
      out.push_back(conform::ota_model_oracle(max_states));
    } else {
      out.push_back(conform::requirement_oracle(s));  // throws on junk
    }
  }
  return out;
}

}  // namespace

bool ReplayReport::ok() const {
  for (const OracleReport& o : oracles) {
    if (!o.accepted) return false;
  }
  return !strict || diagnostic_count == 0;
}

ReplayReport run_replay(const ReplayOptions& opt) {
  if (opt.logs.empty()) {
    throw std::runtime_error("no log files to replay");
  }
  const auto t0 = std::chrono::steady_clock::now();

  verify::VerifyScheduler sched{{.jobs = opt.jobs}};

  // DBC + codec. The codec is the same frame<->event bridge the live
  // harness uses, so offline and online verdicts share one abstraction.
  can::DbcDatabase db;
  if (opt.dbc) {
    const MappedFile dbc_file(*opt.dbc);
    db = can::parse_dbc(dbc_file.view());
  } else {
    db = can::parse_dbc(ota::ota_dbc_text());
  }
  const conform::FrameCodec codec = conform::ota_codec(db);

  ReplayReport report;
  report.strict = opt.strict;
  report.jobs_used = sched.jobs();
  for (const auto& p : opt.logs) {
    report.logs.push_back(p.string());
    report.diagnostic_files.push_back(p.string());
  }

  // Ingest + merge.
  ParsedLog log;
  for (std::size_t i = 0; i < opt.logs.size(); ++i) {
    const MappedFile mf(opt.logs[i]);
    scan_candump(mf.view(), static_cast<std::uint32_t>(i), log, &sched);
  }
  finalize_merge(log);

  // Decode to the abstract event trace (unknown ids become diagnostics).
  const DecodedTrace trace = decode_trace(log, codec);

  report.lines = log.lines;
  report.frames = log.records.size();
  report.events = trace.events.size();
  report.channels = log.channels.size();

  // Oracles: compile against this trace's interned events, then sweep.
  const std::vector<conform::TraceOracle> oracles =
      resolve_specs(opt.specs, opt.max_states);
  std::vector<CompiledOracle> compiled;
  compiled.reserve(oracles.size());
  for (const conform::TraceOracle& o : oracles) {
    compiled.push_back(compile_for_trace(o, trace.names));
  }
  SweepOptions sweep_opt;
  sweep_opt.max_diverge = opt.max_diverge;
  const std::vector<OracleSweep> sweeps =
      sweep_trace(compiled, trace.events, sweep_opt, sched);

  for (std::size_t oi = 0; oi < oracles.size(); ++oi) {
    OracleReport rep;
    rep.name = oracles[oi].name;
    rep.truncated = sweeps[oi].truncated;
    rep.accepted = sweeps[oi].accepted();
    for (const SweepDivergence& d : sweeps[oi].divergences) {
      ReplayDivergence out;
      out.event_index = d.event_index;
      out.event = trace.names[trace.events[d.event_index]];
      out.offered = oracles[oi].automaton.offered(d.node);
      out.reason = conform::rejection_reason(d.why);
      const LogRecord& r = log.records[trace.record_of[d.event_index]];
      out.frame.file = report.logs[r.file];
      out.frame.channel =
          r.channel < log.channels.size() ? log.channels[r.channel] : "";
      out.frame.timestamp_us = r.frame.timestamp_us;
      out.frame.line = r.line;
      out.frame.byte_offset = r.byte_offset;
      out.frame.raw = raw_token(r.frame);
      rep.divergences.push_back(std::move(out));
    }
    report.oracles.push_back(std::move(rep));
  }

  report.diagnostic_count = log.diagnostic_count;
  report.diagnostics = std::move(log.diagnostics);

  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return report;
}

// --- rendering ---------------------------------------------------------------

std::string ReplayReport::render_text() const {
  std::ostringstream out;
  out << "replay: " << frames << " frames / " << events << " events from "
      << logs.size() << (logs.size() == 1 ? " log (" : " logs (") << lines
      << " lines, " << channels << (channels == 1 ? " channel)" : " channels)")
      << "\n";
  out << "  jobs " << jobs_used << ", wall " << static_cast<long long>(wall_ms)
      << " ms\n";
  if (diagnostic_count > 0) {
    out << "  " << diagnostic_count << " ingest diagnostic"
        << (diagnostic_count == 1 ? "" : "s")
        << (strict ? " (strict: run fails)" : "") << "\n";
    const std::size_t show = std::min<std::size_t>(diagnostics.size(), 10);
    for (std::size_t i = 0; i < show; ++i) {
      const LogDiagnostic& d = diagnostics[i];
      out << "    [" << to_string(d.severity) << "] "
          << (d.file < diagnostic_files.size() ? diagnostic_files[d.file]
                                               : "<log>")
          << ":" << d.line << ": " << d.message << "\n";
    }
    if (diagnostic_count > show) {
      out << "    ... " << (diagnostic_count - show) << " more\n";
    }
  }
  for (const OracleReport& o : oracles) {
    out << "  " << o.name << ": " << (o.accepted ? "PASS" : "FAIL");
    if (!o.divergences.empty()) {
      out << " (" << o.divergences.size() << (o.truncated ? "+" : "")
          << " divergence" << (o.divergences.size() == 1 && !o.truncated ? "" : "s")
          << ")";
    }
    out << "\n";
    for (const ReplayDivergence& d : o.divergences) {
      out << "    event " << d.event_index << " '" << d.event << "': "
          << d.reason << "\n";
      out << "      at " << d.frame.file << ":" << d.frame.line << " ("
          << d.frame.channel << ", t=" << d.frame.timestamp_us << " us, "
          << d.frame.raw << ", offset " << d.frame.byte_offset << ")\n";
      if (!d.offered.empty()) {
        out << "      spec offered:";
        for (const std::string& e : d.offered) out << " " << e;
        out << "\n";
      }
    }
  }
  out << (ok() ? "OK" : "VIOLATION") << "\n";
  return out.str();
}

std::string ReplayReport::render_json() const {
  std::string out = "{\"replay_format\":1";
  out += ",\"logs\":[";
  for (std::size_t i = 0; i < logs.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + json_escape(logs[i]) + '"';
  }
  out += "],\"strict\":";
  out += strict ? "true" : "false";
  out += ",\"ok\":";
  out += ok() ? "true" : "false";
  out += ",\n\"log\":{\"lines\":" + std::to_string(lines);
  out += ",\"frames\":" + std::to_string(frames);
  out += ",\"events\":" + std::to_string(events);
  out += ",\"channels\":" + std::to_string(channels);
  out += ",\"diagnostics\":" + std::to_string(diagnostic_count) + "}";
  out += ",\n\"diagnostics\":[";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const LogDiagnostic& d = diagnostics[i];
    if (i > 0) out += ',';
    out += "\n{\"file\":\"";
    out += json_escape(d.file < diagnostic_files.size()
                           ? diagnostic_files[d.file]
                           : "<log>");
    out += "\",\"line\":" + std::to_string(d.line);
    out += ",\"offset\":" + std::to_string(d.byte_offset);
    out += ",\"severity\":\"";
    out += to_string(d.severity);
    out += "\",\"message\":\"" + json_escape(d.message) + "\"}";
  }
  out += "],\n\"oracles\":[";
  for (std::size_t i = 0; i < oracles.size(); ++i) {
    const OracleReport& o = oracles[i];
    if (i > 0) out += ',';
    out += "\n{\"name\":\"" + json_escape(o.name) + "\"";
    out += ",\"accepted\":";
    out += o.accepted ? "true" : "false";
    out += ",\"truncated\":";
    out += o.truncated ? "true" : "false";
    out += ",\"divergences\":[";
    for (std::size_t j = 0; j < o.divergences.size(); ++j) {
      const ReplayDivergence& d = o.divergences[j];
      if (j > 0) out += ',';
      out += "\n {\"index\":" + std::to_string(d.event_index);
      out += ",\"event\":\"" + json_escape(d.event) + "\"";
      out += ",\"reason\":\"" + json_escape(d.reason) + "\"";
      out += ",\"offered\":[";
      for (std::size_t k = 0; k < d.offered.size(); ++k) {
        if (k > 0) out += ',';
        out += '"' + json_escape(d.offered[k]) + '"';
      }
      out += "],\"frame\":{\"file\":\"" + json_escape(d.frame.file) + "\"";
      out += ",\"channel\":\"" + json_escape(d.frame.channel) + "\"";
      out += ",\"timestamp_us\":" + std::to_string(d.frame.timestamp_us);
      out += ",\"line\":" + std::to_string(d.frame.line);
      out += ",\"offset\":" + std::to_string(d.frame.byte_offset);
      out += ",\"raw\":\"" + json_escape(d.frame.raw) + "\"}}";
    }
    out += "]}";
  }
  std::size_t accepted = 0;
  for (const OracleReport& o : oracles) accepted += o.accepted ? 1 : 0;
  out += "],\n\"summary\":{\"accepted\":" + std::to_string(accepted);
  out += ",\"rejected\":" + std::to_string(oracles.size() - accepted) + "}}\n";
  return out;
}

}  // namespace ecucsp::replay
