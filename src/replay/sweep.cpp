#include "replay/sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>

#include "verify/scheduler.hpp"

namespace ecucsp::replay {

DecodedTrace decode_trace(ParsedLog& log, const conform::FrameCodec& codec) {
  DecodedTrace out;

  // Pre-resolve every CAN id the codec knows to its interned event id(s)
  // once, so the per-record loop is a map probe plus (for the MAC id) one
  // byte compare — the decode matches FrameCodec::abstract_frame exactly
  // without per-frame string assembly.
  struct IdEvents {
    std::uint32_t good = 0;
    std::uint32_t bad = 0;  // == good unless the id carries the MAC tag
  };
  std::map<can::CanId, IdEvents> events_of;
  for (const auto& [id, ctor] : codec.ctor_of) {
    const bool tx = std::find(codec.tx_ids.begin(), codec.tx_ids.end(), id) !=
                    codec.tx_ids.end();
    const std::string& channel = tx ? codec.tx_channel : codec.rx_channel;
    IdEvents ev;
    ev.good = static_cast<std::uint32_t>(out.names.size());
    out.names.push_back(channel + "." + ctor);
    ev.bad = ev.good;
    if (codec.mac_id && id == *codec.mac_id) {
      ev.bad = static_cast<std::uint32_t>(out.names.size());
      out.names.push_back(channel + "." + ctor + "Bad");
    }
    events_of.emplace(id, ev);
  }

  out.events.reserve(log.records.size());
  out.record_of.reserve(log.records.size());
  for (std::size_t i = 0; i < log.records.size(); ++i) {
    const LogRecord& r = log.records[i];
    const auto it = events_of.find(r.frame.id);
    if (it == events_of.end()) {
      char idbuf[16];
      std::snprintf(idbuf, sizeof(idbuf), "%X", r.frame.id);
      log.add_diagnostic({r.file, r.line, r.byte_offset, DiagSeverity::Error,
                          std::string("unknown CAN id 0x") + idbuf});
      continue;
    }
    const IdEvents& ev = it->second;
    const bool bad_tag =
        codec.mac_id && r.frame.id == *codec.mac_id &&
        r.frame.byte(7) !=
            static_cast<std::uint8_t>(codec.mac_key ^ r.frame.byte(0));
    out.events.push_back(bad_tag ? ev.bad : ev.good);
    out.record_of.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

CompiledOracle compile_for_trace(const conform::TraceOracle& oracle,
                                 const std::vector<std::string>& names) {
  CompiledOracle out;
  out.source = &oracle;
  const auto nodes = static_cast<std::uint32_t>(oracle.automaton.state_count());
  out.n_events = static_cast<std::uint32_t>(names.size());
  out.step.resize(static_cast<std::size_t>(nodes) * out.n_events);
  for (std::uint32_t e = 0; e < out.n_events; ++e) {
    const std::uint32_t resolved = oracle.resolve(names[e]);
    for (std::uint32_t n = 0; n < nodes; ++n) {
      out.step[static_cast<std::size_t>(n) * out.n_events + e] =
          oracle.advance(n, resolved);
    }
  }
  return out;
}

namespace {

/// One oracle's walk over the whole trace from its root. The first `cap`
/// divergences are kept; the walk stops at the one after them, which only
/// sets the truncation flag.
OracleSweep walk(const CompiledOracle& o,
                 const std::vector<std::uint32_t>& events, std::size_t cap) {
  OracleSweep sw;
  std::uint32_t node = o.source->automaton.root;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint32_t v = o.at(node, events[i]);
    if (v == conform::TraceOracle::kSkip) continue;
    if (v >= conform::TraceOracle::kRejectStuck) {
      // Skip-and-continue: report, leave the node unchanged, move on.
      if (sw.divergences.size() == cap) {
        sw.truncated = true;
        break;
      }
      sw.divergences.push_back({i, node, v});
      continue;
    }
    node = v;
  }
  return sw;
}

}  // namespace

std::vector<OracleSweep> sweep_trace(const std::vector<CompiledOracle>& oracles,
                                     const std::vector<std::uint32_t>& events,
                                     const SweepOptions& opt,
                                     verify::VerifyScheduler& sched) {
  const std::size_t cap = std::max<std::size_t>(1, opt.max_diverge);
  std::vector<OracleSweep> sweeps(oracles.size());
  std::vector<std::function<bool(CancelToken&)>> walks;
  walks.reserve(oracles.size());
  for (std::size_t oi = 0; oi < oracles.size(); ++oi) {
    walks.push_back([&, oi](CancelToken&) {
      sweeps[oi] = walk(oracles[oi], events, cap);
      return true;
    });
  }
  verify::run_bool_batch(sched, walks, "sweep");
  return sweeps;
}

}  // namespace ecucsp::replay
