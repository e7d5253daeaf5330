#include "replay/sweep.hpp"

#include <algorithm>
#include <cstdio>
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
  out.nodes = static_cast<std::uint32_t>(oracle.automaton.state_count());
  out.n_events = static_cast<std::uint32_t>(names.size());
  out.step.resize(static_cast<std::size_t>(out.nodes) * out.n_events);
  for (std::uint32_t e = 0; e < out.n_events; ++e) {
    const std::uint32_t resolved = oracle.resolve(names[e]);
    for (std::uint32_t n = 0; n < out.nodes; ++n) {
      out.step[static_cast<std::size_t>(n) * out.n_events + e] =
          oracle.advance(n, resolved);
    }
  }
  return out;
}

namespace {

/// Outcome of walking one chunk from one start node: the end node plus the
/// divergences encountered (global event indices), capped at the sweep's
/// max_diverge with a non-silent overflow flag.
struct StartOutcome {
  std::uint32_t end = 0;
  bool more = false;
  std::vector<SweepDivergence> divergences;
};

StartOutcome walk_chunk(const CompiledOracle& o, const std::uint32_t* events,
                        std::size_t count, std::size_t base,
                        std::uint32_t from, std::size_t cap) {
  StartOutcome so;
  so.end = from;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t v = o.at(so.end, events[i]);
    if (v == conform::TraceOracle::kSkip) continue;
    if (v >= conform::TraceOracle::kRejectStuck) {
      // Skip-and-continue: report, leave the node unchanged, move on.
      if (so.divergences.size() < cap) {
        so.divergences.push_back({base + i, so.end, v});
      } else {
        so.more = true;
      }
      continue;
    }
    so.end = v;
  }
  return so;
}

}  // namespace

std::vector<OracleSweep> sweep_trace(const std::vector<CompiledOracle>& oracles,
                                     const std::vector<std::uint32_t>& events,
                                     const SweepOptions& opt,
                                     verify::VerifyScheduler& sched) {
  std::vector<OracleSweep> sweeps(oracles.size());
  if (events.empty() || oracles.empty()) return sweeps;

  const std::size_t chunk =
      opt.chunk == 0 ? events.size() : std::max<std::size_t>(1, opt.chunk);
  const std::size_t n_chunks = (events.size() + chunk - 1) / chunk;
  const std::size_t cap = std::max<std::size_t>(1, opt.max_diverge);

  // chunk_maps[c][oi][node] — the chunk's start-node -> outcome map. Chunk 0
  // only ever starts at the root, so only that slot is computed there.
  std::vector<std::vector<std::vector<StartOutcome>>> chunk_maps(n_chunks);

  const auto eval_chunk = [&](std::size_t c) {
    const std::size_t lo = c * chunk;
    const std::size_t hi = std::min(lo + chunk, events.size());
    auto& per_oracle = chunk_maps[c];
    per_oracle.resize(oracles.size());
    for (std::size_t oi = 0; oi < oracles.size(); ++oi) {
      const CompiledOracle& o = oracles[oi];
      per_oracle[oi].resize(o.nodes);
      if (c == 0) {
        const std::uint32_t root = o.source->automaton.root;
        per_oracle[oi][root] =
            walk_chunk(o, events.data() + lo, hi - lo, lo, root, cap);
      } else {
        for (std::uint32_t n = 0; n < o.nodes; ++n) {
          per_oracle[oi][n] =
              walk_chunk(o, events.data() + lo, hi - lo, lo, n, cap);
        }
      }
    }
  };

  if (sched.jobs() <= 1 || n_chunks <= 1) {
    for (std::size_t c = 0; c < n_chunks; ++c) eval_chunk(c);
  } else {
    std::vector<verify::CheckTask> tasks(n_chunks);
    for (std::size_t c = 0; c < n_chunks; ++c) {
      tasks[c].name = "sweep-chunk-" + std::to_string(c);
      tasks[c].custom = [&eval_chunk, c](CancelToken&) -> verify::RenderedCheck {
        eval_chunk(c);
        verify::RenderedCheck ok;
        ok.result.passed = true;
        return ok;
      };
    }
    sched.run(tasks);
  }

  // Sequential fold: thread the real oracle state through the per-chunk
  // maps in chunk order. Chunk results depend only on the chunk contents
  // and the (fixed) chunk size, and this fold is sequential, so the sweep
  // output is independent of worker count and of how many workers the
  // chunks landed on.
  for (std::size_t oi = 0; oi < oracles.size(); ++oi) {
    OracleSweep& sw = sweeps[oi];
    std::uint32_t node = oracles[oi].source->automaton.root;
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const StartOutcome& so = chunk_maps[c][oi][node];
      for (const SweepDivergence& d : so.divergences) {
        if (sw.divergences.size() < cap) {
          sw.divergences.push_back(d);
        } else {
          sw.truncated = true;
        }
      }
      if (so.more) sw.truncated = true;
      node = so.end;
    }
  }
  return sweeps;
}

}  // namespace ecucsp::replay
