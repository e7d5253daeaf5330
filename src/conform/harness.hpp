// Concrete test execution: abstract events <-> CAN frames <-> the
// simulated ECU.
//
// The FrameCodec is the two-way bridge between model and bus: abstraction
// (bus frame -> event name, with the extractor's id-to-constructor
// convention, plus a MAC split that distinguishes genuine
// from forged UpdApplyReq frames) and concretisation (stimulus event name
// -> an injectable frame template). The harness maps a planned abstract
// trace to timed frame injections, drives a CAPL node (or the full
// VMG+ECU dialogue) in a seeded deterministic sim::Environment, and
// returns the abstracted bus trace for the oracles.
//
// The SpanMap closes the reporting loop: every abstract event is linked
// back to the CAPL handler spans that produce or consume it, so a FAIL's
// divergence event lands on source lines, not just on an event name.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "can/dbc.hpp"
#include "can/frame.hpp"
#include "capl/ast.hpp"
#include "core/cancel.hpp"

namespace ecucsp::conform {

struct FrameCodec {
  /// CAN id -> MsgId constructor name (DBC message names, as the extractor
  /// uses them).
  std::map<can::CanId, std::string> ctor_of;
  /// Ids transmitted on tx_channel (the VMG-driven direction); every other
  /// id abstracts to rx_channel.
  std::vector<can::CanId> tx_ids;
  std::string tx_channel = "send";
  std::string rx_channel = "rec";
  /// MAC split: frames of `mac_id` whose tag byte(7) != key ^ byte(0)
  /// abstract to ctor + "Bad" (the attacker cannot forge a valid tag —
  /// the symbolic-MAC abstraction of the paper's R05 discussion).
  std::optional<can::CanId> mac_id;
  std::uint8_t mac_key = 0;
  /// Stimulus frame templates, keyed by the full event name.
  std::map<std::string, can::CanFrame> stimulus_frames;

  std::string abstract_frame(const can::CanFrame& f) const;
  std::vector<std::string> abstract_trace(
      const std::vector<can::CanFrame>& frames) const;
  /// Injectable frame for a stimulus event; nullopt for everything the
  /// harness cannot produce (responses, unknown names).
  std::optional<can::CanFrame> concretize(const std::string& event) const;
};

/// The codec for the X.1373 OTA case study (src/ota reference sources).
/// `alphabet_mismatch` deliberately desynchronises one abstraction name
/// from the model alphabet (--inject-alphabet-mismatch): strict model
/// oracles must surface the drift as a pinned failure.
FrameCodec ota_codec(const can::DbcDatabase& db, bool alphabet_mismatch = false);

// --- event <-> CAPL source spans --------------------------------------------

/// "on start", "on message UpdApplyReq", "on message 259" (a handler named
/// by its decimal id), "on timer t", "on key k": how spans and mutation
/// reports name a handler.
std::string handler_label(const capl::EventHandler& h);

struct CaplSpan {
  std::string node;     // CAPL node name ("ECU", "VMG")
  std::string handler;  // "on message UpdApplyReq", "on start", ...
  int line = 0;
  int column = 0;

  std::string to_string() const;
};

struct SpanMap {
  /// event name -> handler spans that output() the message (producers) or
  /// are dispatched by it (consumers).
  std::map<std::string, std::vector<CaplSpan>> spans;

  std::vector<CaplSpan> lookup(const std::string& event) const;
};

/// Scan `prog` and add its spans: an 'on message X' handler consumes
/// rx_channel.X (and its Bad twin when X rides the codec's mac_id); a
/// handler whose body output()s a declared message variable produces
/// tx_channel.<ctor>. tx/rx are per-node (the ECU transmits on the global
/// "rec" channel).
void add_program_spans(SpanMap& map, const capl::CaplProgram& prog,
                       const std::string& node_name, const FrameCodec& codec,
                       const std::string& tx_channel,
                       const std::string& rx_channel);

// --- executing one abstract test ---------------------------------------------

struct HarnessOptions {
  /// Seeds the environment (stimulus timing jitter via Environment::rng).
  std::uint64_t seed = 0;
  /// Quiescence gap between injected stimuli; must exceed the bus window
  /// by enough for every response cascade to drain.
  std::uint64_t settle_us = 5'000;
  std::uint64_t deadline_us = 2'000'000;
  /// Extra fixed-time injections (attack frames mid-dialogue).
  std::vector<std::pair<std::uint64_t, std::string>> injections_at;
};

struct RunResult {
  std::vector<std::string> observed;  // abstracted bus trace
};

/// Drive `ecu` (and optionally `vmg` for the autonomous dialogue scenario)
/// with the stimuli of `planned` (events the codec can concretize; response
/// events are expectations, not actions). Runs the simulation stepwise and
/// polls `cancel` between events, so per-test timeouts land mid-run.
RunResult run_conformance_test(const capl::CaplProgram& ecu,
                               const capl::CaplProgram* vmg,
                               const can::DbcDatabase& db,
                               const FrameCodec& codec,
                               const std::vector<std::string>& planned,
                               const HarnessOptions& opt,
                               CancelToken* cancel = nullptr);

}  // namespace ecucsp::conform
