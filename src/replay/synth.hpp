// Seeded synthetic candump logs: honest OTA dialogues plus optional
// injected attacks with a known ground-truth divergence index.
//
// One generator feeds both the replay tests and the benchmark's replay
// workload, so "the injected frame is exactly the reported first
// divergence" is checkable at any log size. Honest logs satisfy R01–R05 by construction (request/report
// pairs, inventory first); the two attacks are the paper's bus-level
// threats: Replay re-transmits a byte-identical copy of an earlier genuine
// UpdReport, Masquerade fabricates a fresh one. Both abstract to a spurious
// rec.UpdReport that R04's counting oracle rejects at exactly the injected
// event index, because injection happens at a pair boundary where no
// UpdApplyReq is outstanding.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "can/frame.hpp"
#include "conform/harness.hpp"

namespace ecucsp::replay {

enum class Attack {
  None,
  Replay,      // byte-copy of an earlier genuine UpdReport
  Masquerade,  // fabricated UpdReport the ECU never sent
};

struct SynthOptions {
  std::uint64_t seed = 1;
  /// Target event/frame count (every synthesized frame decodes to exactly
  /// one event). The generator emits whole request/report pairs, so the
  /// actual count can exceed this by one.
  std::size_t frames = 1000;
  std::string channel = "can0";
  Attack attack = Attack::None;
  /// Preferred injection point; the generator uses the first pair boundary
  /// at or after this index (boundaries are where R04's outstanding count
  /// is zero, which pins the divergence to the injected frame itself).
  std::size_t attack_at = 0;
  std::uint64_t start_us = 1'700'000'000ull * 1'000'000ull;
  std::uint64_t step_us = 250;
};

struct SynthLog {
  std::string text;                 // candump -L log text
  std::vector<std::string> events;  // the abstract trace the log decodes to
  std::size_t frames = 0;
  /// Event index of the injected attack frame; npos when attack == None.
  std::size_t injected_index = npos;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Inverse of FrameCodec::abstract_frame for producible events: a canonical
/// frame whose abstraction is exactly `event`. Handles the "Bad" MAC twin
/// (forged tag). Returns nullopt for names the codec cannot realise
/// (unknown constructor, channel inconsistent with the id's direction).
std::optional<can::CanFrame> frame_for_event(const conform::FrameCodec& codec,
                                             const std::string& event);

/// Render an abstract event trace as candump text using canonical frames,
/// timestamps start_us + i * step_us. Throws std::invalid_argument on an
/// event frame_for_event cannot realise.
std::string render_candump(const conform::FrameCodec& codec,
                           const std::vector<std::string>& events,
                           std::string_view channel, std::uint64_t start_us,
                           std::uint64_t step_us = 250);

/// Generate a seeded honest dialogue (plus the injected attack when
/// requested) against `codec`. Deterministic in SynthOptions.
SynthLog synthesize_log(const conform::FrameCodec& codec,
                        const SynthOptions& opt);

}  // namespace ecucsp::replay
