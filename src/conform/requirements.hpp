// The Table III requirement oracles as a library surface.
//
// PR 4 built these R01–R05 trace oracles inside the conformance suite;
// offline replay (src/replay) judges logged fleet traffic with exactly the
// same automata, so they live here where both layers — and anything else
// that wants to monitor OTA traffic — can compile them without dragging in
// the whole suite. The oracles are hand-built, portable (string-based, no
// Context) and safe to share read-only across threads.
//
// ota_model_oracle() is the heavier companion: the strict oracle compiled
// from the CSP model extracted from the reference CAPL ECU. It constrains
// *everything* the ECU may do (not just the security requirements), which
// also means it rejects any event name outside the extracted alphabet —
// use it on traffic whose frame population the codec fully covers.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "conform/oracle.hpp"

namespace ecucsp::conform {

/// One Table III requirement oracle by id ("R01".."R05", case-insensitive).
/// Throws std::invalid_argument for anything else.
TraceOracle requirement_oracle(std::string_view id);

/// All five requirement oracles, in R01..R05 order.
std::vector<TraceOracle> ota_requirement_oracles();

/// The strict model oracle: parse the reference CAPL ECU (src/ota), extract
/// its CSP model, compile to a Dfa over the send/rec alphabet.
/// Forged apply requests are in `ignored` — the model deliberately has no
/// word for attacker-injected frames.
TraceOracle ota_model_oracle(std::size_t max_states = 1u << 20);

}  // namespace ecucsp::conform
