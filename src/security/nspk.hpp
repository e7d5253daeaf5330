// The Needham-Schroeder public-key protocol, as a CSP small-system model.
//
// The paper's Section II-B motivates formal checking with exactly this
// protocol: "the security weakness was only exposed 18 years later through
// formal analysis using CSP" (Lowe, 1995). This module builds the classic
// small system — one initiator A, one responder B, a Dolev-Yao intruder
// with its own identity I — for either the original protocol or Lowe's
// fixed variant (which adds the responder's identity to message 2).
//
//   Msg1. A -> B : aenc(pk(B), <Na, A>)
//   Msg2. B -> A : aenc(pk(A), <Na, Nb>)        (fix: <Na, <Nb, B>>)
//   Msg3. A -> B : aenc(pk(B), Nb)
//
// Authentication is expressed with running/commit signal events: the
// responder's commit.b.a must be preceded by the initiator's running.a.b.
#pragma once

#include <memory>
#include <string>

#include "core/context.hpp"
#include "security/intruder.hpp"
#include "security/terms.hpp"

namespace ecucsp::security {

struct NspkSystem {
  NspkSystem() : terms(ctx) {}
  NspkSystem(const NspkSystem&) = delete;
  NspkSystem& operator=(const NspkSystem&) = delete;

  Context ctx;
  TermAlgebra terms;
  ProcessRef system = nullptr;  // (A ||| B) [|{snd,rcv}|] INTRUDER
  EventId running_ab = 0;       // initiator a running with responder b
  EventId commit_ba = 0;        // responder b committing to initiator a
  IntruderConfig intruder;  // the intruder's universe, messages and keys
};

/// Build the small system. `lowe_fix` selects NSL (true) or the flawed
/// original (false).
std::unique_ptr<NspkSystem> build_nspk(bool lowe_fix);

}  // namespace ecucsp::security
