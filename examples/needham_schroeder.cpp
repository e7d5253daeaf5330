// The motivating story of the paper's Section II-B: the Needham-Schroeder
// public-key protocol was used for 18 years before CSP-based analysis
// (Lowe 1995) exposed the man-in-the-middle attack. This example
// rediscovers that attack with the library's Dolev-Yao intruder, then
// verifies Lowe's fix.
//
//   $ ./needham_schroeder
#include <cstdio>

#include "security/nspk.hpp"
#include "security/properties.hpp"

using namespace ecucsp;
using namespace ecucsp::security;

int main() {
  std::printf("Needham-Schroeder public-key protocol (1978)\n");
  std::printf("  Msg1. A -> B : {Na, A}pk(B)\n");
  std::printf("  Msg2. B -> A : {Na, Nb}pk(A)\n");
  std::printf("  Msg3. A -> B : {Nb}pk(B)\n\n");

  {
    auto sys = build_nspk(/*lowe_fix=*/false);
    std::printf("small system: initiator a, responder b, intruder i\n");
    std::printf("message universe: %zu terms (%zu communicable)\n\n",
                sys->intruder.universe.size(), sys->intruder.messages.size());

    std::printf("authentication check: commit.b.a requires running.a.b\n");
    const CheckResult r = check_precedence_witness(
        sys->ctx, sys->system, sys->running_ab, sys->commit_ba);
    if (r.passed) {
      std::printf("  unexpectedly secure?!\n");
      return 1;
    }
    std::printf("  VIOLATED — Lowe's attack, found automatically:\n\n");
    int step = 1;
    for (const EventId e : r.counterexample->trace) {
      std::printf("   %2d. %s\n", step++, sys->ctx.event_name(e).c_str());
    }
    std::printf("   %2d. %s   <-- b commits to a, but a never ran with b\n\n",
                step, sys->ctx.event_name(r.counterexample->event).c_str());
    std::printf("  (states explored: %zu)\n\n", r.stats.product_states);
  }

  {
    std::printf("Lowe's fix (NSL): Msg2 becomes {Na, Nb, B}pk(A)\n");
    auto sys = build_nspk(/*lowe_fix=*/true);
    const CheckResult r = check_precedence_witness(
        sys->ctx, sys->system, sys->running_ab, sys->commit_ba);
    std::printf("  authentication: %s (states explored: %zu)\n",
                r.passed ? "holds" : "STILL BROKEN", r.stats.product_states);
    return r.passed ? 0 : 1;
  }
}
