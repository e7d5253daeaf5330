// Seeded CSPm inputs whose verdicts are known by construction.
//
// A cycler model runs n two-event cyclers
//
//   Ci = pi -> (qi -> Ci [] bad -> Ci)
//
// side by side, synchronised only on the shared event `bad`. Each cycler has
// three states (its name, its unfolded body, and the state after pi), so the
// model has 3^n states. `bad` is enabled only when every cycler sits after
// its pi: the single deepest state in breadth-first order, reached by the n
// events p0..p(n-1). The FAIL variants plant their violation there:
//
//   kind      PASS                     FAIL (counterexample trace length)
//   [T=       RUN(Sigma) [T= IMPL      RUN(Sigma - bad) [T= IMPL: n, then bad
//   [F=       CHAOS-like [F= IMPL      bad -> STOP: refuses all after n+1
//   deadlock  IMPL :[deadlock free]    bad -> STOP: deadlocks after n+1
//
// Every channel name carries a per-request tag, so two requests with
// different tags are structurally distinct to every cache tier.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace perfbench {

enum class CheckKind { Traces, Failures, Deadlock };

const char* to_string(CheckKind k);

struct CyclerCheck {
  std::string source;   // one script, exactly one assertion
  CheckKind kind = CheckKind::Deadlock;
  unsigned cyclers = 0;
  bool pass = true;
  std::size_t cx_length = 0;  // events in the counterexample trace (FAIL)
};

CyclerCheck cycler_check(unsigned cyclers, CheckKind kind, bool pass,
                         std::string_view tag);

/// "3^n <kind> PASS|FAIL": the checks that share it do the same work.
std::string work_label(const CyclerCheck& c);

/// Name of the implementation process in every cycler script.
inline constexpr const char* kImplName = "IMPL";

}  // namespace perfbench
