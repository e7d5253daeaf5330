#include "models.hpp"

#include <vector>

namespace perfbench {

const char* to_string(CheckKind k) {
  switch (k) {
    case CheckKind::Traces:
      return "T";
    case CheckKind::Failures:
      return "F";
    case CheckKind::Deadlock:
      return "deadlock";
  }
  return "?";
}

std::string work_label(const CyclerCheck& c) {
  return "3^" + std::to_string(c.cyclers) + " " + to_string(c.kind) +
         (c.pass ? " PASS" : " FAIL");
}

CyclerCheck cycler_check(unsigned cyclers, CheckKind kind, bool pass,
                         std::string_view tag) {
  const std::string t(tag);
  const std::string bad = "bad_" + t;
  // Only the FAIL variants of [F= and deadlock stop after `bad`; the [T=
  // FAIL variant keeps the live implementation and forbids `bad` instead.
  const bool stop_after_bad = !pass && kind != CheckKind::Traces;

  std::vector<std::string> events;
  std::string decl = "channel ";
  std::string defs;
  std::string impl = std::string(kImplName) + " =";
  for (unsigned i = 0; i < cyclers; ++i) {
    const std::string n = std::to_string(i);
    const std::string p = "p" + n + "_" + t;
    const std::string q = "q" + n + "_" + t;
    events.push_back(p);
    events.push_back(q);
    decl += p + ", " + q + ", ";
    defs += "C" + n + " = " + p + " -> (" + q + " -> C" + n + " [] " + bad +
            " -> " + (stop_after_bad ? "STOP" : "C" + n) + ")\n";
    impl += (i == 0 ? " C" : " [| {" + bad + "} |] C") + n;
  }
  decl += bad + "\n";

  CyclerCheck out;
  out.kind = kind;
  out.cyclers = cyclers;
  out.pass = pass;
  std::string spec;
  std::string assertion;
  switch (kind) {
    case CheckKind::Traces: {
      if (pass) events.push_back(bad);
      spec = "SPEC =";
      for (std::size_t i = 0; i < events.size(); ++i) {
        spec += (i == 0 ? " " : " [] ") + events[i] + " -> SPEC";
      }
      assertion = "assert SPEC [T= " + std::string(kImplName);
      out.cx_length = cyclers;
      break;
    }
    case CheckKind::Failures: {
      events.push_back(bad);
      spec = "SPEC =";
      for (std::size_t i = 0; i < events.size(); ++i) {
        spec += (i == 0 ? " " : " |~| ") + events[i] + " -> SPEC";
      }
      assertion = "assert SPEC [F= " + std::string(kImplName);
      out.cx_length = cyclers + 1;
      break;
    }
    case CheckKind::Deadlock:
      assertion = "assert " + std::string(kImplName) + " :[deadlock free]";
      out.cx_length = cyclers + 1;
      break;
  }
  if (pass) out.cx_length = 0;
  out.source = decl + defs + impl + "\n" + (spec.empty() ? "" : spec + "\n") +
               assertion + "\n";
  return out;
}

}  // namespace perfbench
