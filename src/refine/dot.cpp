#include "refine/dot.hpp"

#include <stdexcept>

namespace ecucsp {

namespace {

/// Escape for a double-quoted DOT string.
std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string lts_to_dot(const Context& ctx, const CompactLts& lts,
                       const DotOptions& options) {
  if (lts.state_count() > options.max_states) {
    throw std::length_error("LTS too large to render (" +
                            std::to_string(lts.state_count()) + " states)");
  }
  std::string out = "digraph " + options.graph_name + " {\n";
  if (options.rankdir_lr) out += "  rankdir=LR;\n";
  out += "  node [shape=circle, fontsize=10];\n";
  out += "  s" + std::to_string(lts.root) +
         " [shape=doublecircle, label=\"" + std::to_string(lts.root) +
         "\"];\n";
  for (StateId s = 0; s < lts.state_count(); ++s) {
    for (std::uint32_t k = lts.begin(s); k < lts.end(s); ++k) {
      const bool tau = lts.events[k] == lts.tau;
      if (!options.show_tau && tau) continue;
      out += "  s" + std::to_string(s) + " -> s" +
             std::to_string(lts.targets[k]) + " [label=\"" +
             escape(ctx.event_name(lts.global_event(lts.events[k]))) + "\"";
      if (tau) out += ", style=dashed, color=gray";
      out += "];\n";
    }
  }
  out += "}\n";
  return out;
}

std::string counterexample_to_dot(const Context& ctx,
                                  const Counterexample& cex,
                                  const DotOptions& options) {
  std::string out = "digraph " + options.graph_name + " {\n";
  out += "  rankdir=LR;\n  node [shape=circle, fontsize=10];\n";
  std::size_t n = 0;
  out += "  s0 [shape=doublecircle];\n";
  for (const EventId e : cex.trace) {
    out += "  s" + std::to_string(n) + " -> s" + std::to_string(n + 1) +
           " [label=\"" + escape(ctx.event_name(e)) + "\"];\n";
    ++n;
  }
  const std::string verdict = cex.describe(ctx);
  switch (cex.kind) {
    case Counterexample::Kind::TraceViolation:
    case Counterexample::Kind::Nondeterminism:
      out += "  s" + std::to_string(n) + " -> bad [label=\"" +
             escape(ctx.event_name(cex.event)) + "\", color=red];\n";
      out += "  bad [shape=octagon, color=red, label=\"violation\"];\n";
      break;
    default:
      out += "  s" + std::to_string(n) +
             " [shape=octagon, color=red, xlabel=\"violation\"];\n";
      break;
  }
  out += "  label=\"" + escape(verdict) + "\";\n  fontsize=10;\n}\n";
  return out;
}

}  // namespace ecucsp
