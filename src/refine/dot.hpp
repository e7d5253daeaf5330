// Graphviz export of labelled transition systems and counterexample traces.
//
// FDR "incorporates visualisation tools to display process transition
// models and traces" (paper Section IV-D); this renders the same artifacts
// as DOT digraphs for `dot -Tsvg`.
#pragma once

#include <string>

#include "refine/check.hpp"
#include "refine/compact.hpp"

namespace ecucsp {

struct DotOptions {
  std::string graph_name = "lts";
  bool show_tau = true;        // include internal transitions
  bool rankdir_lr = true;      // left-to-right layout
  std::size_t max_states = 512;  // refuse to render monsters
};

/// Render the LTS. States are numbered; the root is marked. Throws
/// std::length_error when the LTS exceeds options.max_states.
std::string lts_to_dot(const Context& ctx, const CompactLts& lts,
                       const DotOptions& options = {});

/// Render a counterexample as a linear event chain, annotated with the
/// violation kind — the designer-facing feedback artifact of Figure 1.
std::string counterexample_to_dot(const Context& ctx, const Counterexample& cex,
                                  const DotOptions& options = {});

}  // namespace ecucsp
