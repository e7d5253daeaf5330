// Dolev-Yao intruder process generation (paper Section IV-E).
//
// "A common approach is to define an additional intruder process in CSP,
// based on the Dolev-Yao model ... added, in parallel, to existing process
// models for various network components."
//
// The intruder overhears every transmission (learning its payload), and may
// inject any message it can derive, with any claimed sender/recipient. Its
// state is its closed knowledge: a bitset over the TermIndex of its
// universe, messages and initial knowledge. The Var argument is that
// bitset's words as one tuple of integers, so the core Context memoises one
// process per distinct knowledge set, and the argument (which term digests
// read) depends only on the configuration, never on the order in which
// states were unfolded.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "security/terms.hpp"

namespace ecucsp::security {

struct IntruderConfig {
  /// Finite message universe bounding knowledge closure (includes payloads
  /// and sub-terms, not just whole network messages).
  std::vector<Value> universe;
  /// Messages that can actually appear on the network (the hear/say channel
  /// field domain). A subset of `universe`.
  std::vector<Value> messages;
  /// What the intruder knows at the start (its own keys, agent names, ...).
  std::set<Value> initial_knowledge;
  /// Channel the intruder overhears: fields (from, to, message).
  ChannelId hear_channel = 0;
  /// Channel the intruder injects on: fields (claimed-from, to, message).
  ChannelId say_channel = 0;
  /// Agent identities used for the from/to fields of injected messages.
  std::vector<Value> agents;
  /// Name of the generated family of definitions.
  std::string name = "INTRUDER";
};

/// Register the intruder definition in `ctx` and return its initial state.
/// Compose with the agents via par(system, {|hear, say|}, intruder).
ProcessRef build_intruder(const TermAlgebra& terms, const IntruderConfig& cfg);

}  // namespace ecucsp::security
