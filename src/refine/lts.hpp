// Labelled transition system compilation.
//
// Compiles a process term to an explicit CompactLts by exhaustive
// exploration of the operational semantics. States are canonicalised (Var
// indirection chased) hash-consed process terms, so state identity is
// pointer identity; the terms stay local to the compilation, and the
// machine keeps only what the engines need from them (the Omega flag).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/cancel.hpp"
#include "core/context.hpp"
#include "refine/compact.hpp"

namespace ecucsp {

class StateLimitExceeded : public std::runtime_error {
 public:
  explicit StateLimitExceeded(std::size_t limit)
      : std::runtime_error("state limit exceeded (" + std::to_string(limit) +
                           " states); the model may be infinite-state") {}
};

/// Explore `root` breadth-first, numbering states in discovery order.
/// Throws StateLimitExceeded beyond max_states. If `cancel` is given it is
/// polled periodically during exploration and the search aborts with
/// CheckCancelled when the token fires — compilation is the dominant cost
/// of a check, so this is where deadlines mostly trip.
CompactLts compile_lts(Context& ctx, ProcessRef root,
                       std::size_t max_states = 1u << 22,
                       CancelToken* cancel = nullptr);

/// Frozen for perfbench/, which still names the retired machine type.
/// Deleted by the next change to the benchmark.
using Lts = CompactLts;

/// Frozen for perfbench/, which still converts its machine (now a copy).
/// Deleted by the next change to the benchmark.
inline CompactLts compact_from_lts(const CompactLts& lts) { return lts; }

}  // namespace ecucsp
