// Strong-bisimulation minimisation as a process-level operation — the
// library's counterpart of FDR's compression functions ("sbisim").
// Minimising a component before composing or checking it preserves every
// refinement verdict in all three semantic models (strong bisimilarity
// implies equality in T, F and FD), while often shrinking the state count
// dramatically; bench_refinement_scaling quantifies the trade-off. The
// minimisation itself is compress_compact's Bisim mode (refine/compact.hpp),
// the quotient by bisim_partition.
#pragma once

#include <string>

#include "core/cancel.hpp"
#include "refine/lts.hpp"

namespace ecucsp {

/// Wrap a compiled machine back into a process term (one Var definition per
/// state), so minimised components can be recomposed with other processes.
/// Visible moves become prefixes, tick becomes SKIP, and tau moves are
/// encoded with the sliding operator; the result is weakly equivalent to
/// the input (identical traces, stable failures and divergences).
/// `name` must be fresh in the Context.
ProcessRef lts_to_process(Context& ctx, const CompactLts& lts,
                          const std::string& name);

/// Convenience: compile, minimise (compress_compact with
/// Compression::Bisim), wrap. The CSP analogue of FDR's 'sbisim(P)'
/// compression. `cancel` reaches both the compilation and the partition
/// refinement.
ProcessRef compress(Context& ctx, ProcessRef p, const std::string& name,
                    std::size_t max_states = 1u << 22,
                    CancelToken* cancel = nullptr);

}  // namespace ecucsp
