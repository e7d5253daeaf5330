// Batch builders for the paper's OTA case study: the Table III requirement
// suite swept across attacker models, packaged as scheduler CheckTasks.
//
// Each cell of the matrix is a custom-mode task that builds its own
// ota::OtaModel (and therefore its own Context) on the worker, so the whole
// matrix parallelises with zero shared state. The expected verdicts encode
// the paper's security argument: the MAC-verifying ECU keeps R05 under
// attack, the unprotected ECU loses R02/R03/R05, and an active attacker can
// always pre-empt R01's "inventory request comes first" on the wire.
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "verify/task.hpp"

namespace ecucsp::verify {

enum class AttackerVariant {
  None,            // VMG + MAC ECU, no attacker on the bus
  MacEcu,          // Dolev-Yao injector vs the MAC-verifying ECU
  UnprotectedEcu,  // Dolev-Yao injector vs the ECU without MAC checks
};

std::string_view to_string(AttackerVariant v);

struct OtaMatrixOptions {
  /// Interleave this many hidden three-phase cycler processes with the
  /// system under test before checking. Verdicts are unchanged (the cyclers
  /// are invisible and independent) but the explored state space grows by
  /// ~3^dilation — the knob `ecucsp_check --dilate` uses to give each task
  /// enough work for parallel speedup and caching to be measurable.
  std::size_t dilation = 0;
  std::optional<std::chrono::milliseconds> timeout{};
  std::size_t max_states = 1u << 22;
  /// Fault injection for the vacuity detector: rename the system under test
  /// onto a fresh primed alphabet before checking, the same effect as an
  /// extractor that mis-maps every network channel. The R02..R05 specs then
  /// hold trivially — their cells still PASS, but with CheckResult::vacuous
  /// set, which the matrix report surfaces as a warning.
  bool inject_alphabet_mismatch = false;
  /// --prune=static: certify vacuous-PASS cells with the verify-layer static
  /// analysis (verify/prune.hpp) instead of exploring them. Verdicts are
  /// unchanged by construction; pruned cells carry CheckResult::pruned.
  bool prune = false;
};

/// The full R01..R05 x attacker-model matrix: 15 tasks in row-major
/// (requirement, variant) order, each carrying its expected verdict.
std::vector<CheckTask> ota_requirement_matrix(OtaMatrixOptions options = {});

/// The extended Update Server chain properties E1..E5 (paper Section
/// VIII-A) as five more independent tasks.
std::vector<CheckTask> ota_extended_batch(OtaMatrixOptions options = {});

}  // namespace ecucsp::verify
