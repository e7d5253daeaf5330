// Hash-consed CSP process terms.
//
// Process terms are immutable DAG nodes owned by a Context arena. Structural
// hash-consing guarantees that structurally equal terms are pointer-equal,
// which makes state identity during LTS exploration O(1) and gives the
// visited-set maximal hit rates (see bench/bench_refinement_scaling).
//
// The operator set follows the paper's Section IV-A syntax:
//   Stop | e -> P | P [] Q | P |~| Q | P ; Q | P [|A|] Q | P ||| Q
// plus SKIP, hiding, renaming, and named (possibly parameterised) recursion,
// which the CSPm front end and the model extractor both need.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/event.hpp"
#include "core/value.hpp"

namespace ecucsp {

class ProcessNode;
/// Non-owning handle to an arena-allocated, hash-consed process term.
/// Pointer equality is structural equality.
using ProcessRef = const ProcessNode*;

enum class Op : std::uint8_t {
  Stop,       // deadlock
  Skip,       // immediate successful termination
  Omega,      // terminated component (target of tick); no transitions
  Prefix,     // event -> kid0
  ExtChoice,  // kid0 [] ... [] kidN-1: n >= 2 distinct operands, none a [],
              // in ACI normal form, as FDR keeps a choice (Context::choice)
  IntChoice,  // kid0 |~| ... |~| kidN-1: likewise, none a |~|
  Seq,        // kid0 ; kid1
  Par,        // kid0 [| events |] kid1   (interleaving == empty sync set)
  Hide,       // kid0 \ events
  Rename,     // kid0 [[ renaming ]]
  Interrupt,  // kid0 /\ kid1: kid1's visible events may take over at any time
  Sliding,    // kid0 [> kid1: kid0 may be timed out by an internal slide to kid1
  Var,        // named reference, resolved through the Context environment
};

/// One functional renaming pair: occurrences of `from` become `to`.
struct RenamePair {
  EventId from = 0;
  EventId to = 0;
  bool operator==(const RenamePair&) const = default;
};

class ProcessNode {
 public:
  Op op() const { return op_; }
  EventId event() const { return event_; }
  ProcessRef kid(std::size_t i) const { return kids_.at(i); }
  std::size_t kid_count() const { return kids_.size(); }
  std::span<const ProcessRef> kids() const { return kids_; }
  const EventSet& events() const { return events_; }
  const std::vector<RenamePair>& renaming() const { return renaming_; }
  Symbol var_name() const { return var_name_; }
  const std::vector<Value>& var_args() const { return var_args_; }

  std::size_t structural_hash() const { return hash_; }

 private:
  friend class Context;

  Op op_ = Op::Stop;
  EventId event_ = 0;                  // Prefix
  std::vector<ProcessRef> kids_;       // operands
  EventSet events_;                    // Par sync set / Hide set
  std::vector<RenamePair> renaming_;   // Rename
  Symbol var_name_ = 0;                // Var
  std::vector<Value> var_args_;        // Var
  std::size_t hash_ = 0;               // precomputed structural hash
};

/// A single step of the operational semantics.
struct Transition {
  EventId event = 0;
  ProcessRef target = nullptr;
};

}  // namespace ecucsp
