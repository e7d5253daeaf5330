// Compact arena-backed LTS core and FDR-style state-space reduction.
//
// CompactLts is the library's one explicit machine: a flat CSR transition
// arena (offsets / events / targets) with event ids interned into a
// per-machine alphabet table, so the hot product sweep compares dense 32-bit
// local ids and walks contiguous successor ranges with no pointer chasing.
// Rows keep compile_lts's transition order, so sweeps visit states in its
// BFS insertion order — what keeps the checks byte-identical (verdicts,
// counterexamples, vacuity, stats and hence every cache digest).
//
// On top of the representation sit the classic FDR compressions, explicit
// operations on compiled machines (compress_compact):
//
//   bisim    strong-bisimulation quotienting by bisim_partition (seeded by
//            the terminal flags, so Omega / post-tick / deadlock states
//            never merge across semantic lines);
//   diamond  τ-structure elimination: τ-SCC contraction (cyclic SCCs keep a
//            single τ self-loop so divergence survives), inert single-τ
//            chain collapse (guarded against incoming TICK edges so
//            post-tick termination states keep their identity), and
//            τ-priorisation of strongly confluent internal moves — a state
//            whose visible options all commute with one of its τ steps is
//            replaced by that τ step alone (partial-order reduction);
//   full     diamond followed by bisim.
//
// Every reduction preserves divergence-sensitive weak equivalence of the
// root, hence verdicts in T, F and FD as well as deadlock / divergence /
// determinism — see DESIGN.md §12 for the per-pass argument. Counterexample
// bytes are preserved one level up (check_refinement_compiled in
// refine/check.hpp): a violating verdict found on a compressed machine is
// replayed on the uncompressed one, FDR's "debug the uncompressed process"
// move, so failing runs are byte-identical at every mode too.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/cancel.hpp"
#include "core/event.hpp"

namespace ecucsp {

// --- reduction modes ---------------------------------------------------------

/// Which reductions compress_compact applies.
enum class Compression : std::uint8_t {
  None = 0,
  Bisim = 1,
  Diamond = 2,
  Full = 3,
};

std::string_view to_string(Compression c);

// --- the compact representation ----------------------------------------------

using StateId = std::uint32_t;

/// Index into CompactLts::alphabet — a machine-local interned event id.
/// Local ids follow the global EventId order (the alphabet is sorted), so
/// TAU, when present, is always local id 0.
using LocalEvent = std::uint32_t;
inline constexpr LocalEvent NO_LOCAL_EVENT = 0xffffffffu;

struct CompactLts {
  /// Per-state semantic flags, recorded while the terms are at hand so the
  /// machine stays plain data after its Context dies.
  static constexpr std::uint8_t kOmega = 1u;     // successful termination
  static constexpr std::uint8_t kPostTick = 2u;  // entered by a TICK edge

  StateId root = 0;
  /// CSR row index: state s's transitions are [offsets[s], offsets[s+1]).
  std::vector<std::uint32_t> offsets{0};
  std::vector<LocalEvent> events;  // interned labels, parallel to targets
  std::vector<StateId> targets;
  /// Sorted unique global event ids occurring in the machine (TAU/TICK
  /// included when present). events[k] indexes into this table.
  std::vector<EventId> alphabet;
  std::vector<std::uint8_t> flags;  // one per state

  /// Local ids of TAU / TICK, or NO_LOCAL_EVENT when absent.
  LocalEvent tau = NO_LOCAL_EVENT;
  LocalEvent tick = NO_LOCAL_EVENT;

  std::size_t state_count() const { return flags.size(); }
  std::size_t transition_count() const { return events.size(); }
  std::uint32_t begin(StateId s) const { return offsets[s]; }
  std::uint32_t end(StateId s) const { return offsets[s + 1]; }
  std::size_t degree(StateId s) const { return end(s) - begin(s); }

  EventId global_event(LocalEvent le) const { return alphabet[le]; }
  /// Binary search the alphabet; NO_LOCAL_EVENT when `e` never occurs.
  LocalEvent local_event(EventId e) const;

  bool is_omega(StateId s) const { return (flags[s] & kOmega) != 0; }
  bool is_post_tick(StateId s) const { return (flags[s] & kPostTick) != 0; }
  /// Stuck without having terminated — the deadlock-check predicate.
  bool is_deadlock(StateId s) const {
    return degree(s) == 0 && !is_post_tick(s) && !is_omega(s);
  }

  /// For each state, whether an infinite τ-path starts there (it can reach
  /// a τ-cycle by τ steps alone).
  std::vector<bool> divergent_states() const;

  bool operator==(const CompactLts&) const = default;
};

/// Fills a CompactLts one state at a time, in state-id order, from edges
/// labelled with global event ids. finish() runs the interning step once:
/// the alphabet becomes the sorted unique set of labels, so local ids depend
/// on that set alone and never on insertion order; tau/tick are looked up;
/// and every TICK target is flagged post-tick.
class CompactBuilder {
 public:
  /// Append an edge to the row of the state being built.
  void edge(EventId e, StateId target) {
    lts_.events.push_back(e);  // a global id until finish() interns it
    lts_.targets.push_back(target);
  }
  /// Close the row of the state being built; `omega` marks successful
  /// termination.
  void end_state(bool omega = false) {
    lts_.offsets.push_back(static_cast<std::uint32_t>(lts_.events.size()));
    lts_.flags.push_back(omega ? CompactLts::kOmega : 0);
  }

  /// Intern the labels and hand the machine over. Every edge target must
  /// name a state whose row has been closed by then.
  CompactLts finish(StateId root) &&;

 private:
  CompactLts lts_;
};

// --- reductions --------------------------------------------------------------

/// The strong-bisimulation partition of every state of `c`, reachable or
/// not: block[s] is s's class, numbered in order of each class's smallest
/// member. Kanellakis–Smolka refinement seeded by (Omega/post-tick flags,
/// outgoing label set); the flags keep termination, post-tick and deadlock
/// states apart although all three have empty rows. O(n^2 log n) worst
/// case, so `cancel` is polled per state in every round.
std::vector<StateId> bisim_partition(const CompactLts& c,
                                     CancelToken* cancel = nullptr);

/// How much a compress_compact call shrank the machine.
struct ReductionStats {
  std::size_t states_in = 0;
  std::size_t states_out = 0;
  std::size_t transitions_in = 0;
  std::size_t transitions_out = 0;

  double state_factor() const {
    return states_out == 0 ? 1.0
                           : static_cast<double>(states_in) /
                                 static_cast<double>(states_out);
  }
};

/// Apply `mode`'s reductions to `in` and return the reduced machine
/// (restricted to its reachable part, states renumbered preserving relative
/// order). Mode None returns a verbatim copy. The alphabet table is carried
/// over unchanged so local event ids remain stable across compression —
/// interned ids survive any insertion/elimination order.
/// Polls `cancel` between passes.
CompactLts compress_compact(const CompactLts& in, Compression mode,
                            ReductionStats* stats = nullptr,
                            CancelToken* cancel = nullptr);

}  // namespace ecucsp
