// Portable deterministic automata: the one automaton format conformance
// oracles, replay sweeps and learned hypotheses share.
//
// Everything in src/core is Context-bound and Contexts are not thread-safe
// (core/context.hpp), yet a conformance run wants to compile the spec and
// the implementation model *once* and then judge observed traces from many
// worker threads. A Dfa squares that: its events are portable name strings
// ("send.UpdApplyReq"), so it carries no EventId, ProcessRef or Context
// reference and is safe to share read-only across any number of threads.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ecucsp::conform {

/// A deterministic automaton over event names, every state accepting.
///
/// `names` is the alphabet: sorted, unique, and free to hold names that
/// label no edge (an alphabet event the automaton never allows). Symbol k
/// stands for names[k]. Rows are CSR: node n's edges are
/// [offsets[n], offsets[n+1]) with strictly ascending labels, so a row
/// lists its events in byte order of their names and (node, index in row)
/// names an edge stably.
struct Dfa {
  static constexpr std::uint32_t NONE = 0xffffffffu;

  std::vector<std::string> names;
  std::uint32_t root = 0;
  std::vector<std::uint32_t> offsets{0};
  std::vector<std::uint32_t> labels;  // symbols, parallel to targets
  std::vector<std::uint32_t> targets;

  std::size_t state_count() const { return offsets.size() - 1; }
  std::size_t edge_count() const { return labels.size(); }
  std::uint32_t begin(std::uint32_t node) const { return offsets[node]; }
  std::uint32_t end(std::uint32_t node) const { return offsets[node + 1]; }

  /// The symbol of `name`, or NONE outside the table.
  std::uint32_t symbol(std::string_view name) const;
  /// The target of `node`'s edge labelled `symbol`, or NONE without one.
  std::uint32_t step(std::uint32_t node, std::uint32_t symbol) const;
  /// The names `node` offers, in row order.
  std::vector<std::string> offered(std::uint32_t node) const;

  bool operator==(const Dfa&) const = default;
};

/// Fills a Dfa one state at a time, in state-id order. A row's edges may
/// arrive in any order; end_state() sorts them.
class DfaBuilder {
 public:
  /// `names` becomes the table, sorted and deduplicated.
  explicit DfaBuilder(std::vector<std::string> names);

  /// Append an edge to the row of the state being built. A name outside
  /// the table throws std::invalid_argument.
  void edge(std::uint32_t symbol, std::uint32_t target);
  void edge(std::string_view name, std::uint32_t target);
  /// Close the row; two edges under one symbol throw std::invalid_argument.
  void end_state();

  /// Hand the automaton over. Throws std::invalid_argument unless `root`
  /// and every edge target name a closed row.
  Dfa finish(std::uint32_t root) &&;

 private:
  Dfa dfa_;
};

}  // namespace ecucsp::conform
