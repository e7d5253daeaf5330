#include "conform/automaton.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ecucsp::conform {

std::uint32_t Dfa::symbol(std::string_view name) const {
  const auto it = std::lower_bound(names.begin(), names.end(), name);
  if (it == names.end() || *it != name) return NONE;
  return static_cast<std::uint32_t>(it - names.begin());
}

std::uint32_t Dfa::step(std::uint32_t node, std::uint32_t symbol) const {
  const auto first = labels.begin() + begin(node);
  const auto last = labels.begin() + end(node);
  const auto it = std::lower_bound(first, last, symbol);
  if (it == last || *it != symbol) return NONE;
  return targets[static_cast<std::size_t>(it - labels.begin())];
}

std::vector<std::string> Dfa::offered(std::uint32_t node) const {
  std::vector<std::string> out;
  out.reserve(end(node) - begin(node));
  for (std::uint32_t k = begin(node); k < end(node); ++k) {
    out.push_back(names[labels[k]]);
  }
  return out;
}

DfaBuilder::DfaBuilder(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  dfa_.names = std::move(names);
}

void DfaBuilder::edge(std::uint32_t symbol, std::uint32_t target) {
  if (symbol >= dfa_.names.size()) {
    throw std::invalid_argument("Dfa edge: symbol outside the name table");
  }
  dfa_.labels.push_back(symbol);
  dfa_.targets.push_back(target);
}

void DfaBuilder::edge(std::string_view name, std::uint32_t target) {
  const std::uint32_t symbol = dfa_.symbol(name);
  if (symbol == Dfa::NONE) {
    throw std::invalid_argument("Dfa edge: '" + std::string(name) +
                                "' is not in the name table");
  }
  edge(symbol, target);
}

void DfaBuilder::end_state() {
  const std::size_t lo = dfa_.offsets.back();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> row;
  for (std::size_t k = lo; k < dfa_.labels.size(); ++k) {
    row.emplace_back(dfa_.labels[k], dfa_.targets[k]);
  }
  std::sort(row.begin(), row.end());
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0 && row[i].first == row[i - 1].first) {
      throw std::invalid_argument("Dfa edge: two edges under '" +
                                  dfa_.names[row[i].first] + "'");
    }
    dfa_.labels[lo + i] = row[i].first;
    dfa_.targets[lo + i] = row[i].second;
  }
  dfa_.offsets.push_back(static_cast<std::uint32_t>(dfa_.labels.size()));
}

Dfa DfaBuilder::finish(std::uint32_t root) && {
  const std::size_t n = dfa_.state_count();
  const bool dangling =
      dfa_.offsets.back() != dfa_.labels.size() ||
      std::any_of(dfa_.targets.begin(), dfa_.targets.end(),
                  [n](std::uint32_t t) { return t >= n; });
  if (root >= n || dangling) {
    throw std::invalid_argument("Dfa: root or edge target names no state");
  }
  dfa_.root = root;
  return std::move(dfa_);
}

}  // namespace ecucsp::conform
