// Event identifiers and finite event sets.
//
// Events are interned per-Context to dense 32-bit ids so that the semantics
// and the checking engine work on integers. Two ids are reserved:
//   TAU  — the invisible internal action (hiding, internal choice)
//   TICK — successful termination (CSP's tick)
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace ecucsp {

using EventId = std::uint32_t;

inline constexpr EventId TAU = 0;
inline constexpr EventId TICK = 1;
inline constexpr EventId FIRST_USER_EVENT = 2;

/// An immutable-ish finite set of events, stored as a sorted unique vector.
/// Small and cache-friendly; supports the set algebra the semantics needs.
class EventSet {
 public:
  EventSet() = default;
  EventSet(std::initializer_list<EventId> events)
      : items_(events) {
    normalise();
  }
  explicit EventSet(std::vector<EventId> events) : items_(std::move(events)) {
    normalise();
  }

  bool contains(EventId e) const {
    return std::binary_search(items_.begin(), items_.end(), e);
  }
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }

  void insert(EventId e) {
    auto it = std::lower_bound(items_.begin(), items_.end(), e);
    if (it == items_.end() || *it != e) items_.insert(it, e);
  }

  EventSet set_union(const EventSet& other) const {
    std::vector<EventId> out;
    out.reserve(items_.size() + other.items_.size());
    std::set_union(items_.begin(), items_.end(), other.items_.begin(),
                   other.items_.end(), std::back_inserter(out));
    return EventSet(std::move(out));
  }
  EventSet set_intersection(const EventSet& other) const {
    std::vector<EventId> out;
    std::set_intersection(items_.begin(), items_.end(), other.items_.begin(),
                          other.items_.end(), std::back_inserter(out));
    return EventSet(std::move(out));
  }
  EventSet set_difference(const EventSet& other) const {
    std::vector<EventId> out;
    std::set_difference(items_.begin(), items_.end(), other.items_.begin(),
                        other.items_.end(), std::back_inserter(out));
    return EventSet(std::move(out));
  }
  bool subset_of(const EventSet& other) const {
    return std::includes(other.items_.begin(), other.items_.end(),
                         items_.begin(), items_.end());
  }
  bool intersects(const EventSet& other) const {
    auto a = items_.begin();
    auto b = other.items_.begin();
    while (a != items_.end() && b != other.items_.end()) {
      if (*a == *b) return true;
      if (*a < *b) {
        ++a;
      } else {
        ++b;
      }
    }
    return false;
  }

  const std::vector<EventId>& items() const { return items_; }
  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

  bool operator==(const EventSet&) const = default;

  std::size_t hash() const {
    std::size_t seed = items_.size();
    for (EventId e : items_) {
      seed ^= e + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
    }
    return seed;
  }

 private:
  void normalise() {
    std::sort(items_.begin(), items_.end());
    items_.erase(std::unique(items_.begin(), items_.end()), items_.end());
  }

  std::vector<EventId> items_;
};

struct EventSetHash {
  std::size_t operator()(const EventSet& s) const { return s.hash(); }
};

}  // namespace ecucsp
