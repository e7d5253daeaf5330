#include "serve/stats.hpp"

#include <algorithm>
#include <bit>

namespace ecucsp::serve {

void LatencyHistogram::record(std::uint64_t ns) {
  const std::size_t bucket =
      ns == 0 ? 0
              : std::min<std::size_t>(kBuckets - 1,
                                      static_cast<std::size_t>(
                                          63 - std::countl_zero(ns)));
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t prev = max_ns_.load(std::memory_order_relaxed);
  while (ns > prev &&
         !max_ns_.compare_exchange_weak(prev, ns, std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::quantile_ms(double q) const {
  const std::uint64_t total = count_.load(std::memory_order_relaxed);
  if (total == 0) return 0.0;
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Geometric midpoint of [2^i, 2^(i+1)) ns, but never above the
      // largest sample: the midpoint of the top bucket may exceed it.
      const double lo = static_cast<double>(1ull << i);
      return std::min(lo * 1.4142135623730951 / 1e6, max_ms());
    }
  }
  return max_ms();
}

double LatencyHistogram::max_ms() const {
  return static_cast<double>(max_ns_.load(std::memory_order_relaxed)) / 1e6;
}

}  // namespace ecucsp::serve
