// Observability surface of the verification service.
//
// All counters are relaxed atomics bumped on the request path — a /stats
// request snapshots them without stopping the world, so two concurrent
// snapshots may disagree by in-flight increments but never tear. Latency
// is tracked in a fixed log2-bucketed histogram (one bucket per power of
// two nanoseconds): p50/p90/p99 are read as the geometric midpoint of the
// bucket holding that quantile, capped at the largest sample, which is
// exact to within a factor of √2 — plenty for a load-shedding signal and
// entirely lock-free.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace ecucsp::serve {

class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 48;  // 2^0 .. 2^47 ns (~1.6 days)

  void record(std::uint64_t ns);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Approximate quantile in milliseconds; q in (0, 1]. 0 when empty.
  double quantile_ms(double q) const;
  double max_ms() const;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

struct ServiceStats {
  // Request accounting.
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> engine_runs{0};   // flights admitted to the pool
  std::atomic<std::uint64_t> coalesced{0};     // waiters attached to a flight
  std::atomic<std::uint64_t> memo_hits{0};     // served from the response memo
  std::atomic<std::uint64_t> shed{0};          // Overloaded rejections
  std::atomic<std::uint64_t> rejected_draining{0};
  std::atomic<std::uint64_t> bad_requests{0};
  std::atomic<std::uint64_t> completed{0};     // flights completed

  // Verdict breakdown over completed flights.
  std::atomic<std::uint64_t> passed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> timed_out{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<std::uint64_t> state_limit{0};
  std::atomic<std::uint64_t> errors{0};

  LatencyHistogram latency;
};

}  // namespace ecucsp::serve
