// The verification service: everything between a decoded CheckRequest and
// its CheckResponse, independent of any socket.
//
// Request lifecycle:
//
//   submit(req) ── bad request? ──► BadRequest
//        │
//        ├─ draining? ───────────► ShuttingDown
//        │
//        ├─ response memo hit ───► previous verdict, memo_hit=true
//        │
//        └─ single-flight join
//             ├─ flight exists ──► attach as waiter (always admitted —
//             │                    a waiter costs nothing)
//             └─ would lead ─────► admission control:
//                  ├─ in-flight ≥ jobs + max_queue ──► Overloaded
//                  │                                   (+ retry_after_ms)
//                  └─ admitted ──► CheckTask onto the PR 1 scheduler;
//                                  completion fans the one verdict out to
//                                  every waiter and feeds the memo
//
// Backpressure is tied to the scheduler's worker count: at most
// `jobs` flights explore concurrently and at most `max_queue` more may
// wait, so offered load beyond the machine's capacity is shed with a
// Retry-After hint instead of growing an unbounded queue. Coalesced
// waiters bypass admission entirely — absorbing a coordinated burst of
// identical requests is the service's whole point.
//
// The response memo is a bounded LRU of encoded verdicts keyed by request
// digest: after a flight completes, identical requests are answered
// without touching the scheduler or even building a Context. Only
// deterministic outcomes (Passed/Failed/StateLimit/Error) are memoised —
// TimedOut and Cancelled depend on deadlines and daemon lifecycle, and
// rejections are never cached. The engine-level verification store
// (structural term digests, persisted on disk) sits below and catches
// textually-different-but-structurally-equal models the memo cannot.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "serve/protocol.hpp"
#include "serve/single_flight.hpp"
#include "serve/stats.hpp"
#include "store/cache.hpp"
#include "verify/scheduler.hpp"

namespace ecucsp::serve {

struct ServiceOptions {
  /// Scheduler workers (0 = hardware).
  unsigned jobs = 0;

  /// Persistent verification store; memory-only when unset.
  std::optional<std::filesystem::path> cache_dir;

  /// Flights allowed to wait behind the `jobs` running ones before
  /// admission control sheds; 0 means 8 × effective jobs.
  std::size_t max_queue = 0;
  /// Response-memo entries (encoded verdicts); 0 disables the memo.
  std::size_t memo_capacity = 4096;
  /// Applied to requests that carry no deadline of their own; 0 = none.
  std::uint32_t default_timeout_ms = 0;
  /// Server-side ceiling on a request's max_states budget.
  std::uint64_t max_states_limit = 1ull << 26;
};

class VerifyService {
 public:
  using Callback = std::function<void(CheckResponse)>;
  using Clock = std::chrono::steady_clock;

  explicit VerifyService(ServiceOptions options = {});
  ~VerifyService();

  VerifyService(const VerifyService&) = delete;
  VerifyService& operator=(const VerifyService&) = delete;

  /// Asynchronous entry point: `done` runs exactly once, on the calling
  /// thread for memoised/rejected requests or on a scheduler worker for
  /// fresh and coalesced ones. `done` must be safe to call from any thread
  /// and must not block for long (it sits on the verdict fan-out path).
  void submit(CheckRequest req, Callback done);

  /// Lower-level intake used by submit() and by tests that need a custom
  /// CheckTask under a controlled digest: same single-flight, admission,
  /// memo and fan-out machinery, caller-supplied task.
  void submit_keyed(const store::Digest& key, verify::CheckTask task,
                    std::uint64_t request_id, Callback done);

  /// Blocking convenience for in-process callers (tests, benches).
  CheckResponse serve(CheckRequest req);

  /// The /stats surface, rendered as one JSON object.
  std::string stats_json() const;

  /// Stop admitting new flights; waiters may still attach to nothing (all
  /// new requests get ShuttingDown) and in-flight checks keep running.
  void begin_drain();
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// Wait up to `timeout` for in-flight checks to finish on their own,
  /// then cancel the stragglers and wait for their unwinding. Returns true
  /// when everything completed within the budget (nothing was cancelled).
  bool drain(std::chrono::milliseconds timeout);

  std::size_t in_flight() const;

  const ServiceStats& stats() const { return stats_; }
  unsigned jobs() const { return scheduler_->jobs(); }
  std::size_t capacity() const { return capacity_; }
  store::VerificationCache& cache() { return *cache_; }

 private:
  struct MemoEntry {
    CheckResponse response;            // id/wall_ns overwritten per hit
    std::list<store::Digest>::iterator lru;
  };

  std::optional<CheckResponse> memo_lookup(const store::Digest& key);
  void memo_insert(const store::Digest& key, const CheckResponse& response);
  void finish_flight(const std::shared_ptr<SingleFlight::Flight>& flight,
                     CheckResponse response);
  std::uint32_t retry_after_ms() const;

  ServiceOptions options_;
  std::size_t capacity_ = 0;  // jobs + max_queue

  std::unique_ptr<store::VerificationCache> cache_;
  std::optional<ScopedCheckCache> cache_install_;

  ServiceStats stats_;
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> avg_check_ns_{50'000'000};  // EWMA, retry hints

  mutable std::mutex memo_mu_;
  std::unordered_map<store::Digest, MemoEntry, store::DigestHash> memo_;
  std::list<store::Digest> memo_lru_;  // front = most recent

  SingleFlight flights_;
  std::atomic<std::size_t> admitted_{0};  // flights admitted, not completed
  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  // Last member: its destructor drains the queue and joins the workers,
  // so every completion callback has returned before anything above dies.
  std::unique_ptr<verify::VerifyScheduler> scheduler_;
};

}  // namespace ecucsp::serve
