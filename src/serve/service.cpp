#include "serve/service.hpp"

#include <algorithm>
#include <cstdio>
#include <future>

namespace ecucsp::serve {

namespace {

ServeStatus status_of(verify::TaskStatus s) {
  switch (s) {
    case verify::TaskStatus::Passed:
      return ServeStatus::Passed;
    case verify::TaskStatus::Failed:
      return ServeStatus::Failed;
    case verify::TaskStatus::TimedOut:
      return ServeStatus::TimedOut;
    case verify::TaskStatus::Cancelled:
      return ServeStatus::Cancelled;
    case verify::TaskStatus::StateLimit:
      return ServeStatus::StateLimit;
    case verify::TaskStatus::Error:
      return ServeStatus::Error;
  }
  return ServeStatus::Error;
}

/// Deadline- and lifecycle-independent outcomes may be memoised; a
/// TimedOut or Cancelled verdict would poison identical requests with
/// longer budgets.
bool memoisable(ServeStatus s) {
  return s == ServeStatus::Passed || s == ServeStatus::Failed ||
         s == ServeStatus::StateLimit || s == ServeStatus::Error;
}

}  // namespace

VerifyService::VerifyService(ServiceOptions options)
    : options_(options),
      cache_(std::make_unique<store::VerificationCache>(options.cache_dir)) {
  cache_install_.emplace(cache_.get());
  verify::SchedulerOptions sched;
  sched.jobs = options.jobs;
  scheduler_ = std::make_unique<verify::VerifyScheduler>(sched);
  const std::size_t queue =
      options.max_queue != 0 ? options.max_queue : 8u * scheduler_->jobs();
  capacity_ = scheduler_->jobs() + queue;
}

VerifyService::~VerifyService() {
  begin_drain();
  drain(std::chrono::milliseconds(0));
  // scheduler_ (last member) now drains its queue and joins the workers;
  // cancelled flights complete with Cancelled and fan out before anything
  // else of the service is destroyed.
}

void VerifyService::submit(CheckRequest req, Callback done) {
  if (req.sources.empty()) {
    stats_.received.fetch_add(1, std::memory_order_relaxed);
    stats_.bad_requests.fetch_add(1, std::memory_order_relaxed);
    CheckResponse r;
    r.id = req.id;
    r.status = ServeStatus::BadRequest;
    r.error = "request carries no CSPm sources";
    done(std::move(r));
    return;
  }
  // Clamp the state budget *before* digesting so over-limit requests
  // coalesce on what will actually run.
  req.max_states = std::min(req.max_states, options_.max_states_limit);
  const store::Digest key = request_digest(req);

  verify::CheckTask task;
  task.name = "assert #" + std::to_string(req.assertion_index + 1);
  task.sources = std::move(req.sources);
  task.assertion_index = req.assertion_index;
  task.max_states = static_cast<std::size_t>(req.max_states);
  if (req.timeout_ms != 0) {
    task.timeout = std::chrono::milliseconds(req.timeout_ms);
  } else if (options_.default_timeout_ms != 0) {
    task.timeout = std::chrono::milliseconds(options_.default_timeout_ms);
  }
  submit_keyed(key, std::move(task), req.id, std::move(done));
}

void VerifyService::submit_keyed(const store::Digest& key,
                                 verify::CheckTask task,
                                 std::uint64_t request_id, Callback done) {
  stats_.received.fetch_add(1, std::memory_order_relaxed);
  const Clock::time_point now = Clock::now();

  if (draining_.load(std::memory_order_relaxed)) {
    stats_.rejected_draining.fetch_add(1, std::memory_order_relaxed);
    CheckResponse r;
    r.id = request_id;
    r.status = ServeStatus::ShuttingDown;
    r.digest_hex = key.hex();
    r.error = "daemon is draining";
    done(std::move(r));
    return;
  }

  if (auto hit = memo_lookup(key)) {
    stats_.memo_hits.fetch_add(1, std::memory_order_relaxed);
    hit->id = request_id;
    hit->wall_ns =
        static_cast<std::uint64_t>((Clock::now() - now).count());
    stats_.latency.record(hit->wall_ns);
    done(std::move(*hit));
    return;
  }

  SingleFlight::Waiter waiter;
  waiter.request_id = request_id;
  waiter.enqueued = now;
  waiter.done = std::move(done);

  auto [flight, leader] = flights_.join(key, waiter, [this] {
    // Under the table lock: at most capacity_ flights in the system.
    std::size_t cur = admitted_.load(std::memory_order_relaxed);
    if (cur >= capacity_) return false;
    admitted_.fetch_add(1, std::memory_order_relaxed);
    return true;
  });

  if (!flight) {
    stats_.shed.fetch_add(1, std::memory_order_relaxed);
    CheckResponse r;
    r.id = request_id;
    r.status = ServeStatus::Overloaded;
    r.digest_hex = key.hex();
    r.retry_after_ms = retry_after_ms();
    r.error = "admission control: " + std::to_string(capacity_) +
              " checks already queued or running";
    waiter.done(std::move(r));  // join() leaves the waiter intact on refusal
    return;
  }

  if (!leader) {
    stats_.coalesced.fetch_add(1, std::memory_order_relaxed);
    return;  // the flight's completion fans out to us
  }

  stats_.engine_runs.fetch_add(1, std::memory_order_relaxed);
  const auto self = flight;  // keep alive through the scheduler callback
  scheduler_->submit(
      std::move(task), &self->token,
      [this, self](verify::TaskOutcome outcome) {
        CheckResponse r;
        r.status = status_of(outcome.status);
        r.vacuous = outcome.vacuous;
        r.from_cache = outcome.cached;
        r.states = outcome.stats.impl_states;
        r.transitions = outcome.stats.impl_transitions;
        r.counterexample = std::move(outcome.counterexample);
        r.error = std::move(outcome.error);
        r.digest_hex = self->key.hex();
        finish_flight(self, std::move(r));
      });
}

void VerifyService::finish_flight(
    const std::shared_ptr<SingleFlight::Flight>& flight,
    CheckResponse response) {
  if (memoisable(response.status)) memo_insert(flight->key, response);

  std::vector<SingleFlight::Waiter> waiters = flights_.complete(flight);
  response.coalesced = waiters.size() > 1;

  stats_.completed.fetch_add(1, std::memory_order_relaxed);
  switch (response.status) {
    case ServeStatus::Passed:
      stats_.passed.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServeStatus::Failed:
      stats_.failed.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServeStatus::TimedOut:
      stats_.timed_out.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServeStatus::Cancelled:
      stats_.cancelled.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServeStatus::StateLimit:
      stats_.state_limit.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      break;
  }

  const Clock::time_point done_at = Clock::now();
  if (!waiters.empty()) {
    const std::uint64_t leader_ns = static_cast<std::uint64_t>(
        (done_at - waiters.front().enqueued).count());
    // EWMA of flight wall time feeds the Retry-After hint.
    const std::uint64_t prev = avg_check_ns_.load(std::memory_order_relaxed);
    avg_check_ns_.store(prev - prev / 8 + leader_ns / 8,
                        std::memory_order_relaxed);
  }

  for (SingleFlight::Waiter& w : waiters) {
    CheckResponse copy = response;
    copy.id = w.request_id;
    copy.wall_ns =
        static_cast<std::uint64_t>((done_at - w.enqueued).count());
    stats_.latency.record(copy.wall_ns);
    w.done(std::move(copy));
  }

  {
    std::lock_guard lk(drain_mu_);
    admitted_.fetch_sub(1, std::memory_order_relaxed);
  }
  drain_cv_.notify_all();
}

std::optional<CheckResponse> VerifyService::memo_lookup(
    const store::Digest& key) {
  std::lock_guard lk(memo_mu_);
  auto it = memo_.find(key);
  if (it == memo_.end()) return std::nullopt;
  memo_lru_.splice(memo_lru_.begin(), memo_lru_, it->second.lru);
  CheckResponse r = it->second.response;
  r.from_cache = true;
  r.memo_hit = true;
  return r;
}

void VerifyService::memo_insert(const store::Digest& key,
                                const CheckResponse& response) {
  if (options_.memo_capacity == 0) return;
  CheckResponse stored = response;
  stored.id = 0;
  stored.wall_ns = 0;
  stored.coalesced = false;
  std::lock_guard lk(memo_mu_);
  if (auto it = memo_.find(key); it != memo_.end()) {
    it->second.response = std::move(stored);
    memo_lru_.splice(memo_lru_.begin(), memo_lru_, it->second.lru);
    return;
  }
  memo_lru_.push_front(key);
  memo_.emplace(key, MemoEntry{std::move(stored), memo_lru_.begin()});
  while (memo_.size() > options_.memo_capacity) {
    memo_.erase(memo_lru_.back());
    memo_lru_.pop_back();
  }
}

std::uint32_t VerifyService::retry_after_ms() const {
  // Expected time for one scheduler slot to free up: the average check
  // duration spread over the workers, scaled by how deep the queue is.
  const std::uint64_t avg = avg_check_ns_.load(std::memory_order_relaxed);
  const std::size_t depth =
      std::max<std::size_t>(admitted_.load(std::memory_order_relaxed),
                            scheduler_->jobs());
  const double ms = static_cast<double>(avg) / 1e6 *
                    (static_cast<double>(depth) /
                     static_cast<double>(scheduler_->jobs()));
  return static_cast<std::uint32_t>(std::clamp(ms, 50.0, 30'000.0));
}

CheckResponse VerifyService::serve(CheckRequest req) {
  std::promise<CheckResponse> promise;
  std::future<CheckResponse> future = promise.get_future();
  submit(std::move(req),
         [&promise](CheckResponse r) { promise.set_value(std::move(r)); });
  return future.get();
}

std::size_t VerifyService::in_flight() const {
  return admitted_.load(std::memory_order_relaxed);
}

void VerifyService::begin_drain() {
  draining_.store(true, std::memory_order_relaxed);
}

bool VerifyService::drain(std::chrono::milliseconds timeout) {
  std::unique_lock lk(drain_mu_);
  const bool clean = drain_cv_.wait_for(lk, timeout, [this] {
    return admitted_.load(std::memory_order_relaxed) == 0;
  });
  if (clean) return true;
  lk.unlock();
  flights_.cancel_all();
  lk.lock();
  // Cancellation is cooperative and the engine polls densely; this
  // converges as fast as the slowest poll interval.
  drain_cv_.wait(lk, [this] {
    return admitted_.load(std::memory_order_relaxed) == 0;
  });
  return false;
}

std::string VerifyService::stats_json() const {
  const store::CacheStats& c = cache_->stats();
  const std::uint64_t vh = c.verdict_hits.load(std::memory_order_relaxed);
  const std::uint64_t vm = c.verdict_misses.load(std::memory_order_relaxed);
  const double hit_ratio =
      vh + vm == 0 ? 0.0
                   : static_cast<double>(vh) / static_cast<double>(vh + vm);
  const std::size_t inflight = admitted_.load(std::memory_order_relaxed);
  const std::size_t running = std::min<std::size_t>(inflight, jobs());

  char buf[2048];
  std::snprintf(
      buf, sizeof buf,
      "{\"serve_format\":3,"
      "\"jobs\":%u,\"capacity\":%zu,"
      "\"draining\":%s,"
      "\"received\":%llu,\"engine_runs\":%llu,\"coalesced\":%llu,"
      "\"memo_hits\":%llu,\"shed\":%llu,\"rejected_draining\":%llu,"
      "\"bad_requests\":%llu,\"completed\":%llu,"
      "\"in_flight\":%zu,\"queue_depth\":%zu,"
      "\"status\":{\"passed\":%llu,\"failed\":%llu,\"timed_out\":%llu,"
      "\"cancelled\":%llu,\"state_limit\":%llu,\"errors\":%llu},"
      "\"latency_ms\":{\"count\":%llu,\"p50\":%.3f,\"p90\":%.3f,"
      "\"p99\":%.3f,\"max\":%.3f},"
      "\"cache\":{\"verdict_hits\":%llu,\"verdict_misses\":%llu,"
      "\"lts_hits\":%llu,\"lts_misses\":%llu,\"hit_ratio\":%.4f,"
      "\"memory_hits\":%llu,\"disk_hits\":%llu,\"stores\":%llu}}",
      jobs(), capacity_,
      draining() ? "true" : "false",
      static_cast<unsigned long long>(stats_.received.load()),
      static_cast<unsigned long long>(stats_.engine_runs.load()),
      static_cast<unsigned long long>(stats_.coalesced.load()),
      static_cast<unsigned long long>(stats_.memo_hits.load()),
      static_cast<unsigned long long>(stats_.shed.load()),
      static_cast<unsigned long long>(stats_.rejected_draining.load()),
      static_cast<unsigned long long>(stats_.bad_requests.load()),
      static_cast<unsigned long long>(stats_.completed.load()),
      inflight, inflight - running,
      static_cast<unsigned long long>(stats_.passed.load()),
      static_cast<unsigned long long>(stats_.failed.load()),
      static_cast<unsigned long long>(stats_.timed_out.load()),
      static_cast<unsigned long long>(stats_.cancelled.load()),
      static_cast<unsigned long long>(stats_.state_limit.load()),
      static_cast<unsigned long long>(stats_.errors.load()),
      static_cast<unsigned long long>(stats_.latency.count()),
      stats_.latency.quantile_ms(0.50), stats_.latency.quantile_ms(0.90),
      stats_.latency.quantile_ms(0.99), stats_.latency.max_ms(),
      static_cast<unsigned long long>(vh), static_cast<unsigned long long>(vm),
      static_cast<unsigned long long>(c.lts_hits.load()),
      static_cast<unsigned long long>(c.lts_misses.load()), hit_ratio,
      static_cast<unsigned long long>(c.memory_hits.load()),
      static_cast<unsigned long long>(c.disk_hits.load()),
      static_cast<unsigned long long>(c.stores.load()));
  return buf;
}

}  // namespace ecucsp::serve
