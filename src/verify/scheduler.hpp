// Parallel batch-verification scheduler.
//
// A work-queue thread pool sized to the hardware (or --jobs N): workers are
// std::jthreads parked on a condition variable; run() enqueues one job per
// CheckTask and blocks until all have completed. Each job executes on its
// own freshly built Context (see task.hpp), so workers share nothing but
// the queue itself — the engine runs entirely lock-free.
//
// Timeouts are cooperative: the worker arms the task's CancelToken with the
// deadline and the engine's exploration loops poll it (core/cancel.hpp).
// A timed-out task therefore unwinds by exception on its own worker, which
// then simply picks up the next job — no thread is killed, the pool never
// stalls, and destruction joins everything via jthread's stop_token.
//
// Determinism: verdicts, counterexamples and stats of every task are
// computed in an isolated Context, so a batch yields byte-identical
// outcomes (in submission order) whatever the worker count — scheduling can
// only affect the wall-time fields. tests/verify_scheduler_test.cpp pins
// this.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "verify/task.hpp"

namespace ecucsp::verify {

struct SchedulerOptions {
  /// Worker count; 0 means std::thread::hardware_concurrency().
  unsigned jobs = 0;
  /// Applied to tasks that do not carry their own timeout.
  std::optional<std::chrono::milliseconds> default_timeout{};
};

class VerifyScheduler {
 public:
  explicit VerifyScheduler(SchedulerOptions options = {});
  ~VerifyScheduler();

  VerifyScheduler(const VerifyScheduler&) = delete;
  VerifyScheduler& operator=(const VerifyScheduler&) = delete;

  unsigned jobs() const { return jobs_; }

  /// Run the whole batch, blocking until every task has an outcome.
  /// Outcomes are returned in submission order. Only one run() may be active
  /// at a time; concurrent callers are serialised on an internal mutex.
  BatchResult run(const std::vector<CheckTask>& tasks);

  /// Asynchronous single-task intake — the serve layer's path into the same
  /// worker pool, without run()'s batch barrier. Enqueues `task` and returns
  /// immediately; `done` runs on the worker thread that executed the task,
  /// after the outcome is complete. The caller owns `token` (it must outlive
  /// the completion callback) and arms nothing — the worker applies the
  /// task's / scheduler's timeout exactly as run() does. submit() may
  /// interleave freely with batch run() calls; the pool serves both queues
  /// in FIFO order.
  void submit(CheckTask task, CancelToken* token,
              std::function<void(TaskOutcome)> done);

  /// Tasks accepted (batch or async) whose outcome is not yet complete —
  /// queued plus running. Admission-control signal for the serve layer.
  std::size_t pending() const;

  /// Cooperatively cancel everything in flight and queued. Queued tasks
  /// complete immediately with status Cancelled; running tasks unwind at
  /// their next poll. Callable from any thread (e.g. a signal handler path).
  void cancel_all();

 private:
  /// A submit()ed task owns its storage; the worker moves the outcome into
  /// the completion callback instead of a caller-provided slot.
  struct AsyncJob {
    CheckTask task;
    CancelToken* token = nullptr;
    std::function<void(TaskOutcome)> done;
  };

  struct Job {
    const CheckTask* task = nullptr;
    TaskOutcome* outcome = nullptr;
    CancelToken* token = nullptr;
    std::shared_ptr<AsyncJob> owned;  // non-null for submit() jobs
  };

  void worker(std::stop_token stop);

  unsigned jobs_ = 1;
  SchedulerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable_any cv_;       // workers wait here for jobs
  std::condition_variable cv_done_;      // run() waits here for completion
  std::deque<Job> queue_;
  std::size_t outstanding_ = 0;          // batch jobs queued or running
  std::size_t async_outstanding_ = 0;    // submit() jobs queued or running
  std::vector<CancelToken>* batch_tokens_ = nullptr;  // for cancel_all

  std::mutex run_mu_;  // serialises concurrent run() callers

  std::vector<std::jthread> workers_;  // last member: joins before the rest dies
};

/// Batch a set of independent boolean queries through the worker pool and
/// return their answers in submission order — the membership-query path of
/// the active learner (src/learn), where one round produces hundreds of
/// independent oracle runs that are embarrassingly parallel but whose
/// *answers* must fold deterministically. Each query becomes a custom-mode
/// CheckTask (true == Passed); results are read back in submission order,
/// so the answer vector is independent of worker count and scheduling.
/// A query that throws, times out or is cancelled cannot be represented as
/// a boolean — run_bool_batch throws std::runtime_error naming it, because
/// a learner that silently mis-records a membership answer would construct
/// a wrong hypothesis with no diagnostic.
std::vector<bool> run_bool_batch(
    VerifyScheduler& sched,
    const std::vector<std::function<bool(CancelToken&)>>& queries,
    std::string_view label = "query");

}  // namespace ecucsp::verify
