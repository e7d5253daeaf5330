// Single-flight coalescing contract (the heart of the serve layer):
//
//   * K concurrent identical submissions cause exactly ONE engine
//     invocation, and all K callers receive byte-identical verdicts —
//     counterexample bytes, vacuity, from_cache flags, the lot — at
//     jobs {1,2,4};
//   * a waiter departing mid-flight (its callback goes nowhere) never
//     aborts the shared check: the flight's CancelToken stays unfired and
//     every remaining waiter is answered;
//   * distinct keys do NOT coalesce;
//   * the response memo answers post-completion identical requests without
//     another engine run, byte-identically;
//   * drain cancels in-flight work cooperatively and rejects new intake.
//
// Tasks are latch-gated custom-mode CheckTasks under controlled digests, so
// "concurrent" is deterministic: the leader blocks inside the engine until
// every sharer has provably joined the flight.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"

using namespace ecucsp;
using namespace ecucsp::serve;

namespace {

/// A turnstile the gated task blocks on until the test opens it.
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  int entered = 0;             // tasks currently blocked (or past) the gate
  std::atomic<int> runs{0};    // engine invocations — the coalescing meter
  std::atomic<bool> saw_cancel{false};

  void open_up() {
    {
      std::lock_guard lk(m);
      open = true;
    }
    cv.notify_all();
  }
  void wait_entered(int n) {
    std::unique_lock lk(m);
    cv.wait(lk, [&] { return entered >= n; });
  }
};

/// Custom-mode task: counts the invocation, parks on the gate, then
/// produces a deterministic FAILED verdict with a counterexample.
verify::CheckTask gated_task(Gate& gate) {
  verify::CheckTask task;
  task.name = "gated";
  task.custom = [&gate](CancelToken& token) {
    gate.runs.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock lk(gate.m);
      ++gate.entered;
      gate.cv.notify_all();
      gate.cv.wait(lk, [&gate] { return gate.open; });
    }
    gate.saw_cancel.store(token.cancel_requested(), std::memory_order_relaxed);
    token.poll_now();  // unwind as Cancelled if drain fired the token
    verify::RenderedCheck rc;
    rc.result.passed = false;
    rc.result.stats.impl_states = 7;
    rc.result.stats.impl_transitions = 9;
    rc.counterexample = "gated spec [T= impl: <send.req, rec.rpt> then boom";
    return rc;
  };
  return task;
}

/// Collects callbacks and lets the test block until N have landed.
struct Collector {
  std::mutex m;
  std::condition_variable cv;
  std::vector<CheckResponse> got;

  VerifyService::Callback sink() {
    return [this](CheckResponse r) {
      // Notify under the lock: a test may destroy the collector as soon as
      // wait() returns, while the service's workers are still running.
      std::lock_guard lk(m);
      got.push_back(std::move(r));
      cv.notify_all();
    };
  }
  void wait(std::size_t n) {
    std::unique_lock lk(m);
    cv.wait(lk, [&] { return got.size() >= n; });
  }
};

store::Digest key_of(std::uint64_t n) { return store::Digest{n, ~n}; }

TEST(ServeCoalesceTest, KIdenticalSubmissionsOneEngineRunAcrossGrid) {
  constexpr int K = 6;
  // What one uncoalesced submission of the same task answers.
  std::string solo_block;
  {
    ServiceOptions opts;
    opts.jobs = 1;
    VerifyService service(opts);
    Gate gate;
    gate.open_up();
    Collector solo;
    service.submit_keyed(key_of(1), gated_task(gate), 1, solo.sink());
    solo.wait(1);
    EXPECT_FALSE(solo.got[0].coalesced);
    solo_block = solo.got[0].verdict_block();
  }
  for (const unsigned jobs : {1u, 2u, 4u}) {
    ServiceOptions opts;
    opts.jobs = jobs;
    opts.memo_capacity = 0;  // isolate single-flight from the memo
    VerifyService service(opts);

    Gate gate;
    Collector out;
    for (int i = 0; i < K; ++i) {
      service.submit_keyed(key_of(1), gated_task(gate), i + 1, out.sink());
    }
    gate.wait_entered(1);  // the leader is inside the engine
    EXPECT_EQ(service.in_flight(), 1u) << "jobs=" << jobs;
    gate.open_up();
    out.wait(K);

    EXPECT_EQ(gate.runs.load(), 1) << "jobs=" << jobs;
    EXPECT_EQ(service.stats().engine_runs.load(), 1u);
    EXPECT_EQ(service.stats().coalesced.load(),
              static_cast<std::uint64_t>(K - 1));

    // All K sharers: byte-identical verdicts, counterexamples included,
    // same transport flags, distinct correlation ids.
    ASSERT_EQ(out.got.size(), static_cast<std::size_t>(K));
    const std::string block = out.got[0].verdict_block();
    std::vector<bool> seen(K + 1, false);
    EXPECT_EQ(block, solo_block) << "jobs=" << jobs;
    for (const CheckResponse& r : out.got) {
      EXPECT_EQ(r.status, ServeStatus::Failed);
      EXPECT_EQ(r.verdict_block(), block);
      EXPECT_EQ(r.counterexample,
                "gated spec [T= impl: <send.req, rec.rpt> then boom");
      EXPECT_FALSE(r.from_cache);
      EXPECT_FALSE(r.memo_hit);
      EXPECT_TRUE(r.coalesced);
      ASSERT_GE(r.id, 1u);
      ASSERT_LE(r.id, static_cast<std::uint64_t>(K));
      EXPECT_FALSE(seen[r.id]) << "duplicate response for id " << r.id;
      seen[r.id] = true;
    }
  }
}

TEST(ServeCoalesceTest, DistinctKeysDoNotCoalesce) {
  ServiceOptions opts;
  opts.jobs = 4;
  opts.memo_capacity = 0;
  VerifyService service(opts);

  Gate gate;
  Collector out;
  constexpr int N = 4;
  for (int i = 0; i < N; ++i) {
    service.submit_keyed(key_of(100 + i), gated_task(gate), i + 1, out.sink());
  }
  gate.wait_entered(N);  // all four run concurrently — nothing coalesced
  gate.open_up();
  out.wait(N);
  EXPECT_EQ(gate.runs.load(), N);
  EXPECT_EQ(service.stats().engine_runs.load(), static_cast<std::uint64_t>(N));
  EXPECT_EQ(service.stats().coalesced.load(), 0u);
  for (const CheckResponse& r : out.got) {
    EXPECT_FALSE(r.coalesced);
    EXPECT_FALSE(r.from_cache);  // no store or memo answered distinct keys
  }
}

TEST(ServeCoalesceTest, DepartedWaiterNeverAbortsTheSharedFlight) {
  ServiceOptions opts;
  opts.jobs = 2;
  opts.memo_capacity = 0;
  VerifyService service(opts);

  Gate gate;
  Collector out;
  std::atomic<int> dropped{0};
  service.submit_keyed(key_of(2), gated_task(gate), 1, out.sink());
  gate.wait_entered(1);
  // Two more sharers; the middle one "disconnects": its callback only
  // counts — exactly what the server does for a vanished connection.
  service.submit_keyed(key_of(2), gated_task(gate), 2,
                       [&dropped](CheckResponse) { ++dropped; });
  service.submit_keyed(key_of(2), gated_task(gate), 3, out.sink());
  gate.open_up();
  out.wait(2);

  EXPECT_EQ(gate.runs.load(), 1);
  EXPECT_FALSE(gate.saw_cancel.load())
      << "a departing waiter must not fire the flight's CancelToken";
  EXPECT_EQ(dropped.load(), 1);
  for (const CheckResponse& r : out.got) {
    EXPECT_EQ(r.status, ServeStatus::Failed);
    EXPECT_TRUE(r.coalesced);
  }
}

TEST(ServeCoalesceTest, MemoAnswersRepeatsWithoutEngineByteIdentically) {
  ServiceOptions opts;
  opts.jobs = 2;
  opts.memo_capacity = 64;
  VerifyService service(opts);

  Gate gate;
  gate.open_up();  // no need to hold anything back here
  Collector first;
  service.submit_keyed(key_of(3), gated_task(gate), 1, first.sink());
  first.wait(1);
  ASSERT_EQ(gate.runs.load(), 1);

  Collector repeat;
  service.submit_keyed(key_of(3), gated_task(gate), 2, repeat.sink());
  repeat.wait(1);
  EXPECT_EQ(gate.runs.load(), 1) << "memo hit must not touch the engine";
  EXPECT_EQ(service.stats().memo_hits.load(), 1u);
  EXPECT_TRUE(repeat.got[0].memo_hit);
  EXPECT_TRUE(repeat.got[0].from_cache);
  EXPECT_EQ(repeat.got[0].id, 2u);
  EXPECT_EQ(repeat.got[0].verdict_block(), first.got[0].verdict_block());
}

TEST(ServeCoalesceTest, DrainCancelsInFlightAndRejectsNewIntake) {
  ServiceOptions opts;
  opts.jobs = 1;
  opts.memo_capacity = 0;
  VerifyService service(opts);

  // A task that can ONLY finish by cancellation: drain must both fire the
  // flight's token and wait for the cooperative unwinding.
  std::atomic<bool> entered{false};
  verify::CheckTask task;
  task.name = "spin-until-cancelled";
  task.custom = [&entered](CancelToken& token) -> verify::RenderedCheck {
    entered.store(true, std::memory_order_relaxed);
    while (!token.cancel_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    token.poll_now();  // throws CheckCancelled
    return {};
  };
  Collector out;
  service.submit_keyed(key_of(4), std::move(task), 1, out.sink());
  while (!entered.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  service.begin_drain();
  Gate gate;
  Collector rejected;
  service.submit_keyed(key_of(5), gated_task(gate), 2, rejected.sink());
  rejected.wait(1);
  EXPECT_EQ(rejected.got[0].status, ServeStatus::ShuttingDown);

  const bool clean = service.drain(std::chrono::milliseconds(0));
  EXPECT_FALSE(clean) << "a 0ms budget with work in flight means cancellation";
  out.wait(1);
  EXPECT_EQ(out.got[0].status, ServeStatus::Cancelled);
  EXPECT_EQ(service.in_flight(), 0u);
}

TEST(ServeCoalesceTest, BadRequestAndOverloadAreRejections) {
  ServiceOptions opts;
  opts.jobs = 1;
  opts.max_queue = 1;  // capacity 2: one running + one queued
  opts.memo_capacity = 0;
  VerifyService service(opts);

  Collector bad;
  service.submit(CheckRequest{}, bad.sink());  // no sources
  bad.wait(1);
  EXPECT_EQ(bad.got[0].status, ServeStatus::BadRequest);

  Gate gate;
  Collector out;
  service.submit_keyed(key_of(6), gated_task(gate), 1, out.sink());
  gate.wait_entered(1);
  service.submit_keyed(key_of(7), gated_task(gate), 2, out.sink());

  Collector shed;
  service.submit_keyed(key_of(8), gated_task(gate), 3, shed.sink());
  shed.wait(1);
  EXPECT_EQ(shed.got[0].status, ServeStatus::Overloaded);
  EXPECT_GE(shed.got[0].retry_after_ms, 50u);
  EXPECT_EQ(service.stats().shed.load(), 1u);

  // Coalesced waiters bypass admission even at full capacity.
  Collector waiter;
  service.submit_keyed(key_of(6), gated_task(gate), 4, waiter.sink());
  gate.open_up();
  out.wait(2);
  waiter.wait(1);
  EXPECT_TRUE(waiter.got[0].coalesced);
  EXPECT_EQ(waiter.got[0].status, ServeStatus::Failed);
}

}  // namespace
