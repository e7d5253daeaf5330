// Scheduler determinism, timeout and cancellation tests.
//
// The contracts pinned here are the ones README documents for src/verify:
//   * verdicts, counterexamples and stats are byte-identical whatever the
//     worker count (one fresh Context per task => scheduling cannot leak);
//   * outcomes come back in submission order;
//   * a diverging/huge check with a tiny timeout returns TimedOut without
//     stalling the pool, leaking a thread, or disturbing its neighbours;
//   * cancellation is cooperative and immediate for queued tasks, and a
//     mid-flight cancel_all() leaves the pool reusable.
// The CI thread-sanitizer job runs this binary to police data races.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "verify/ota_batch.hpp"
#include "verify/scheduler.hpp"

namespace ecucsp::verify {
namespace {

/// A custom task over an effectively infinite-state impl:
/// COUNT(n) = a -> COUNT(n+1), checked for deadlock freedom. It forces
/// compile_lts to run until the state budget or a deadline stops it. A CSPm
/// counter would end at the evaluator's instantiation limit instead, so the
/// task builds the counter in its own Context.
CheckTask unbounded_counter(std::string name,
                            std::size_t max_states = 1u << 22) {
  CheckTask t;
  t.name = std::move(name);
  t.custom = [max_states](CancelToken& token) {
    Context ctx;
    const EventId a = ctx.event(ctx.channel("a"));
    ctx.define("COUNT", [a](Context& cx, std::span<const Value> args) {
      const std::int64_t n = args[0].as_int();
      return cx.prefix(a, cx.var("COUNT", {Value::integer(n + 1)}));
    });
    const ProcessRef impl = ctx.var("COUNT", {Value::integer(0)});
    return render(ctx, check_deadlock_free(ctx, impl, max_states, &token));
  };
  return t;
}

/// `k` interleaved cyclers C_i = p_i -> q_i -> C_i under a deadlock check:
/// a CSPm script whose system has 3^k states.
std::string cyclers_script(int k) {
  std::string channels;
  std::string procs;
  std::string sys;
  for (int i = 0; i < k; ++i) {
    const std::string n = std::to_string(i);
    channels += (i ? ", p" : "p") + n + ", q" + n;
    procs += "C" + n + " = p" + n + " -> q" + n + " -> C" + n + "\n";
    sys += (i ? " ||| C" : "C") + n;
  }
  return "channel " + channels + "\n" + procs + "SYS = " + sys +
         "\nassert SYS :[deadlock free [F]]\n";
}

CheckTask simple_refinement(std::string name, bool should_pass) {
  CheckTask t;
  t.name = std::move(name);
  const char* spec = should_pass ? "SPEC = a -> b -> STOP\n"
                                 : "SPEC = a -> STOP\n";
  t.sources = {std::string("channel a, b\n") + spec +
               "IMPL = a -> b -> STOP\n"
               "assert SPEC [T= IMPL\n"};
  t.assertion_index = 0;
  t.expected = should_pass;
  return t;
}

std::vector<std::string> fingerprint(const BatchResult& batch) {
  std::vector<std::string> out;
  for (const TaskOutcome& o : batch.outcomes) {
    out.push_back(o.name + "|" + std::string(to_string(o.status)) + "|" +
                  o.counterexample + "|" +
                  std::to_string(o.stats.impl_states) + "|" +
                  std::to_string(o.stats.impl_transitions));
  }
  return out;
}

TEST(VerifyScheduler, SameVerdictsAndCounterexamplesAtAnyWorkerCount) {
  // The full OTA matrix plus CSPm tasks, at 1, 2, 4 and 8 workers.
  std::vector<CheckTask> tasks = ota_requirement_matrix();
  for (CheckTask& t : ota_extended_batch()) tasks.push_back(std::move(t));
  tasks.push_back(simple_refinement("pass", true));
  tasks.push_back(simple_refinement("fail", false));

  VerifyScheduler one({.jobs = 1});
  const BatchResult r1 = one.run(tasks);
  ASSERT_EQ(r1.outcomes.size(), tasks.size());
  EXPECT_TRUE(r1.all_as_expected());

  for (const unsigned jobs : {2u, 4u, 8u}) {
    VerifyScheduler many({.jobs = jobs});
    const BatchResult rn = many.run(tasks);
    EXPECT_EQ(fingerprint(r1), fingerprint(rn)) << "jobs=" << jobs;
    EXPECT_TRUE(rn.all_as_expected()) << "jobs=" << jobs;
    // Submission order is preserved regardless of completion order.
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_EQ(rn.outcomes[i].name, tasks[i].name) << "jobs=" << jobs;
    }
  }
}

TEST(VerifyScheduler, RepeatedRunsOnOnePoolAreIdentical) {
  VerifyScheduler sched({.jobs = 4});
  const std::vector<CheckTask> tasks = ota_requirement_matrix();
  const BatchResult a = sched.run(tasks);
  const BatchResult b = sched.run(tasks);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(VerifyScheduler, TimeoutReturnsTimedOutWithoutStallingThePool) {
  // Task 0 explores an unbounded process under a 50 ms deadline; its
  // neighbours must be untouched and the batch must complete promptly.
  std::vector<CheckTask> tasks;
  CheckTask diverging = unbounded_counter("diverging");
  diverging.timeout = std::chrono::milliseconds(50);
  tasks.push_back(std::move(diverging));
  for (int i = 0; i < 6; ++i) {
    tasks.push_back(simple_refinement("ok " + std::to_string(i), true));
  }

  VerifyScheduler sched({.jobs = 2});
  const BatchResult batch = sched.run(tasks);

  ASSERT_EQ(batch.outcomes.size(), tasks.size());
  EXPECT_EQ(batch.outcomes[0].status, TaskStatus::TimedOut);
  EXPECT_FALSE(batch.outcomes[0].error.empty());
  for (std::size_t i = 1; i < batch.outcomes.size(); ++i) {
    EXPECT_EQ(batch.outcomes[i].status, TaskStatus::Passed) << i;
  }
  // The deadline is cooperative but must not overshoot by orders of
  // magnitude: the whole batch should finish in well under the state
  // budget's natural runtime (minutes). Allow generous CI slack.
  EXPECT_LT(batch.wall, std::chrono::seconds(30));
  // The pool survives for another batch.
  const BatchResult again = sched.run({simple_refinement("after", true)});
  EXPECT_EQ(again.outcomes[0].status, TaskStatus::Passed);
}

TEST(VerifyScheduler, DefaultTimeoutAppliesToTasksWithoutTheirOwn) {
  CheckTask diverging = unbounded_counter("diverging");  // no own timeout
  VerifyScheduler sched(
      {.jobs = 2, .default_timeout = std::chrono::milliseconds(50)});
  const BatchResult batch = sched.run({std::move(diverging)});
  EXPECT_EQ(batch.outcomes[0].status, TaskStatus::TimedOut);
}

TEST(VerifyScheduler, StateBudgetMapsToStateLimitStatus) {
  // 3^8 = 6,561 states against a budget of 1,000: the task's max_states
  // must reach the CSPm evaluator's exploration.
  CheckTask big;
  big.name = "big";
  big.sources = {cyclers_script(8)};
  big.assertion_index = 0;
  big.max_states = 1000;
  VerifyScheduler sched({.jobs = 1});
  const BatchResult batch = sched.run({std::move(big)});
  EXPECT_EQ(batch.outcomes[0].status, TaskStatus::StateLimit);
  EXPECT_NE(batch.outcomes[0].error.find("state limit"), std::string::npos);
}

TEST(VerifyScheduler, ThrowingFactoryMapsToErrorStatus) {
  CheckTask bad;
  bad.name = "bad";
  // An undefined process variable: resolution throws during compilation.
  bad.custom = [](CancelToken& token) {
    Context ctx;
    return render(ctx, check_refinement(ctx, ctx.stop(),
                                        ctx.var("NO_SUCH_PROCESS"),
                                        Model::Traces, 1u << 22, &token));
  };
  VerifyScheduler sched({.jobs = 2});
  const BatchResult batch = sched.run({std::move(bad)});
  EXPECT_EQ(batch.outcomes[0].status, TaskStatus::Error);
  EXPECT_FALSE(batch.outcomes[0].error.empty());
}

TEST(VerifyScheduler, CancelAllCancelsQueuedTasks) {
  // One worker, several slow-ish tasks: cancel from another thread while
  // the first is in flight; later tasks must come back Cancelled (or, if
  // the race resolves late, at least never hang the run).
  std::vector<CheckTask> tasks;
  for (int i = 0; i < 4; ++i) {
    // A few hundred ms each, bounded either way.
    tasks.push_back(unbounded_counter("slow " + std::to_string(i), 200000));
  }
  VerifyScheduler sched({.jobs = 1});
  std::jthread canceller([&sched] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    sched.cancel_all();
  });
  const BatchResult batch = sched.run(tasks);
  ASSERT_EQ(batch.outcomes.size(), tasks.size());
  // The tail of the queue was cancelled before it started.
  EXPECT_EQ(batch.outcomes.back().status, TaskStatus::Cancelled);
}

TEST(VerifyScheduler, MidFlightCancellationUnwindsWithoutDeadlockOrLeak) {
  // Dilated matrix on two workers: enough product-space work that
  // cancel_all() lands while checks are mid-exploration on both workers at
  // once, unlike CancelAllCancelsQueuedTasks, which only drains the queue
  // behind one job.
  const std::vector<CheckTask> suite =
      ota_requirement_matrix({.dilation = 5});

  VerifyScheduler sched({.jobs = 2});
  std::jthread killer([&sched] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    sched.cancel_all();
  });

  const BatchResult batch = sched.run(suite);
  killer.join();

  // Every task reached a terminal status — nothing hung. Do NOT assert
  // all_as_expected: whichever tasks finished before the cancellation keep
  // their real verdicts, the rest come back Cancelled.
  ASSERT_EQ(batch.outcomes.size(), suite.size());
  for (const TaskOutcome& o : batch.outcomes) {
    EXPECT_TRUE(o.status == TaskStatus::Passed ||
                o.status == TaskStatus::Failed ||
                o.status == TaskStatus::Cancelled ||
                o.status == TaskStatus::TimedOut)
        << o.name << ": " << to_string(o.status);
  }

  // The pool survived: a follow-up batch on the same scheduler runs to
  // completion with correct verdicts (no leaked tokens, no stuck worker).
  std::vector<CheckTask> full = ota_requirement_matrix();
  for (CheckTask& t : ota_extended_batch()) full.push_back(std::move(t));
  const BatchResult probe = sched.run(full);
  EXPECT_TRUE(probe.all_as_expected());
}

TEST(VerifyScheduler, CsmpSourceTasksRunPerAssertion) {
  const std::string script =
      "channel ping, pong\n"
      "SPEC = ping -> pong -> SPEC\n"
      "IMPL = ping -> pong -> IMPL\n"
      "BAD = pong -> BAD\n"
      "assert SPEC [T= IMPL\n"
      "assert SPEC [T= BAD\n";
  std::vector<CheckTask> tasks(2);
  for (std::size_t i = 0; i < 2; ++i) {
    tasks[i].name = "assert #" + std::to_string(i);
    tasks[i].sources = {script};
    tasks[i].assertion_index = i;
  }
  VerifyScheduler sched({.jobs = 2});
  const BatchResult batch = sched.run(tasks);
  EXPECT_EQ(batch.outcomes[0].status, TaskStatus::Passed);
  EXPECT_EQ(batch.outcomes[1].status, TaskStatus::Failed);
  EXPECT_NE(batch.outcomes[1].counterexample.find("pong"), std::string::npos);
}

TEST(VerifyScheduler, EmptyBatchCompletesImmediately) {
  VerifyScheduler sched({.jobs = 4});
  const BatchResult batch = sched.run({});
  EXPECT_TRUE(batch.outcomes.empty());
  EXPECT_TRUE(batch.all_passed());
}

TEST(RunTask, PreArmedCancelledTokenSkipsTheCheck) {
  CancelToken token;
  token.request_cancel();
  const TaskOutcome out = run_task(simple_refinement("skipped", true), token);
  EXPECT_EQ(out.status, TaskStatus::Cancelled);
}

TEST(RunTask, ExpiredDeadlineFiresBeforeExploration) {
  CancelToken token;
  token.set_deadline(CancelToken::Clock::now() - std::chrono::seconds(1));
  const TaskOutcome out = run_task(unbounded_counter("expired"), token);
  EXPECT_EQ(out.status, TaskStatus::TimedOut);
}

TEST(VerifyScheduler, AlphabetMismatchInjectionMakesPassesVacuous) {
  // Fault injection for the vacuity detector: renaming the system under
  // test onto a fresh primed alphabet (the effect of an extractor that
  // mis-maps every channel) must never produce a clean PASS. Every cell
  // that still passes does so vacuously — and an honest run has no
  // vacuous cells at all.
  VerifyScheduler sched({.jobs = 2});
  const BatchResult honest = sched.run(ota_requirement_matrix());
  for (const TaskOutcome& o : honest.outcomes) {
    EXPECT_FALSE(o.vacuous) << o.name;
  }

  const BatchResult injected =
      sched.run(ota_requirement_matrix({.inject_alphabet_mismatch = true}));
  std::size_t vacuous_passes = 0;
  for (const TaskOutcome& o : injected.outcomes) {
    if (o.status == TaskStatus::Passed) {
      EXPECT_TRUE(o.vacuous) << "clean PASS under injection: " << o.name;
      ++vacuous_passes;
    } else {
      EXPECT_FALSE(o.vacuous) << o.name;
    }
  }
  EXPECT_GT(vacuous_passes, 0u);
}

TEST(RunBoolBatch, AnswersArriveInSubmissionOrderAtAnyWorkerCount) {
  // The learner's membership-query path: answers must line up with the
  // query vector regardless of jobs, and be identical across pools.
  std::vector<std::function<bool(CancelToken&)>> queries;
  for (std::size_t i = 0; i < 64; ++i) {
    queries.emplace_back([i](CancelToken&) { return i % 3 == 0; });
  }
  std::vector<bool> first;
  for (unsigned jobs : {1u, 2u, 4u}) {
    VerifyScheduler sched({.jobs = jobs});
    const std::vector<bool> got = run_bool_batch(sched, queries, "member");
    ASSERT_EQ(got.size(), queries.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], i % 3 == 0) << i;
    }
    if (first.empty()) first = got;
    EXPECT_EQ(got, first);
  }
}

TEST(RunBoolBatch, ThrowingQuerySurfacesAsRuntimeError) {
  // A query that cannot produce a boolean must abort the batch loudly —
  // a silently mis-recorded membership answer would corrupt the learner's
  // hypothesis with no diagnostic.
  std::vector<std::function<bool(CancelToken&)>> queries;
  queries.emplace_back([](CancelToken&) { return true; });
  queries.emplace_back(
      [](CancelToken&) -> bool { throw std::runtime_error("oracle died"); });
  VerifyScheduler sched({.jobs = 2});
  EXPECT_THROW(run_bool_batch(sched, queries), std::runtime_error);
}

TEST(CancelToken, PollThrowsAfterRequestCancel) {
  CancelToken token;
  EXPECT_NO_THROW(token.poll());
  token.request_cancel();
  EXPECT_THROW(token.poll(), CheckCancelled);
  try {
    token.poll();
  } catch (const CheckCancelled& c) {
    EXPECT_EQ(c.reason(), CheckCancelled::Reason::Cancelled);
  }
}

}  // namespace
}  // namespace ecucsp::verify
