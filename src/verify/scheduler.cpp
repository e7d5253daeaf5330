#include "verify/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "cspm/eval.hpp"
#include "verify/prune.hpp"

namespace ecucsp::verify {

std::string_view to_string(TaskStatus s) {
  switch (s) {
    case TaskStatus::Passed:
      return "passed";
    case TaskStatus::Failed:
      return "FAILED";
    case TaskStatus::TimedOut:
      return "timed out";
    case TaskStatus::Cancelled:
      return "cancelled";
    case TaskStatus::StateLimit:
      return "state limit";
    case TaskStatus::Error:
      return "error";
  }
  return "?";
}

RenderedCheck render(const Context& ctx, CheckResult r) {
  RenderedCheck out;
  if (!r.passed && r.counterexample) {
    out.counterexample = r.counterexample->describe(ctx);
  }
  out.result = std::move(r);
  return out;
}

std::size_t BatchResult::count(TaskStatus s) const {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [s](const TaskOutcome& o) { return o.status == s; }));
}

bool BatchResult::all_as_expected() const {
  return std::all_of(outcomes.begin(), outcomes.end(),
                     [](const TaskOutcome& o) { return o.as_expected(); });
}

std::size_t BatchResult::total_states() const {
  std::size_t n = 0;
  for (const TaskOutcome& o : outcomes) n += o.stats.impl_states + o.stats.spec_states;
  return n;
}

std::size_t BatchResult::total_transitions() const {
  std::size_t n = 0;
  for (const TaskOutcome& o : outcomes) n += o.stats.impl_transitions;
  return n;
}

double BatchResult::speedup() const {
  if (wall.count() <= 0) return 1.0;
  return static_cast<double>(cpu.count()) / static_cast<double>(wall.count());
}

namespace {

/// Dispatch one task in whichever mode it is populated for. Runs inside the
/// worker's try block; every Context created here is local to this call.
RenderedCheck execute(const CheckTask& task, CancelToken& token) {
  if (task.custom) return task.custom(token);

  if (!task.sources.empty()) {
    Context ctx;
    cspm::Evaluator ev(ctx);
    for (const std::string& src : task.sources) ev.load_source(src);
    const std::size_t index = task.assertion_index.value_or(0);
    if (task.prune) {
      if (const auto t = ev.assertion_terms(index);
          t && predict_vacuous_pass(ctx, t->spec, t->impl, t->model,
                                    task.max_states)) {
        return render(ctx, pruned_pass());
      }
    }
    cspm::AssertionResult ar = ev.check_assertion(index, task.max_states, &token);
    RenderedCheck out = render(ctx, std::move(ar.result));
    if (!out.counterexample.empty()) {
      out.counterexample = ar.description + ": " + out.counterexample;
    }
    return out;
  }

  Context ctx;
  if (!task.impl) throw std::runtime_error("CheckTask '" + task.name + "' has no impl");
  const ProcessRef impl = task.impl(ctx);
  CheckResult r;
  switch (task.kind) {
    case CheckKind::Refinement: {
      if (!task.spec) throw std::runtime_error("CheckTask '" + task.name + "' has no spec");
      const ProcessRef spec = task.spec(ctx);
      if (task.prune &&
          predict_vacuous_pass(ctx, spec, impl, task.model, task.max_states)) {
        return render(ctx, pruned_pass());
      }
      r = check_refinement(ctx, spec, impl, task.model, task.max_states, &token);
      break;
    }
    case CheckKind::DeadlockFree:
      r = check_deadlock_free(ctx, impl, task.max_states, &token);
      break;
    case CheckKind::DivergenceFree:
      r = check_divergence_free(ctx, impl, task.max_states, &token);
      break;
    case CheckKind::Deterministic:
      r = check_deterministic(ctx, impl, task.max_states, &token);
      break;
  }
  return render(ctx, std::move(r));
}

}  // namespace

TaskOutcome run_task(const CheckTask& task, CancelToken& token) {
  TaskOutcome out;
  out.name = task.name;
  out.expected = task.expected;
  const auto start = CancelToken::Clock::now();
  try {
    token.poll_now();  // an already-fired token skips the build entirely
    RenderedCheck rc = execute(task, token);
    out.status = rc.result.passed ? TaskStatus::Passed : TaskStatus::Failed;
    out.stats = rc.result.stats;
    out.cached = rc.result.from_cache;
    out.vacuous = rc.result.vacuous;
    out.pruned = rc.result.pruned;
    out.counterexample = std::move(rc.counterexample);
  } catch (const CheckCancelled& c) {
    out.status = c.reason() == CheckCancelled::Reason::DeadlineExceeded
                     ? TaskStatus::TimedOut
                     : TaskStatus::Cancelled;
    out.error = c.what();
  } catch (const StateLimitExceeded& e) {
    out.status = TaskStatus::StateLimit;
    out.error = e.what();
  } catch (const std::exception& e) {
    out.status = TaskStatus::Error;
    out.error = e.what();
  }
  out.wall = CancelToken::Clock::now() - start;
  return out;
}

VerifyScheduler::VerifyScheduler(SchedulerOptions options) : options_(options) {
  jobs_ = options.jobs != 0 ? options.jobs
                            : std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(jobs_);
  for (unsigned i = 0; i < jobs_; ++i) {
    workers_.emplace_back([this](std::stop_token stop) { worker(stop); });
  }
}

VerifyScheduler::~VerifyScheduler() {
  // jthread destructors request_stop() and join; the stop-token-aware
  // cv_.wait in worker() wakes parked workers so destruction never hangs.
}

void VerifyScheduler::worker(std::stop_token stop) {
  while (true) {
    Job job;
    {
      std::unique_lock lk(mu_);
      if (!cv_.wait(lk, stop, [this] { return !queue_.empty(); })) return;
      job = queue_.front();
      queue_.pop_front();
    }
    const auto timeout =
        job.task->timeout ? job.task->timeout : options_.default_timeout;
    if (timeout) job.token->set_timeout(*timeout);
    if (job.owned) {
      TaskOutcome outcome = run_task(*job.task, *job.token);
      // Count down before the callback: a caller draining on pending()==0
      // may then tear down state the callback no longer touches — the
      // callback itself must only use what it captured.
      {
        std::lock_guard lk(mu_);
        --async_outstanding_;
      }
      cv_done_.notify_all();
      job.owned->done(std::move(outcome));
      continue;
    }
    *job.outcome = run_task(*job.task, *job.token);
    {
      std::lock_guard lk(mu_);
      --outstanding_;
    }
    cv_done_.notify_all();
  }
}

void VerifyScheduler::submit(CheckTask task, CancelToken* token,
                             std::function<void(TaskOutcome)> done) {
  auto owned = std::make_shared<AsyncJob>();
  owned->task = std::move(task);
  owned->token = token;
  owned->done = std::move(done);
  {
    std::lock_guard lk(mu_);
    Job job;
    job.task = &owned->task;
    job.token = owned->token;
    job.owned = std::move(owned);
    queue_.push_back(std::move(job));
    ++async_outstanding_;
  }
  cv_.notify_one();
}

std::size_t VerifyScheduler::pending() const {
  std::lock_guard lk(mu_);
  return outstanding_ + async_outstanding_;
}

BatchResult VerifyScheduler::run(const std::vector<CheckTask>& tasks) {
  std::lock_guard run_lock(run_mu_);

  BatchResult batch;
  batch.outcomes.resize(tasks.size());
  std::vector<CancelToken> tokens(tasks.size());

  const auto start = CancelToken::Clock::now();
  {
    std::lock_guard lk(mu_);
    batch_tokens_ = &tokens;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      queue_.push_back(Job{&tasks[i], &batch.outcomes[i], &tokens[i], nullptr});
    }
    outstanding_ = tasks.size();
  }
  cv_.notify_all();
  {
    std::unique_lock lk(mu_);
    cv_done_.wait(lk, [this] { return outstanding_ == 0; });
    batch_tokens_ = nullptr;
  }
  batch.wall = CancelToken::Clock::now() - start;
  for (const TaskOutcome& o : batch.outcomes) batch.cpu += o.wall;
  return batch;
}

void VerifyScheduler::cancel_all() {
  std::lock_guard lk(mu_);
  if (!batch_tokens_) return;
  for (CancelToken& t : *batch_tokens_) t.request_cancel();
}

std::vector<bool> run_bool_batch(
    VerifyScheduler& sched,
    const std::vector<std::function<bool(CancelToken&)>>& queries,
    std::string_view label) {
  std::vector<CheckTask> tasks(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    tasks[i].name = std::string(label) + "-" + std::to_string(i);
    tasks[i].custom = [&queries, i](CancelToken& token) -> RenderedCheck {
      RenderedCheck out;
      out.result.passed = queries[i](token);
      return out;
    };
  }
  const BatchResult batch = sched.run(tasks);
  std::vector<bool> out(queries.size());
  for (std::size_t i = 0; i < batch.outcomes.size(); ++i) {
    const TaskOutcome& o = batch.outcomes[i];
    if (o.status != TaskStatus::Passed && o.status != TaskStatus::Failed) {
      throw std::runtime_error(
          "bool batch query '" + o.name + "' did not complete (" +
          std::string(to_string(o.status)) +
          (o.error.empty() ? ")" : "): " + o.error));
    }
    out[i] = o.passed();
  }
  return out;
}

}  // namespace ecucsp::verify
