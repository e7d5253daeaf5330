// --prune=static: the verify layer's static certification of vacuous-PASS
// cells (src/verify/prune.hpp). The contract under test is soundness by
// cross-validation: every cell the pruner certifies must, when actually run,
// produce the identical verdict and vacuity flag — and cells it cannot
// certify (every FAIL, every meaningful PASS) must run untouched.
#include <gtest/gtest.h>

#include "cspm/eval.hpp"
#include "ota/ota.hpp"
#include "security/properties.hpp"
#include "verify/ota_batch.hpp"
#include "verify/prune.hpp"
#include "verify/scheduler.hpp"

using namespace ecucsp;
using namespace ecucsp::verify;

namespace {

/// A divergent process with empty visible alphabet: (c -> X) \ {c}. The
/// canonical shape an alphabet-mismatched extraction degenerates to under
/// projection.
ProcessRef silent_loop(Context& ctx, EventId c) {
  ctx.define("_SILENT_", [c](Context& cx, std::span<const Value>) {
    return cx.prefix(c, cx.var("_SILENT_"));
  });
  return ctx.hide(ctx.var("_SILENT_"), EventSet{c});
}

}  // namespace

// --- predict_vacuous_pass unit behaviour -------------------------------------

TEST(PrunePredict, CertifiesSilentImplAgainstResponseSpec) {
  Context ctx;
  const EventId req = ctx.event(ctx.channel("req"));
  const EventId resp = ctx.event(ctx.channel("resp"));
  const EventId c = ctx.event(ctx.channel("c"));
  const ProcessRef spec = security::response_spec(ctx, req, resp);
  const ProcessRef impl = silent_loop(ctx, c);

  ASSERT_TRUE(predict_vacuous_pass(ctx, spec, impl, Model::Traces, 1u << 20));

  // Cross-validate: the dynamic sweep agrees bit for bit.
  const CheckResult dynamic =
      check_refinement(ctx, spec, impl, Model::Traces, 1u << 20);
  EXPECT_TRUE(dynamic.passed);
  EXPECT_TRUE(dynamic.vacuous);
  const CheckResult statically = pruned_pass();
  EXPECT_EQ(statically.passed, dynamic.passed);
  EXPECT_EQ(statically.vacuous, dynamic.vacuous);
  EXPECT_TRUE(statically.pruned);
  EXPECT_FALSE(dynamic.pruned);  // the engine itself never sets it
}

TEST(PrunePredict, AbstainsOutsideTheTracesModel) {
  // A silent divergent impl *fails* failures/FD refinement of the response
  // spec, so pruning there would flip a verdict; the predictor must refuse.
  Context ctx;
  const EventId req = ctx.event(ctx.channel("req"));
  const EventId resp = ctx.event(ctx.channel("resp"));
  const EventId c = ctx.event(ctx.channel("c"));
  const ProcessRef spec = security::response_spec(ctx, req, resp);
  const ProcessRef impl = silent_loop(ctx, c);
  EXPECT_FALSE(
      predict_vacuous_pass(ctx, spec, impl, Model::Failures, 1u << 20));
  EXPECT_FALSE(predict_vacuous_pass(ctx, spec, impl,
                                    Model::FailuresDivergences, 1u << 20));
}

TEST(PrunePredict, AbstainsWhenImplReachesAConstrainedEvent) {
  // The impl genuinely exercises the spec: the cell must run for real.
  Context ctx;
  const EventId req = ctx.event(ctx.channel("req"));
  const EventId resp = ctx.event(ctx.channel("resp"));
  const ProcessRef spec = security::response_spec(ctx, req, resp);
  const ProcessRef impl = ctx.prefix(req, ctx.prefix(resp, ctx.stop()));
  EXPECT_FALSE(predict_vacuous_pass(ctx, spec, impl, Model::Traces, 1u << 20));
}

TEST(PrunePredict, AbstainsOnFailingCells) {
  // reach = {b} is disjoint from constrained = {a}, but b is not allowed in
  // every spec state (allowed_inter is empty) — and indeed the check FAILS.
  // The subset-of-allowed_inter condition is what keeps this cell unpruned.
  Context ctx;
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  const ProcessRef spec = ctx.prefix(a, ctx.stop());
  const ProcessRef impl = ctx.prefix(b, ctx.stop());
  EXPECT_FALSE(predict_vacuous_pass(ctx, spec, impl, Model::Traces, 1u << 20));
  EXPECT_FALSE(check_refinement(ctx, spec, impl, Model::Traces).passed);
}

TEST(PrunePredict, AbstainsWhenSpecConstrainsNothing) {
  // RUN(Sigma) has a single normal state: constrained = {} and the dynamic
  // sweep would not flag vacuity, so the predictor must not either.
  Context ctx;
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId c = ctx.event(ctx.channel("c"));
  const ProcessRef spec = ctx.run(EventSet{a, c});
  const ProcessRef impl = silent_loop(ctx, c);
  EXPECT_FALSE(predict_vacuous_pass(ctx, spec, impl, Model::Traces, 1u << 20));
}

// --- task-level integration --------------------------------------------------

TEST(PruneTask, CspmModeTaskReportsPrunedOutcome) {
  const std::string script =
      "channel req, resp, c\n"
      "SPEC = req -> resp -> SPEC\n"
      "IMPL = (c -> STOP) \\ {| c |}\n"
      "assert SPEC [T= IMPL\n";
  CheckTask t;
  t.name = "cspm pruned";
  t.sources = {script};
  t.assertion_index = 0;
  t.prune = true;
  CancelToken token;
  const TaskOutcome out = run_task(t, token);
  EXPECT_EQ(out.status, TaskStatus::Passed);
  EXPECT_TRUE(out.pruned);
  EXPECT_TRUE(out.vacuous);

  t.prune = false;
  const TaskOutcome ran = run_task(t, token);
  EXPECT_EQ(ran.status, TaskStatus::Passed);
  EXPECT_TRUE(ran.vacuous);
  EXPECT_FALSE(ran.pruned);
}

TEST(PruneTask, CertifiesWhereExplorationExhaustsItsBudget) {
  // Recursion *through* a hide stacks a fresh \H wrapper on every unfolding
  // — the compiled state space is infinite even though traces(IMPL) = {<>}.
  // Term-level reachability works on the (finite, hash-consed) term DAG, so
  // the pruner proves the vacuous PASS that exploration cannot: the one
  // place --prune=static is stronger than running the check, rather than
  // merely faster.
  const std::string script =
      "channel req, resp, c\n"
      "SPEC = req -> resp -> SPEC\n"
      "IMPL = (c -> IMPL) \\ {| c |}\n"
      "assert SPEC [T= IMPL\n";
  CheckTask t;
  t.name = "cspm infinite unfolding";
  t.sources = {script};
  t.assertion_index = 0;
  t.max_states = 4096;  // keep the doomed exploration quick
  t.prune = false;
  CancelToken token;
  EXPECT_EQ(run_task(t, token).status, TaskStatus::StateLimit);

  t.prune = true;
  const TaskOutcome out = run_task(t, token);
  EXPECT_EQ(out.status, TaskStatus::Passed);
  EXPECT_TRUE(out.pruned);
  EXPECT_TRUE(out.vacuous);
}

TEST(PruneTask, AssertionTermsExposeRefinementsOnly) {
  Context ctx;
  cspm::Evaluator ev(ctx);
  ev.load_source(
      "channel a\n"
      "P = a -> STOP\n"
      "assert P [T= P\n"
      "assert P :[deadlock free]\n");
  const auto refines = ev.assertion_terms(0);
  ASSERT_TRUE(refines.has_value());
  EXPECT_EQ(refines->model, Model::Traces);
  EXPECT_NE(refines->spec, nullptr);
  EXPECT_NE(refines->impl, nullptr);
  EXPECT_FALSE(ev.assertion_terms(1).has_value());
}

// --- matrix-level cross-validation -------------------------------------------

namespace {

/// Run the full OTA matrix twice — pruned and unpruned — and require
/// identical verdicts and vacuity flags in every cell. Returns the number
/// of cells the pruned run certified statically.
std::size_t cross_validate_matrix(OtaMatrixOptions opts) {
  OtaMatrixOptions unpruned = opts;
  unpruned.prune = false;
  OtaMatrixOptions pruned = opts;
  pruned.prune = true;

  VerifyScheduler sched({.jobs = 2});
  const BatchResult base = sched.run(ota_requirement_matrix(unpruned));
  const BatchResult fast = sched.run(ota_requirement_matrix(pruned));
  EXPECT_EQ(base.outcomes.size(), fast.outcomes.size());

  std::size_t pruned_cells = 0;
  for (std::size_t i = 0; i < base.outcomes.size(); ++i) {
    const TaskOutcome& b = base.outcomes[i];
    const TaskOutcome& f = fast.outcomes[i];
    EXPECT_EQ(b.name, f.name);
    EXPECT_EQ(b.status, f.status) << b.name;
    EXPECT_EQ(b.vacuous, f.vacuous) << b.name;
    EXPECT_FALSE(b.pruned) << b.name;
    if (f.pruned) {
      ++pruned_cells;
      EXPECT_EQ(f.status, TaskStatus::Passed) << b.name;
      EXPECT_TRUE(f.vacuous) << b.name;
    }
  }
  return pruned_cells;
}

}  // namespace

TEST(PruneMatrix, RealMatrixHasNothingToPrune) {
  // Every cell of the genuine OTA matrix is meaningful (its system reaches
  // constrained events), so --prune=static must leave all 15 untouched.
  EXPECT_EQ(cross_validate_matrix({}), 0u);
}

TEST(PruneMatrix, MismatchedMatrixPrunesAllVacuousCells) {
  // Under the alphabet-mismatch fault injection R02..R05 pass vacuously in
  // all three attacker variants; the pruner must certify every one of those
  // 12 cells — with verdicts identical to the dynamic runs — and must leave
  // the three genuinely failing R01 cells alone.
  OtaMatrixOptions opts;
  opts.inject_alphabet_mismatch = true;
  EXPECT_EQ(cross_validate_matrix(opts), 12u);
}
