#include <gtest/gtest.h>

#include "capl/interp.hpp"
#include "capl/parser.hpp"
#include "conform/harness.hpp"
#include "conform/oracle.hpp"
#include "cspm/eval.hpp"
#include "ota/ota.hpp"
#include "security/properties.hpp"
#include "translate/extractor.hpp"

namespace ecucsp::ota {
namespace {

TEST(OtaTables, MessageTableMatchesPaperTable2) {
  const auto& rows = message_table();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].id, "reqSw");
  EXPECT_EQ(rows[0].from, "VMG");
  EXPECT_EQ(rows[1].id, "rptSw");
  EXPECT_EQ(rows[1].from, "ECU");
  EXPECT_EQ(rows[2].id, "reqApp");
  EXPECT_EQ(rows[3].id, "rptUpd");
}

TEST(OtaTables, RequirementsMatchPaperTable3) {
  const auto& rows = requirements();
  ASSERT_EQ(rows.size(), 5u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].id, "R0" + std::to_string(i + 1));
  }
  EXPECT_NE(rows[4].text.find("shared keys"), std::string::npos);
}

class OtaModelTest : public ::testing::Test {
 protected:
  OtaModelTest() : model(build_ota_model()) {}
  std::unique_ptr<OtaModel> model;
};

TEST_F(OtaModelTest, AllRequirementsHoldOnTheSecuredSystem) {
  for (const Requirement& r : requirements()) {
    const CheckResult result = check_requirement(*model, r.id);
    EXPECT_TRUE(result.passed)
        << r.id << ": "
        << (result.counterexample
                ? result.counterexample->describe(model->ctx)
                : std::string());
  }
}

TEST_F(OtaModelTest, UnknownRequirementThrows) {
  EXPECT_THROW(check_requirement(*model, "R99"), std::out_of_range);
}

TEST_F(OtaModelTest, PlainSystemFollowsTheUpdateCycle) {
  // The paper's SP02-style view: the composed system's first two genuine
  // events are reqSw then rptSw.
  Context& ctx = model->ctx;
  const auto traces = enumerate_traces(ctx, model->system_plain, 2);
  for (const auto& t : traces) {
    if (t.size() >= 1) {
      EXPECT_EQ(t[0], model->send_reqSw);
    }
    if (t.size() >= 2) {
      EXPECT_EQ(t[1], model->rec_rptSw);
    }
  }
}

TEST_F(OtaModelTest, PlainSystemIsDeadlockAndDivergenceFree) {
  EXPECT_TRUE(check_deadlock_free(model->ctx, model->system_plain).passed);
  EXPECT_TRUE(check_divergence_free(model->ctx, model->system_plain).passed);
}

TEST_F(OtaModelTest, MacProtectedSystemSurvivesTheAttacker) {
  const CheckResult r = security::check_precedence_witness(
      model->ctx, model->system_attacked, model->send_reqApp, model->install);
  EXPECT_TRUE(r.passed);
}

TEST_F(OtaModelTest, UnprotectedSystemIsVulnerable) {
  const CheckResult r = security::check_precedence_witness(
      model->ctx, model->system_unprotected, model->send_reqApp,
      model->install);
  ASSERT_FALSE(r.passed);
  // The canonical attack: forge the update request, ECU installs it.
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_EQ(r.counterexample->event, model->install);
  ASSERT_FALSE(r.counterexample->trace.empty());
  EXPECT_EQ(r.counterexample->trace.back(), model->forged_reqApp);
}

TEST_F(OtaModelTest, AttackerCannotForgeValidMacs) {
  // In the attacked MAC system, genuine events still require the VMG:
  // no trace reaches install without send.reqApp.genuine.
  const CheckResult r = security::check_precedence(
      model->ctx, model->system_attacked, model->send_reqApp, model->install);
  EXPECT_TRUE(r.passed);
}

// --- the CAPL reference implementation behaves like the model -------------------

TEST(OtaCapl, SimulationRunsTheFullUpdateDialogue) {
  const can::DbcDatabase db = can::parse_dbc(std::string(ota_dbc_text()));
  const capl::CaplProgram vmg_prog =
      capl::parse_capl(std::string(vmg_capl_source()));
  const capl::CaplProgram ecu_prog =
      capl::parse_capl(std::string(ecu_capl_source()));

  sim::Environment env;
  capl::CaplNode vmg("VMG", vmg_prog, &db);
  capl::CaplNode ecu("TargetECU", ecu_prog, &db);
  env.attach(vmg);
  env.attach(ecu);
  env.run(5'000'000);

  // Frames on the bus: reqSw (0x100), rptSw (0x101), reqApp (0x103),
  // rptUpd (0x104) — possibly with retransmitted requests.
  std::vector<can::CanId> ids;
  for (const can::CanFrame& f : env.bus().trace()) ids.push_back(f.id);
  ASSERT_GE(ids.size(), 4u);
  EXPECT_EQ(ids[0], 0x100u);
  EXPECT_NE(std::find(ids.begin(), ids.end(), 0x101u), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), 0x103u), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), 0x104u), ids.end());
  EXPECT_EQ(ecu.global("installs")->i, 1);
}

TEST(OtaCapl, EcuRejectsBadMacInSimulation) {
  const can::DbcDatabase db = can::parse_dbc(std::string(ota_dbc_text()));
  const capl::CaplProgram ecu_prog =
      capl::parse_capl(std::string(ecu_capl_source()));

  sim::Environment env;
  capl::CaplNode ecu("TargetECU", ecu_prog, &db);
  env.attach(ecu);

  // Inject a forged update request with a wrong MAC tag from outside.
  can::CanFrame forged;
  forged.id = 0x103;
  forged.set_byte(0, 1);
  forged.set_byte(7, 0x00);  // wrong tag
  env.bus().transmit(forged, -1);
  env.scheduler().schedule_in(0, [&] { env.bus().deliver_one(0); });
  env.run(1'000'000);

  EXPECT_EQ(ecu.global("installs")->i, 0);
  EXPECT_TRUE(env.bus().trace().size() == 1);  // no rptUpd reply
}

TEST(OtaCapl, ExtractedModelsRefineTheHandWrittenSpec) {
  // Close the loop: translate the reference CAPL programs and check the
  // composed model against an SP02-style property (Fig. 1 end to end).
  const can::DbcDatabase db = can::parse_dbc(std::string(ota_dbc_text()));
  const capl::CaplProgram vmg_prog =
      capl::parse_capl(std::string(vmg_capl_source()));
  const capl::CaplProgram ecu_prog =
      capl::parse_capl(std::string(ecu_capl_source()));

  translate::ExtractorOptions vmg_opt;
  vmg_opt.node_name = "VMG";
  vmg_opt.tx_channel = "send";
  vmg_opt.rx_channel = "rec";
  vmg_opt.db = &db;
  translate::ExtractorOptions ecu_opt;
  ecu_opt.node_name = "ECU";
  ecu_opt.tx_channel = "rec";
  ecu_opt.rx_channel = "send";
  ecu_opt.db = &db;

  const translate::ExtractionResult sys = translate::extract_system(
      {{&vmg_prog, vmg_opt}, {&ecu_prog, ecu_opt}},
      {"-- The paper's SP02 (Section V-B): every software inventory request",
       "-- is answered by a software report, in strict alternation.",
       "SP02 = send.SwInventoryReq -> rec.SwReport -> SP02",
       "kept = {send.SwInventoryReq, rec.SwReport}",
       "hidden = diff({| send, rec, setTimer, cancelTimer, timeout |}, kept)",
       "assert SP02 [T= SYSTEM \\ hidden"});
  Context ctx;
  cspm::Evaluator ev(ctx);
  ev.load_source(sys.cspm);
  const auto results = ev.check_assertions();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].result.passed)
      << (results[0].result.counterexample
              ? results[0].result.counterexample->describe(ctx)
              : "")
      << "\n"
      << sys.cspm;
}


// --- extended scope: the Update Server (paper Section VIII-A) -------------------

class OtaExtendedTest : public ::testing::Test {
 protected:
  OtaExtendedTest() : model(build_ota_extended_model()) {}
  std::unique_ptr<OtaExtendedModel> model;
};

TEST_F(OtaExtendedTest, EndToEndPropertiesHold) {
  for (const char* id : {"E1", "E2", "E3", "E4"}) {
    const CheckResult r = check_extended_property(*model, id);
    EXPECT_TRUE(r.passed)
        << id << ": "
        << (r.counterexample ? r.counterexample->describe(model->ctx)
                             : std::string());
  }
}

TEST_F(OtaExtendedTest, DroppingMacBreaksServerAuthorisation) {
  const CheckResult r = check_extended_property(*model, "E5");
  ASSERT_FALSE(r.passed);
  // The forged CAN frame bypasses the whole server dialogue.
  EXPECT_EQ(r.counterexample->event, model->install);
  ASSERT_FALSE(r.counterexample->trace.empty());
  EXPECT_EQ(r.counterexample->trace.back(), model->forged_reqApp);
}

TEST_F(OtaExtendedTest, ServerDialogueFollowsX1373Order) {
  // First four genuine events of the full chain, in order.
  const auto traces = enumerate_traces(model->ctx, model->system, 4);
  for (const auto& t : traces) {
    if (t.size() >= 1) {
      EXPECT_EQ(t[0], model->down_diagnose);
    }
    if (t.size() >= 2) {
      EXPECT_EQ(t[1], model->send_reqSw);
    }
    if (t.size() >= 3) {
      EXPECT_EQ(t[2], model->rec_rptSw);
    }
    if (t.size() >= 4) {
      EXPECT_EQ(t[3], model->up_update_check);
    }
  }
}

TEST_F(OtaExtendedTest, UnknownPropertyThrows) {
  EXPECT_THROW(check_extended_property(*model, "E9"), std::out_of_range);
}

TEST_F(OtaExtendedTest, ExtendedSystemIsDivergenceFree) {
  EXPECT_TRUE(check_divergence_free(model->ctx, model->system_attacked).passed);
}


// --- timed scope: tock-CSP (paper Section VII-B) ----------------------------------

class OtaTimedTest : public ::testing::TestWithParam<int> {
 protected:
  OtaTimedTest() : model(build_ota_timed_model()) {}
  std::unique_ptr<OtaTimedModel> model;
};

TEST_F(OtaTimedTest, UrgentEcuAnswersWithinZeroTocks) {
  const CheckResult r = security::check_bounded_response(
      model->ctx, model->system_urgent, model->tock, model->send_reqSw,
      model->rec_rptSw, /*within=*/0);
  EXPECT_TRUE(r.passed)
      << (r.counterexample ? r.counterexample->describe(model->ctx) : "");
}

TEST_F(OtaTimedTest, LazyEcuViolatesZeroTockBound) {
  const CheckResult r = security::check_bounded_response(
      model->ctx, model->system_lazy, model->tock, model->send_reqSw,
      model->rec_rptSw, 0);
  ASSERT_FALSE(r.passed);
  EXPECT_EQ(r.counterexample->event, model->tock);
}

TEST_P(OtaTimedTest, LazyEcuMeetsEveryBoundFromOne) {
  const CheckResult r = security::check_bounded_response(
      model->ctx, model->system_lazy, model->tock, model->send_reqSw,
      model->rec_rptSw, GetParam());
  EXPECT_TRUE(r.passed)
      << "within=" << GetParam() << ": "
      << (r.counterexample ? r.counterexample->describe(model->ctx) : "");
}

INSTANTIATE_TEST_SUITE_P(Bounds, OtaTimedTest, ::testing::Range(1, 5));

TEST_F(OtaTimedTest, TimedSystemsAreDeadlockFree) {
  EXPECT_TRUE(check_deadlock_free(model->ctx, model->system_urgent).passed);
  EXPECT_TRUE(check_deadlock_free(model->ctx, model->system_lazy).passed);
}

TEST_F(OtaTimedTest, TimeCanAlwaysAdvanceEventually) {
  // No timestop: from every reachable state some trace leads to a tock.
  // Approximated by divergence-freedom of the system with everything but
  // tock hidden (an infinite tock-free loop would diverge).
  Context& ctx = model->ctx;
  for (const ProcessRef sys : {model->system_urgent, model->system_lazy}) {
    const ProcessRef only_tock = security::project(ctx, sys, EventSet{model->tock});
    EXPECT_TRUE(check_divergence_free(ctx, only_tock).passed);
  }
}


// --- conformance: execution vs extracted model -----------------------------------
//
// A captured bus trace is abstracted by the OTA frame codec and judged by
// the strict trace oracle of the extracted VMG+ECU system, the same path
// ecucsp_conform's model oracles take.

class OtaConformanceTest : public ::testing::Test {
 protected:
  OtaConformanceTest()
      : db(can::parse_dbc(std::string(ota_dbc_text()))),
        vmg_prog(capl::parse_capl(std::string(vmg_capl_source()))),
        ecu_prog(capl::parse_capl(std::string(ecu_capl_source()))),
        codec(conform::ota_codec(db)) {
    translate::ExtractorOptions vmg_opt;
    vmg_opt.node_name = "VMG";
    vmg_opt.db = &db;
    translate::ExtractorOptions ecu_opt;
    ecu_opt.node_name = "ECU";
    ecu_opt.tx_channel = "rec";
    ecu_opt.rx_channel = "send";
    ecu_opt.db = &db;
    const translate::ExtractionResult sys =
        translate::extract_system({{&vmg_prog, vmg_opt}, {&ecu_prog, ecu_opt}});
    Context ctx;
    cspm::Evaluator ev{ctx};
    ev.load_source(sys.cspm);
    // Everything that is not network traffic (timer bookkeeping, key
    // events, install markers, ...) is hidden: the bus only carries frames.
    oracle = conform::compile_oracle(ctx, "model-system", ev.process("SYSTEM"),
                                     ctx.events_of({"send", "rec"}),
                                     /*strict=*/true);
  }

  can::DbcDatabase db;
  capl::CaplProgram vmg_prog;
  capl::CaplProgram ecu_prog;
  conform::FrameCodec codec;
  conform::TraceOracle oracle;
};

TEST_F(OtaConformanceTest, SimulatedExecutionConformsToExtractedModel) {
  sim::Environment env;
  capl::CaplNode vmg("VMG", vmg_prog, &db);
  capl::CaplNode ecu("TargetECU", ecu_prog, &db);
  env.attach(vmg);
  env.attach(ecu);
  env.run(5'000'000);
  const std::vector<std::string> observed =
      codec.abstract_trace(env.bus().trace());
  const conform::OracleVerdict v = oracle.judge(observed);
  EXPECT_TRUE(v.accepted) << v.reason << " at event " << v.divergence_index
                          << " '" << v.event << "'";
  EXPECT_GE(observed.size(), 4u);
}

TEST_F(OtaConformanceTest, MutatedExecutionIsRejected) {
  // A log where the ECU "answers" before any request violates the model.
  can::CanFrame rpt;
  rpt.id = 0x101;  // SwReport
  const conform::OracleVerdict v = oracle.judge(codec.abstract_trace({rpt}));
  ASSERT_FALSE(v.accepted);
  EXPECT_EQ(v.divergence_index, 0u);
  EXPECT_EQ(v.event, "rec.SwReport");
  EXPECT_EQ(v.reason, "spec offers no such event here");
  // The model's only initial network event is the inventory request.
  EXPECT_EQ(v.offered, std::vector<std::string>{"send.SwInventoryReq"});
}

TEST_F(OtaConformanceTest, UnmappedIdThrows) {
  // An id the CANdb does not name abstracts to a word outside the model's
  // alphabet. The strict oracle refuses it at first sight instead of
  // skipping it, so an unmapped frame can never pass unnoticed.
  can::CanFrame stray;
  stray.id = 0x7FF;
  const std::vector<std::string> observed = codec.abstract_trace({stray});
  EXPECT_EQ(observed, std::vector<std::string>{"rec.Unknown2047"});
  const conform::OracleVerdict v = oracle.judge(observed);
  ASSERT_FALSE(v.accepted);
  EXPECT_EQ(v.divergence_index, 0u);
  EXPECT_EQ(v.reason, "event outside the oracle alphabet");
}

}  // namespace
}  // namespace ecucsp::ota
