#include "conform/requirements.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <string>

#include "can/dbc.hpp"
#include "capl/parser.hpp"
#include "core/context.hpp"
#include "cspm/eval.hpp"
#include "ota/ota.hpp"
#include "translate/extractor.hpp"

namespace ecucsp::conform {

namespace {

// The *security* oracles. The extracted model oracle cannot catch a dropped
// MAC check (the extractor turns 'if' into internal choice, so the
// unprotected ECU still lies inside the over-approximation); R03/R04 over
// forged-injection runs can, which is precisely the paper's argument for
// requirement-level specs.

TraceOracle oracle_r01() {
  const std::vector<std::string> alphabet = {
      "send.SwInventoryReq", "rec.SwReport", "send.UpdApplyReq",
      "rec.UpdReport"};
  DfaBuilder dfa(alphabet);
  dfa.edge("send.SwInventoryReq", 1);
  dfa.end_state();
  for (const std::string& e : alphabet) dfa.edge(e, 1);
  dfa.end_state();
  return {"R01", std::move(dfa).finish(0), {"send.UpdApplyReqBad"}, false};
}

TraceOracle oracle_r02() {
  DfaBuilder dfa({"send.SwInventoryReq", "rec.SwReport"});
  dfa.edge("send.SwInventoryReq", 1);
  dfa.end_state();
  dfa.edge("send.SwInventoryReq", 1);
  dfa.edge("rec.SwReport", 1);
  dfa.end_state();
  return {"R02", std::move(dfa).finish(0), {}, false};
}

TraceOracle oracle_r03() {
  DfaBuilder dfa({"send.UpdApplyReq", "rec.UpdReport"});
  dfa.edge("send.UpdApplyReq", 1);
  dfa.end_state();
  dfa.edge("send.UpdApplyReq", 1);
  dfa.edge("rec.UpdReport", 1);
  dfa.end_state();
  return {"R03", std::move(dfa).finish(0), {}, false};
}

TraceOracle oracle_r04() {
  // Counting oracle: every UpdReport consumes one outstanding genuine
  // UpdApplyReq (saturating at 8 pending — beyond that the oracle stops
  // distinguishing, a documented over-approximation).
  DfaBuilder dfa({"send.UpdApplyReq", "rec.UpdReport"});
  constexpr std::uint32_t kMax = 8;
  for (std::uint32_t k = 0; k <= kMax; ++k) {
    dfa.edge("send.UpdApplyReq", std::min(k + 1, kMax));
    if (k > 0) dfa.edge("rec.UpdReport", k - 1);
    dfa.end_state();
  }
  return {"R04", std::move(dfa).finish(0), {"send.UpdApplyReqBad"}, false};
}

TraceOracle oracle_r05() {
  const std::vector<std::string> alphabet = {
      "send.UpdApplyReq", "send.UpdApplyReqBad", "rec.UpdReport"};
  DfaBuilder dfa(alphabet);
  dfa.edge("send.UpdApplyReqBad", 0);
  dfa.edge("send.UpdApplyReq", 1);
  dfa.end_state();
  for (const std::string& e : alphabet) dfa.edge(e, 1);
  dfa.end_state();
  return {"R05", std::move(dfa).finish(0), {}, false};
}

}  // namespace

TraceOracle requirement_oracle(std::string_view id) {
  std::string key(id);
  for (char& c : key) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  if (key == "R01") return oracle_r01();
  if (key == "R02") return oracle_r02();
  if (key == "R03") return oracle_r03();
  if (key == "R04") return oracle_r04();
  if (key == "R05") return oracle_r05();
  throw std::invalid_argument("unknown requirement oracle '" + std::string(id) +
                              "' (expected R01..R05)");
}

std::vector<TraceOracle> ota_requirement_oracles() {
  return {oracle_r01(), oracle_r02(), oracle_r03(), oracle_r04(),
          oracle_r05()};
}

TraceOracle ota_model_oracle(std::size_t max_states) {
  const can::DbcDatabase db = can::parse_dbc(std::string(ota::ota_dbc_text()));
  const capl::CaplProgram ecu =
      capl::parse_capl(std::string(ota::ecu_capl_source()));
  translate::ExtractorOptions opt;
  opt.node_name = "ECU";
  opt.tx_channel = "rec";  // the ECU transmits on the VMG's rx channel
  opt.rx_channel = "send";
  opt.db = &db;
  Context ctx;
  cspm::Evaluator ev{ctx};
  ev.load_source(translate::extract_model(ecu, opt).cspm);
  TraceOracle oracle =
      compile_oracle(ctx, "model-ecu", ev.process("ECU"),
                     ctx.events_of({"send", "rec"}), /*strict=*/true,
                     max_states);
  oracle.ignored = {"send.UpdApplyReqBad"};
  return oracle;
}

}  // namespace ecucsp::conform
