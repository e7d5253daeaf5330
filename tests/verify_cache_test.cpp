// Incremental verification: the cache under the batch scheduler and under
// the extract→evaluate→check pipeline.
//
// These are the subsystem's acceptance properties in test form:
//   * a warm rerun of the unchanged OTA requirement x attacker matrix hits
//     every cell and recompiles zero LTSes, at any worker count;
//   * cached verdicts are byte-identical to the uncached sequential
//     reference (fingerprint equality, counterexamples included);
//   * the disk tier carries hits across a simulated process restart;
//   * editing one CAPL handler invalidates exactly the cells whose terms
//     unfold through the edited node — the untouched node's checks still
//     hit (the paper's edit-one-ECU, recheck-the-matrix loop made cheap).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "capl/parser.hpp"
#include "cspm/eval.hpp"
#include "refine/check.hpp"
#include "store/cache.hpp"
#include "translate/extractor.hpp"
#include "verify/ota_batch.hpp"
#include "verify/scheduler.hpp"

namespace ecucsp::verify {
namespace {

std::vector<CheckTask> full_suite() {
  std::vector<CheckTask> tasks = ota_requirement_matrix();
  for (CheckTask& t : ota_extended_batch()) tasks.push_back(std::move(t));
  return tasks;
}

/// Everything that must be cache-invariant: verdict, counterexample text,
/// and the semantic LTS sizes. Timing and the cached flag are excluded by
/// design; so is product_states, which on a failing check records how far
/// the BFS got before the violation — a function of transition *order*,
/// which is allowed to differ between a fresh compile and an equivalent
/// cached artifact (commutative choice operands are canonicalised by
/// digest, not by layout).
std::vector<std::string> fingerprint(const BatchResult& batch) {
  std::vector<std::string> out;
  out.reserve(batch.outcomes.size());
  for (const TaskOutcome& o : batch.outcomes) {
    out.push_back(o.name + "|" + std::string(to_string(o.status)) + "|" +
                  o.counterexample + "|" +
                  std::to_string(o.stats.impl_states) + "|" +
                  std::to_string(o.stats.impl_transitions));
  }
  return out;
}

std::size_t cached_count(const BatchResult& batch) {
  std::size_t n = 0;
  for (const TaskOutcome& o : batch.outcomes) n += o.cached ? 1 : 0;
  return n;
}

TEST(VerifyCache, WarmMatrixHitsEveryCellAtAnyJobCount) {
  const std::vector<CheckTask> suite = full_suite();

  // Uncached sequential reference.
  const BatchResult reference = VerifyScheduler({.jobs = 1}).run(suite);
  ASSERT_TRUE(reference.all_as_expected());
  EXPECT_EQ(cached_count(reference), 0u);

  store::VerificationCache cache;  // memory tier only
  ScopedCheckCache installed(&cache);

  const BatchResult cold = VerifyScheduler({.jobs = 4}).run(suite);
  EXPECT_EQ(fingerprint(cold), fingerprint(reference));
  EXPECT_EQ(cached_count(cold), 0u);  // nothing served from an empty cache

  for (const unsigned jobs : {1u, 4u}) {
    const BatchResult warm = VerifyScheduler({.jobs = jobs}).run(suite);
    EXPECT_EQ(fingerprint(warm), fingerprint(reference)) << "jobs=" << jobs;
    EXPECT_EQ(cached_count(warm), suite.size()) << "jobs=" << jobs;
  }

  // Zero LTS recompilations while warm: every lookup during the warm runs
  // was answered, so the miss and store counters did not move after the
  // cold run.
  const auto verdict_misses = cache.stats().verdict_misses.load();
  const auto lts_misses = cache.stats().lts_misses.load();
  const auto stores = cache.stats().stores.load();
  VerifyScheduler({.jobs = 4}).run(suite);
  EXPECT_EQ(cache.stats().verdict_misses.load(), verdict_misses);
  EXPECT_EQ(cache.stats().lts_misses.load(), lts_misses);
  EXPECT_EQ(cache.stats().stores.load(), stores);
}

TEST(VerifyCache, DiskTierCarriesHitsAcrossRestart) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ecucsp_verify_cache_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  const std::vector<CheckTask> suite = full_suite();
  const std::vector<std::string> reference =
      fingerprint(VerifyScheduler({.jobs = 4}).run(suite));  // uncached
  {
    store::VerificationCache cache(dir);
    ScopedCheckCache installed(&cache);
    EXPECT_EQ(fingerprint(VerifyScheduler({.jobs = 4}).run(suite)), reference);
  }
  {
    // "Restarted process": a brand-new cache over the same directory.
    store::VerificationCache cache(dir);
    ScopedCheckCache installed(&cache);
    const BatchResult warm = VerifyScheduler({.jobs = 4}).run(suite);
    EXPECT_EQ(fingerprint(warm), reference);
    EXPECT_EQ(cached_count(warm), suite.size());
    EXPECT_EQ(cache.stats().verdict_misses.load(), 0u);
    EXPECT_EQ(cache.stats().lts_misses.load(), 0u);
    EXPECT_EQ(cache.stats().stores.load(), 0u);  // nothing recomputed
    EXPECT_GE(cache.stats().disk_hits.load(), suite.size());
  }
  std::filesystem::remove_all(dir);
}

// --- CAPL edit -> selective invalidation -------------------------------------

constexpr const char* kVmgSource = R"(
variables {
  message 0x100 reqSw;
  message 0x103 reqApp;
}
on start { output(reqSw); }
on message 0x101 { output(reqApp); }
on message 0x104 { }
)";

constexpr const char* kEcuSource = R"(
variables {
  message 0x101 rptSw;
  message 0x104 rptUpd;
}
on message 0x100 { output(rptSw); }
on message 0x103 { output(rptUpd); }
)";

// The same ECU with one handler body edited (the update-apply handler now
// reports twice). Same messages, same channels — only the 0x103 handler's
// behaviour changed.
constexpr const char* kEcuSourceEdited = R"(
variables {
  message 0x101 rptSw;
  message 0x104 rptUpd;
}
on message 0x100 { output(rptSw); }
on message 0x103 { output(rptUpd); output(rptUpd); }
)";

/// Extract the two-node system and return the generated CSPm script.
std::string extract(const char* vmg_src, const char* ecu_src) {
  const capl::CaplProgram vmg = capl::parse_capl(vmg_src);
  const capl::CaplProgram ecu = capl::parse_capl(ecu_src);
  std::vector<translate::SystemNode> nodes(2);
  nodes[0].program = &vmg;
  nodes[0].options.node_name = "VMG";
  nodes[0].options.tx_channel = "send";
  nodes[0].options.rx_channel = "rec";
  nodes[1].program = &ecu;
  nodes[1].options.node_name = "ECU";
  nodes[1].options.tx_channel = "rec";
  nodes[1].options.rx_channel = "send";
  return translate::extract_system(nodes).cspm;
}

/// Run deadlock-freedom on both node processes of `script` under the
/// installed cache; returns {VMG served from cache, ECU served from cache}.
std::pair<bool, bool> check_nodes(const std::string& script) {
  Context ctx;
  cspm::Evaluator ev(ctx);
  ev.load_source(script);
  const CheckResult vmg = check_deadlock_free(ctx, ev.process("VMG"), 1 << 18);
  const CheckResult ecu = check_deadlock_free(ctx, ev.process("ECU"), 1 << 18);
  return {vmg.from_cache, ecu.from_cache};
}

TEST(VerifyCache, EditedCaplHandlerInvalidatesOnlyItsOwnCells) {
  store::VerificationCache cache;
  ScopedCheckCache installed(&cache);

  // Cold: both nodes computed.
  const auto cold = check_nodes(extract(kVmgSource, kEcuSource));
  EXPECT_FALSE(cold.first);
  EXPECT_FALSE(cold.second);

  // Unchanged rerun (fresh Context, fresh Evaluator): both cached.
  const auto warm = check_nodes(extract(kVmgSource, kEcuSource));
  EXPECT_TRUE(warm.first);
  EXPECT_TRUE(warm.second);

  // Edit one ECU handler: the ECU cell recomputes, the VMG cell still hits.
  const auto edited = check_nodes(extract(kVmgSource, kEcuSourceEdited));
  EXPECT_TRUE(edited.first) << "untouched node lost its cache hit";
  EXPECT_FALSE(edited.second) << "edited node served a stale verdict";

  // And the edited model is itself cached now.
  const auto warm2 = check_nodes(extract(kVmgSource, kEcuSourceEdited));
  EXPECT_TRUE(warm2.first);
  EXPECT_TRUE(warm2.second);
}

TEST(VerifyCache, ExtractionFingerprintTracksTheEdit) {
  // The translate-layer identity the store correlates with: unchanged
  // sources reproduce the fingerprint, an edited handler changes it.
  const capl::CaplProgram ecu = capl::parse_capl(kEcuSource);
  const capl::CaplProgram ecu_again = capl::parse_capl(kEcuSource);
  const capl::CaplProgram edited = capl::parse_capl(kEcuSourceEdited);
  translate::ExtractorOptions opt;
  opt.node_name = "ECU";
  const std::string f1 = translate::extract_model(ecu, opt).fingerprint;
  const std::string f2 = translate::extract_model(ecu_again, opt).fingerprint;
  const std::string f3 = translate::extract_model(edited, opt).fingerprint;
  EXPECT_EQ(f1.size(), 32u);
  EXPECT_EQ(f1, f2);
  EXPECT_NE(f1, f3);
}

}  // namespace
}  // namespace ecucsp::verify
