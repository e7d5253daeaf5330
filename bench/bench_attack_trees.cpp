// Attack-tree semantics (added experiment S4, paper Section IV-E).
//
// Measures (a) computing the SP-graph action-sequence semantics directly,
// (b) translating the tree to CSP and compiling its LTS, and (c) the
// equivalence check between the two — on trees of growing size, including
// an automotive-flavoured OTA attack tree.
#include <benchmark/benchmark.h>

#include "refine/check.hpp"
#include "security/attack_tree.hpp"

using namespace ecucsp;
using security::AttackTree;

namespace {

/// A balanced tree: depth d alternating OR / SEQ / AND layers.
AttackTree balanced(int depth, int& leaf_id) {
  if (depth == 0) {
    return AttackTree::leaf("act" + std::to_string(leaf_id++));
  }
  std::vector<AttackTree> kids;
  kids.push_back(balanced(depth - 1, leaf_id));
  kids.push_back(balanced(depth - 1, leaf_id));
  switch (depth % 3) {
    case 0: return AttackTree::or_any(std::move(kids));
    case 1: return AttackTree::seq(std::move(kids));
    default: return AttackTree::and_all(std::move(kids));
  }
}

/// The OTA-flavoured example: compromise the update channel.
AttackTree ota_attack_tree() {
  using AT = AttackTree;
  return AT::seq(
      {AT::leaf("recon_network"),
       AT::or_any({AT::seq({AT::leaf("spoof_vmg"), AT::leaf("forge_reqApp")}),
                   AT::seq({AT::leaf("steal_key"), AT::leaf("mac_reqApp")}),
                   AT::leaf("physical_access")}),
       AT::and_all({AT::leaf("suppress_rptUpd"), AT::leaf("hide_logs")}),
       AT::leaf("persist")});
}

void SemanticsDirect(benchmark::State& state) {
  int leaf = 0;
  const AttackTree tree = balanced(static_cast<int>(state.range(0)), leaf);
  std::size_t seqs = 0;
  for (auto _ : state) {
    seqs = tree.sequences().size();
    benchmark::DoNotOptimize(seqs);
  }
  state.counters["nodes"] = static_cast<double>(tree.size());
  state.counters["sequences"] = static_cast<double>(seqs);
}
BENCHMARK(SemanticsDirect)->DenseRange(1, 4);

void CspTranslationAndCompile(benchmark::State& state) {
  int leaf = 0;
  const AttackTree tree = balanced(static_cast<int>(state.range(0)), leaf);
  std::size_t states = 0;
  for (auto _ : state) {
    Context ctx;
    const CompactLts lts = compile_lts(ctx, tree.to_csp(ctx));
    states = lts.state_count();
  }
  state.counters["lts_states"] = static_cast<double>(states);
}
BENCHMARK(CspTranslationAndCompile)->DenseRange(1, 4);

void EquivalenceCheck(benchmark::State& state) {
  // The Section IV-E theorem, checked: completed CSP traces == semantics.
  int leaf = 0;
  const AttackTree tree = balanced(static_cast<int>(state.range(0)), leaf);
  bool equal = false;
  for (auto _ : state) {
    Context ctx;
    const ProcessRef p = tree.to_csp(ctx);
    std::set<std::vector<std::string>> completed;
    for (const auto& tr : enumerate_traces(ctx, p, 24)) {
      if (tr.empty() || tr.back() != TICK) continue;
      std::vector<std::string> names;
      for (std::size_t k = 0; k + 1 < tr.size(); ++k) {
        names.push_back(
            ctx.event_fields(tr[k]).at(0).to_string(ctx.symbols()));
      }
      completed.insert(std::move(names));
    }
    equal = completed == tree.sequences();
    if (!equal) state.SkipWithError("semantics mismatch");
  }
  state.SetLabel(equal ? "equivalent" : "MISMATCH");
}
BENCHMARK(EquivalenceCheck)->DenseRange(1, 3);

void OtaAttackTree(benchmark::State& state) {
  const AttackTree tree = ota_attack_tree();
  std::size_t seqs = 0;
  for (auto _ : state) {
    Context ctx;
    const ProcessRef p = tree.to_csp(ctx);
    const CompactLts lts = compile_lts(ctx, p);
    seqs = tree.sequences().size();
    benchmark::DoNotOptimize(lts);
  }
  state.counters["attack_sequences"] = static_cast<double>(seqs);
  state.counters["tree_nodes"] = static_cast<double>(tree.size());
}
BENCHMARK(OtaAttackTree);

}  // namespace

BENCHMARK_MAIN();
