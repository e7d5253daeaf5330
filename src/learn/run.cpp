#include "learn/run.hpp"

#include <algorithm>
#include <filesystem>
#include <set>
#include <sstream>
#include <utility>

#include "can/dbc.hpp"
#include "capl/parser.hpp"
#include "conform/generate.hpp"
#include "conform/harness.hpp"
#include "conform/requirements.hpp"
#include "core/cancel.hpp"
#include "core/context.hpp"
#include "core/json.hpp"
#include "learn/cache.hpp"
#include "learn/compile.hpp"
#include "learn/equiv.hpp"
#include "learn/oracle.hpp"
#include "ota/ota.hpp"
#include "refine/check.hpp"
#include "store/cache.hpp"
#include "store/object_store.hpp"
#include "verify/scheduler.hpp"

namespace ecucsp::learn {

namespace {

std::vector<std::string> learning_alphabet(
    const conform::FrameCodec& codec,
    const std::vector<conform::TraceOracle>& requirements) {
  // Stimuli the harness can inject, plus responses the requirement oracles
  // observe. Responses come from the oracles (not from the codec's frame
  // map) because "observable" means "some requirement constrains it".
  std::set<std::string> sigma;
  for (const auto& [event, frame] : codec.stimulus_frames) sigma.insert(event);
  for (const conform::TraceOracle& r : requirements) {
    for (const std::string& e : r.automaton.names) {
      if (e.starts_with(codec.rx_channel + ".")) sigma.insert(e);
    }
  }
  return {sigma.begin(), sigma.end()};
}

/// Store-harvested abstract attack traces, bridged into the learning
/// alphabet. Needs the hand-built OTA model's Context: stored verdicts are
/// Context-bound, and scan skips anything whose channels the given Context
/// does not know.
std::vector<Word> harvest_extra_words(const std::string& cache_dir) {
  auto model = ota::build_ota_model();
  const std::map<std::string, std::string> bridge = {
      {"send.reqSw.genuine", "send.SwInventoryReq"},
      {"send.reqApp.genuine", "send.UpdApplyReq"},
      {"send.reqApp.forged", "send.UpdApplyReqBad"},
      {"rec.rptSw.genuine", "rec.SwReport"},
      {"rec.rptUpd.genuine", "rec.UpdReport"},
  };
  const std::set<std::string> drop = {"install"};
  std::vector<Word> out;
  std::set<Word> seen;
  for (const auto& tr :
       store::scan_stored_counterexamples(cache_dir, model->ctx)) {
    auto tc = conform::bridge_counterexample(tr, bridge, drop, "harvested");
    if (!tc) continue;
    if (!seen.insert(tc->events).second) continue;
    out.push_back(tc->events);
  }
  return out;
}

}  // namespace

std::vector<std::string> ota_learning_alphabet() {
  const can::DbcDatabase db = can::parse_dbc(std::string(ota::ota_dbc_text()));
  const conform::FrameCodec codec = conform::ota_codec(db);
  return learning_alphabet(codec, conform::ota_requirement_oracles());
}

LearnReport run_ota_learn(const LearnRunOptions& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  LearnReport rep;
  rep.seed = opt.seed;
  rep.max_rounds = opt.rounds;
  rep.eq_tests = opt.eq_tests;
  rep.max_len = opt.max_len;

  // 1. The target: the simulated ECU, faithful or a seeded mutant.
  const can::DbcDatabase db = can::parse_dbc(std::string(ota::ota_dbc_text()));
  const conform::FrameCodec codec = conform::ota_codec(db);
  capl::CaplProgram ecu = capl::parse_capl(std::string(ota::ecu_capl_source()));
  // The learned-model cache key needs the post-mutation program identity;
  // mutation rewrites the AST, not the text, so the key is source text plus
  // the mutation's deterministic fingerprint.
  std::string key_source(ota::ecu_capl_source());
  if (opt.mutate) {
    const conform::MutationInfo m = conform::mutate_program(ecu, *opt.mutate);
    rep.mutation = m;
    rep.mutation_seed = *opt.mutate;
    key_source += "\n#mutated:" + std::to_string(*opt.mutate) + ":" +
                  m.handler + ":" + m.description;
  }

  const std::vector<conform::TraceOracle> requirements =
      conform::ota_requirement_oracles();
  const std::vector<std::string> sigma = learning_alphabet(codec, requirements);

  // 2. Membership oracle, batching through the scheduler.
  verify::SchedulerOptions sched_opt;
  sched_opt.jobs = opt.jobs;
  verify::VerifyScheduler sched(sched_opt);
  EcuMembershipOracle::Options ora_opt;
  ora_opt.seed = opt.seed;
  EcuMembershipOracle oracle(ecu, db, codec, sigma, ora_opt, &sched);

  // 3. Learned-model cache lookup (pure function of the key, so a hit is
  // exactly what learning would rebuild).
  std::optional<store::ObjectStore> model_store;
  LearnCacheKey key;
  key.ecu_source = key_source;
  key.seed = opt.seed;
  key.rounds = opt.rounds;
  key.eq_tests = opt.eq_tests;
  key.max_len = opt.max_len;
  key.alphabet = sigma;
  if (!opt.cache_dir.empty()) {
    model_store.emplace(std::filesystem::path(opt.cache_dir) /
                        "learned-models");
    if (auto cached = load_hypothesis(*model_store, key)) {
      rep.hypothesis = std::move(*cached);
      rep.from_cache = true;
      rep.converged = true;  // only converged hypotheses are stored
    }
  }

  // 4. The learning loop: hypothesise, search for a counterexample,
  // refine until the word stops distinguishing, repeat until a whole
  // equivalence round finds nothing.
  if (!rep.from_cache) {
    std::vector<Word> extra;
    if (!opt.cache_dir.empty()) extra = harvest_extra_words(opt.cache_dir);

    TreeLearner learner(oracle);
    Hypothesis hyp = learner.hypothesis();
    for (std::size_t round = 0; round < opt.rounds; ++round) {
      EquivOptions eq;
      eq.seed = opt.seed;
      eq.round = round;
      eq.tests = opt.eq_tests;
      eq.max_len = opt.max_len;
      eq.extra = extra;
      const std::optional<Word> cex =
          approximate_counterexample(oracle, hyp, eq);
      ++rep.rounds_used;
      if (!cex) {
        rep.converged = true;
        break;
      }
      // One counterexample can expose several missing states; refine()
      // returning false is the signal that this word is now classified
      // correctly.
      while (learner.refine(*cex)) {
      }
      hyp = learner.hypothesis();
    }
    rep.hypothesis = std::move(hyp);
    rep.splits = learner.splits();
    if (model_store && rep.converged) {
      store_hypothesis(*model_store, key, rep.hypothesis);
    }
  }
  rep.membership_queries = oracle.queries();
  rep.harness_runs = oracle.evaluations();

  // 5. The Check phase: R01–R05 against the *learned* model, on machines
  // laid out straight from the Dfas. One Context interns the events in a
  // fixed order — the hypothesis's edge labels in row order, then per
  // requirement its edge labels and the names it hides — so EventIds, and
  // with them the canonical counterexample's tie-break, are a function of
  // the automata alone.
  Context ctx;
  const auto intern = [&ctx](const std::string& name) {
    return ctx.event(ctx.channel(name));
  };
  const conform::Dfa& learned = rep.hypothesis.dfa;
  std::vector<EventId> learned_events(learned.names.size(), TAU);
  for (const std::uint32_t label : learned.labels) {
    learned_events[label] = intern(learned.names[label]);
  }

  bool any_fail = false;
  for (const conform::TraceOracle& r : requirements) {
    LearnCheckReport c;
    c.name = r.name;
    if (r.name == "R01") {
      // R01 constrains when the *tester* (the VMG role) may send requests;
      // the learner plays that role itself, so its own stimulus schedule is
      // not ECU behaviour to check. Same skip as the conformance suite's
      // dialogue_only flag.
      c.verdict = "SKIP";
      c.reason = "constrains tester stimuli, not ECU reactions";
      rep.checks.push_back(std::move(c));
      continue;
    }
    // Spec: the requirement automaton. Impl: the learned model restricted
    // to the requirement's alphabet by turning every other name into TAU
    // (standard alphabetised trace refinement).
    const conform::Dfa& spec = r.automaton;
    std::vector<EventId> spec_events(spec.names.size(), TAU);
    for (const std::uint32_t label : spec.labels) {
      spec_events[label] = intern(spec.names[label]);
    }
    std::vector<EventId> impl_events = learned_events;
    for (std::uint32_t k = 0; k < learned.names.size(); ++k) {
      if (spec.symbol(learned.names[k]) != conform::Dfa::NONE) continue;
      intern(learned.names[k]);
      impl_events[k] = TAU;
    }
    CancelToken token;
    if (opt.timeout) token.set_timeout(*opt.timeout);
    try {
      const NormLts norm =
          normalize(to_machine(spec, spec_events), /*with_divergence=*/false,
                    &token);
      const CheckResult res = check_refinement_compiled(
          norm, to_machine(learned, impl_events), Model::Traces, &token);
      if (res.passed) {
        c.verdict = "PASS";
      } else {
        c.verdict = "FAIL";
        any_fail = true;
        if (res.counterexample) {
          c.reason = res.counterexample->describe(ctx);
          c.counterexample = res.counterexample->trace_names(ctx);
          // Close the loop: the refinement counterexample must replay to a
          // rejection on the requirement's own trace oracle.
          const conform::OracleVerdict v = r.judge(c.counterexample);
          c.replay = v.accepted
                         ? "accepted (oracle/refinement disagree)"
                         : "rejected@" + std::to_string(v.divergence_index);
        } else {
          c.reason = "refinement failed without counterexample";
        }
      }
    } catch (const CheckCancelled&) {
      c.verdict = "TIMEOUT";
      any_fail = true;
    }
    rep.checks.push_back(std::move(c));
  }

  rep.ok = rep.converged && !any_fail;
  rep.wall = std::chrono::steady_clock::now() - t0;
  return rep;
}

std::string render_text(const LearnReport& r) {
  std::ostringstream out;
  out << "learn seed " << r.seed << ": "
      << (r.converged ? "converged" : "NOT converged") << " after "
      << r.rounds_used << "/" << r.max_rounds << " rounds ("
      << r.membership_queries << " membership queries, " << r.harness_runs
      << " harness runs, " << r.splits << " splits"
      << (r.from_cache ? ", from cache" : "") << ")\n";
  out << "hypothesis: " << r.hypothesis.dfa.state_count() << " states, "
      << r.hypothesis.dfa.edge_count() << " transitions over "
      << r.hypothesis.dfa.names.size() << " events\n";
  if (r.mutation) {
    out << "mutation: " << r.mutation->description << " [ECU:"
        << r.mutation->line << ":" << r.mutation->column << " ("
        << r.mutation->handler << ")]\n";
  }
  for (const LearnCheckReport& c : r.checks) {
    out << "  [" << c.verdict << "] " << c.name;
    if (c.verdict == "SKIP") {
      out << " -- " << c.reason;
    } else if (c.verdict == "FAIL") {
      out << " -- " << c.reason;
      if (!c.counterexample.empty()) {
        out << "\n      trace:";
        for (const std::string& e : c.counterexample) out << " " << e;
        out << "\n      oracle replay: " << c.replay;
      }
    }
    out << "\n";
  }
  out << (r.ok ? "SECURE"
               : (r.converged ? "VIOLATIONS" : "UNCONVERGED"))
      << ": learned model "
      << (r.converged ? "is equivalence-stable" : "may be incomplete") << "\n";
  return out.str();
}

std::string render_json(const LearnReport& r, bool with_timing) {
  std::ostringstream out;
  out << "{\"learn_format\":1";
  out << ",\"seed\":" << r.seed;
  out << ",\"ok\":" << (r.ok ? "true" : "false");
  out << ",\"converged\":" << (r.converged ? "true" : "false");
  out << ",\"from_cache\":" << (r.from_cache ? "true" : "false");
  out << ",\"rounds\":{\"used\":" << r.rounds_used << ",\"max\":"
      << r.max_rounds << "}";
  out << ",\"eq_tests\":" << r.eq_tests;
  out << ",\"max_len\":" << r.max_len;
  out << ",\"queries\":{\"membership\":" << r.membership_queries
      << ",\"harness_runs\":" << r.harness_runs << ",\"splits\":" << r.splits
      << "}";
  out << ",\"hypothesis\":{\"states\":" << r.hypothesis.dfa.state_count()
      << ",\"transitions\":" << r.hypothesis.dfa.edge_count()
      << ",\"alphabet\":" << json_string_list(r.hypothesis.dfa.names) << "}";
  if (r.mutation) {
    out << ",\"mutation\":{\"seed\":" << *r.mutation_seed
        << ",\"description\":\"" << json_escape(r.mutation->description)
        << "\",\"span\":\"ECU:" << r.mutation->line << ":"
        << r.mutation->column << " (" << json_escape(r.mutation->handler)
        << ")\"}";
  } else {
    out << ",\"mutation\":null";
  }
  out << ",\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const LearnCheckReport& c = r.checks[i];
    if (i > 0) out << ",";
    out << "{\"name\":\"" << json_escape(c.name) << "\"";
    out << ",\"verdict\":\"" << json_escape(c.verdict) << "\"";
    if (!c.reason.empty()) {
      out << ",\"reason\":\"" << json_escape(c.reason) << "\"";
    }
    if (c.verdict == "FAIL") {
      out << ",\"counterexample\":" << json_string_list(c.counterexample);
      out << ",\"replay\":\"" << json_escape(c.replay) << "\"";
    }
    out << "}";
  }
  out << "]";
  if (with_timing) {
    out << ",\"wall_ms\":"
        << std::chrono::duration<double, std::milli>(r.wall).count();
  }
  out << "}";
  return out.str();
}

}  // namespace ecucsp::learn
