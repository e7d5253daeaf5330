// The one-walk term digester against the unfolding digester it replaced
// (tests/term_digest_reference.hpp), on seeded recursive definition graphs,
// the OTA matrix cells and the example scripts. For every term:
//   * two terms share a new key exactly when they share a reference key,
//     also across Contexts that interned their events in different orders;
//   * a term that reaches no Var digests to the same bytes;
//   * both walks resolve definition instances in the same order, so lazily
//     built bodies intern their events in the same order.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "capl/parser.hpp"
#include "can/dbc.hpp"
#include "cspm/eval.hpp"
#include "ota/ota.hpp"
#include "refine/check.hpp"
#include "store/term_digest.hpp"
#include "term_digest_reference.hpp"
#include "translate/extractor.hpp"
#include "verify/ota_batch.hpp"
#include "verify/scheduler.hpp"

namespace ecucsp::store {
namespace {

using reference::ReferenceTermDigester;

std::vector<std::string> event_table(Context& ctx) {
  std::vector<std::string> out;
  for (EventId e = 0; e < ctx.event_count(); ++e) {
    out.push_back(ctx.event_name(e));
  }
  return out;
}

/// (reference key, new key) of every term digested; the two must induce
/// the same equivalence classes.
class KeyClasses {
 public:
  void add(const Digest& ref, const Digest& neu) {
    pairs_.emplace_back(ref, neu);
  }

  /// Fails on the first key that one digester splits and the other joins.
  void expect_same_classes() const {
    std::map<Digest, Digest> ref_to_new;
    std::map<Digest, Digest> new_to_ref;
    for (const auto& [ref, neu] : pairs_) {
      const auto [r, r_fresh] = ref_to_new.emplace(ref, neu);
      EXPECT_TRUE(r_fresh || r->second == neu)
          << "one reference key, two new keys: " << ref.hex();
      const auto [n, n_fresh] = new_to_ref.emplace(neu, ref);
      EXPECT_TRUE(n_fresh || n->second == ref)
          << "one new key, two reference keys: " << neu.hex();
    }
  }

  std::size_t terms() const { return pairs_.size(); }
  std::size_t classes() const {
    std::map<Digest, int> seen;
    for (const auto& [ref, neu] : pairs_) seen.emplace(ref, 0);
    return seen.size();
  }

 private:
  std::vector<std::pair<Digest, Digest>> pairs_;
};

// --- seeded recursive definition graphs ------------------------------------

/// A graph of mutually recursive definitions D0..D(defs-1), each with one
/// integer argument in {0..args-1}. An instance's body is drawn when it is
/// first resolved, from a generator seeded by (graph, definition,
/// argument), and interns its events as it is drawn, its own marker event
/// `at.j.x` first.
/// Bodies and the root also pick from a pool of shared fragments that hold
/// Var leaves, so one node is often reached both from the root and from
/// inside a body.
struct GraphSpec {
  std::uint64_t seed = 0;
  int defs = 3;
  int args = 2;
  int depth = 2;
  /// The instance D0(edited_arg) draws its body from another seed when set.
  bool edited = false;
  int edited_arg = 0;
};

class GraphGen {
 public:
  GraphGen(Context& ctx, const GraphSpec& spec, std::uint64_t stream,
           std::shared_ptr<const std::vector<ProcessRef>> pool)
      : ctx_(ctx), spec_(spec), rng_(spec.seed * 1000003u + stream),
        pool_(std::move(pool)) {}

  ProcessRef process(int depth) {
    const int pick = static_cast<int>(rng_() % (depth <= 0 ? 4 : 15));
    switch (pick) {
      case 0:
        return ctx_.stop();
      case 1:
        return var_leaf();
      case 2:
        return fragment();
      case 3:
        return ctx_.prefix(event(),
                           depth <= 0 ? var_leaf() : process(depth - 1));
      case 4:
        return ctx_.prefix(event(), process(depth - 1));
      case 5:
        return ctx_.ext_choice(process(depth - 1), process(depth - 1));
      case 6:
        return ctx_.int_choice(process(depth - 1), process(depth - 1));
      case 7:
        return ctx_.par(process(depth - 1), event_set(), process(depth - 1));
      case 8:
        return ctx_.interleave(process(depth - 1), process(depth - 1));
      case 9:
        return ctx_.hide(process(depth - 1), event_set());
      case 10: {
        const EventId from = event();
        const EventId to = event();
        return ctx_.rename(process(depth - 1), {{from, to}});
      }
      case 11:
        return ctx_.sliding(process(depth - 1), process(depth - 1));
      case 12:
        return ctx_.interrupt(process(depth - 1), process(depth - 1));
      case 13:
        return ctx_.seq(process(depth - 1), ctx_.skip());
      default:
        return ctx_.ext_choice(std::vector<ProcessRef>{
            process(depth - 1), process(depth - 1), process(depth - 1)});
    }
  }

  ProcessRef var_leaf() {
    const int j = static_cast<int>(rng_() % spec_.defs);
    const int x = static_cast<int>(rng_() % spec_.args);
    return ctx_.var("D" + std::to_string(j), {Value::integer(x)});
  }

 private:
  EventId event() {
    switch (rng_() % 3) {
      case 0:
        return ctx_.event("a");
      case 1:
        return ctx_.event("b");
      default:
        return ctx_.event("e", {Value::integer(static_cast<int>(rng_() % 3))});
    }
  }

  EventSet event_set() {
    std::vector<EventId> out;
    if (rng_() % 2) out.push_back(ctx_.event("a"));
    if (rng_() % 2) out.push_back(ctx_.event("e", {Value::integer(0)}));
    return EventSet(std::move(out));
  }

  ProcessRef fragment() {
    if (!pool_ || pool_->empty()) return var_leaf();
    return (*pool_)[rng_() % pool_->size()];
  }

  Context& ctx_;
  const GraphSpec& spec_;
  std::mt19937_64 rng_;
  std::shared_ptr<const std::vector<ProcessRef>> pool_;
};

/// Declares the channels of `spec` in `ctx`. `flipped` declares them and
/// interns events in another order, so EventIds and arena layout differ
/// from an unflipped Context.
void declare_channels(Context& ctx, const GraphSpec& spec, bool flipped) {
  const std::vector<Value> three = {Value::integer(0), Value::integer(1),
                                    Value::integer(2)};
  std::vector<Value> def_ids, arg_ids;
  for (int j = 0; j < spec.defs; ++j) def_ids.push_back(Value::integer(j));
  for (int x = 0; x < spec.args; ++x) arg_ids.push_back(Value::integer(x));
  if (flipped) {
    ctx.channel("at", {def_ids, arg_ids});
    ctx.channel("e", {three});
    ctx.event("e", {Value::integer(2)});
    ctx.channel("b");
    ctx.channel("a");
  } else {
    ctx.channel("a");
    ctx.channel("b");
    ctx.channel("e", {three});
    ctx.channel("at", {def_ids, arg_ids});
  }
}

/// Two roots of a graph, the shared fragments its bodies pick from, and the
/// instances its Context has resolved, in order ("D1(0)").
struct Graph {
  ProcessRef first = nullptr;
  ProcessRef second = nullptr;
  std::shared_ptr<std::vector<ProcessRef>> pool =
      std::make_shared<std::vector<ProcessRef>>();
  std::shared_ptr<std::vector<std::string>> resolved =
      std::make_shared<std::vector<std::string>>();
};

/// Declares D0..D(defs-1) in `ctx`. Declaring them again makes the Context
/// forget the instances it resolved, so the next walk resolves them anew.
void define_graph(Context& ctx, const GraphSpec& spec, const Graph& g) {
  for (int j = 0; j < spec.defs; ++j) {
    const auto draw = [&spec, j, g](Context& cx, std::span<const Value> args) {
      const int x = static_cast<int>(args[0].as_int());
      g.resolved->push_back("D" + std::to_string(j) + "(" +
                            std::to_string(x) + ")");
      const EventId marker =
          cx.event("at", {Value::integer(j), Value::integer(x)});
      std::uint64_t stream = 1 + 64 * j + x;
      if (spec.edited && j == 0 && x == spec.edited_arg) stream += 4096;
      GraphGen gen(cx, spec, stream, g.pool);
      const ProcessRef body = gen.process(spec.depth);
      return stream % 2 ? cx.prefix(marker, body) : body;
    };
    ctx.define("D" + std::to_string(j), draw);
  }
}

Graph build_graph(Context& ctx, const GraphSpec& spec, bool flipped) {
  declare_channels(ctx, spec, flipped);
  Graph g;
  define_graph(ctx, spec, g);
  GraphGen gen(ctx, spec, 0, nullptr);
  for (int i = 0; i < 4; ++i) g.pool->push_back(gen.process(1));
  GraphGen roots(ctx, spec, 0, g.pool);
  g.first = roots.process(2);
  g.second = spec.seed % 3 == 0 ? roots.var_leaf() : roots.process(1);
  return g;
}

TEST(TermKeyWalk, RandomDefinitionGraphsKeepKeyClassesAndResolveOrder) {
  // Two Contexts built alike may still order a choice's operands
  // differently (by arena address), and both walks follow that order. So
  // the two walks run in one Context: the reference walk, then, once the
  // definitions are declared again, the new walk; each resolves every
  // instance it reaches once, and they must do so in the same order.
  KeyClasses classes;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    GraphSpec spec;
    spec.seed = seed;
    spec.defs = 2 + static_cast<int>(seed % 3);
    spec.args = 1 + static_cast<int>(seed / 3 % 3);
    spec.depth = 1 + static_cast<int>(seed / 9 % 3);
    spec.edited_arg = static_cast<int>(seed / 27 % spec.args);
    for (const bool edited : {false, true}) {
      spec.edited = edited;
      for (const bool flipped : {false, true}) {
        Context ctx;
        const Graph g = build_graph(ctx, spec, flipped);
        // One digester per walk takes both keys, as a check key does.
        ReferenceTermDigester ref(ctx);
        const Digest ref_first = ref.term(g.first);
        const Digest ref_second = ref.term(g.second);
        const std::vector<std::string> ref_order = *g.resolved;

        g.resolved->clear();
        define_graph(ctx, spec, g);
        TermDigester neu(ctx);
        const Digest new_first = neu.term(g.first);
        const Digest new_second = neu.term(g.second);
        ASSERT_EQ(*g.resolved, ref_order)
            << "seed " << seed << " edited " << edited << " flipped "
            << flipped;
        classes.add(ref_first, new_first);
        classes.add(ref_second, new_second);
        // A fresh digester agrees with one that has seen other terms.
        EXPECT_EQ(TermDigester(ctx).term(g.second), new_second);
      }
    }
  }
  classes.expect_same_classes();
  // The inputs are not trivial: many keys repeat across Contexts and
  // edits, and many differ.
  EXPECT_LT(classes.classes(), classes.terms() / 2);
  EXPECT_GT(classes.classes(), classes.terms() / 8);
}

TEST(TermKeyWalk, TermsThatReachNoVarKeepTheirBytes) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Context ctx;
    GraphSpec spec;
    spec.seed = seed;
    declare_channels(ctx, spec, seed % 2 == 0);
    std::mt19937_64 rng(seed);
    std::vector<ProcessRef> terms = {ctx.stop(), ctx.skip()};
    for (int i = 0; i < 40; ++i) {
      const ProcessRef p = terms[rng() % terms.size()];
      const ProcessRef q = terms[rng() % terms.size()];
      const EventId e =
          ctx.event("e", {Value::integer(static_cast<int>(rng() % 3))});
      switch (rng() % 8) {
        case 0: terms.push_back(ctx.prefix(e, p)); break;
        case 1: terms.push_back(ctx.ext_choice(p, q)); break;
        case 2:
          terms.push_back(ctx.int_choice(
              std::vector<ProcessRef>{p, q, ctx.prefix(e, q)}));
          break;
        case 3: terms.push_back(ctx.par(p, EventSet{e}, q)); break;
        case 4: terms.push_back(ctx.hide(p, EventSet{e})); break;
        case 5: terms.push_back(ctx.rename(p, {{e, ctx.event("a")}})); break;
        case 6: terms.push_back(ctx.sliding(p, q)); break;
        default: terms.push_back(ctx.seq(p, q)); break;
      }
    }
    ReferenceTermDigester ref(ctx);
    TermDigester neu(ctx);
    for (const ProcessRef t : terms) {
      ASSERT_EQ(ref.term(t), neu.term(t)) << "seed " << seed;
    }
  }
}

// --- the OTA matrix ----------------------------------------------------------

/// Stops a matrix cell once its keys are taken.
struct KeysTaken : std::exception {};

/// A CheckCache that takes each check's keys with one digester, records them
/// with the Context's event table after the walk, and stops the check.
template <class Digester>
class RecordingCache final : public CheckCache {
 public:
  struct Cell {
    std::vector<Digest> keys;
    std::vector<std::string> events;
  };

  std::optional<CheckResult> lookup_check(Context& ctx, ProcessRef spec,
                                          ProcessRef impl, CheckOp, Model,
                                          std::size_t) override {
    Digester d(ctx);
    Cell cell;
    if (spec) cell.keys.push_back(d.term(spec));
    cell.keys.push_back(d.term(impl));
    cell.events = event_table(ctx);
    std::lock_guard lock(mu_);
    cells.push_back(std::move(cell));
    throw KeysTaken{};
  }
  void store_check(Context&, ProcessRef, ProcessRef, CheckOp, Model,
                   std::size_t, const CheckResult&) override {}
  std::optional<CompactLts> lookup_lts(Context&, ProcessRef,
                                       std::size_t) override {
    return std::nullopt;
  }
  void store_lts(Context&, ProcessRef, std::size_t,
                 const CompactLts&) override {}

  std::vector<Cell> cells;

 private:
  std::mutex mu_;
};

template <class Digester>
std::vector<typename RecordingCache<Digester>::Cell> matrix_cells() {
  RecordingCache<Digester> cache;
  ScopedCheckCache installed(&cache);
  verify::VerifyScheduler({.jobs = 1}).run(verify::ota_requirement_matrix());
  return std::move(cache.cells);
}

TEST(TermKeyWalk, MatrixCellsKeepKeyClassesAndEventTables) {
  const auto ref = matrix_cells<ReferenceTermDigester>();
  const auto neu = matrix_cells<TermDigester>();
  ASSERT_EQ(ref.size(), 15u);
  ASSERT_EQ(neu.size(), 15u);
  KeyClasses classes;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].events, neu[i].events) << "cell " << i;
    ASSERT_EQ(ref[i].keys.size(), neu[i].keys.size());
    for (std::size_t k = 0; k < ref[i].keys.size(); ++k) {
      classes.add(ref[i].keys[k], neu[i].keys[k]);
    }
  }
  classes.expect_same_classes();
  // Cells share specs across attacker variants.
  EXPECT_LT(classes.classes(), classes.terms());
}

// --- scripts -----------------------------------------------------------------

struct Script {
  std::string source;
  std::vector<std::string> roots;
};

std::string cyclers(int k) {
  std::string channels, procs, sys;
  for (int i = 0; i < k; ++i) {
    const std::string n = std::to_string(i);
    channels += (i ? ", " : "") + ("p" + n + ", q" + n + ", r" + n);
    procs += "C" + n + " = p" + n + " -> q" + n + " -> r" + n + " -> C" + n +
             "\n";
    sys += (i ? " ||| C" : "C") + n;
  }
  return "channel " + channels + "\n" + procs + "SYS = " + sys +
         "\nSPEC = p0 -> SPEC [] q0 -> SPEC [] r0 -> SPEC\n";
}

std::string lattice(int k) {
  const std::string top = std::to_string((1 << k) - 1);
  const std::string last = std::to_string(k - 1);
  return "channel a : {0.." + last +
         "}\nchannel reset\n"
         "pow2(i) = if i == 0 then 1 else 2 * pow2(i - 1)\n"
         "P(m) = if m == " + top + " then reset -> P(0) else [] i:{0.." + last +
         "} @ (if (m / pow2(i)) % 2 == 1 then STOP else a.i -> "
         "P(m + pow2(i)))\n";
}

std::string extracted_ota() {
  const can::DbcDatabase db = can::parse_dbc(std::string(ota::ota_dbc_text()));
  const capl::CaplProgram vmg =
      capl::parse_capl(std::string(ota::vmg_capl_source()));
  const capl::CaplProgram ecu =
      capl::parse_capl(std::string(ota::ecu_capl_source()));
  translate::ExtractorOptions vmg_opt;
  vmg_opt.node_name = "VMG";
  vmg_opt.db = &db;
  translate::ExtractorOptions ecu_opt;
  ecu_opt.node_name = "ECU";
  ecu_opt.tx_channel = "rec";
  ecu_opt.rx_channel = "send";
  ecu_opt.db = &db;
  return translate::extract_system(
             {{&vmg, vmg_opt}, {&ecu, ecu_opt}},
             {"SP02 = send.SwInventoryReq -> rec.SwReport -> SP02"})
      .cspm;
}

std::vector<Script> scripts() {
  std::vector<Script> out;
  out.push_back({R"(channel sensorData, diagFwd
channel diagCmd, macOk, cmdAck
SPEC = sensorData -> diagFwd -> SPEC
GATEWAY = sensorData -> diagFwd -> GATEWAY
        [] diagCmd -> macOk -> cmdAck -> GATEWAY
FORWARDING = GATEWAY \ {| diagCmd, macOk, cmdAck |}
)",
                 {"SPEC", "GATEWAY", "FORWARDING"}});
  for (const int k : {1, 3, 7}) {
    out.push_back({cyclers(k), {"SYS", "SPEC", "C0"}});
  }
  out.push_back({extracted_ota(), {"SYSTEM", "VMG", "ECU", "SP02"}});
  for (int k = 1; k <= 8; ++k) {
    out.push_back({lattice(k), {"P(0)", "P(1)", "P(0) ||| P(0)"}});
  }
  return out;
}

TEST(TermKeyWalk, ScriptsKeepKeyClassesAndEventTables) {
  KeyClasses classes;
  for (const Script& s : scripts()) {
    for (const bool noise_first : {false, true}) {
      // Resolving a CSPm definition calls back into its evaluator, so each
      // Context keeps its evaluator until its keys are taken.
      Context ref_ctx;
      Context new_ctx;
      if (noise_first) {
        ref_ctx.event(ref_ctx.channel("noise"));
        new_ctx.event(new_ctx.channel("noise"));
      }
      cspm::Evaluator ref_ev(ref_ctx);
      cspm::Evaluator new_ev(new_ctx);
      ref_ev.load_source(s.source);
      new_ev.load_source(s.source);
      std::vector<ProcessRef> ref_roots, new_roots;
      for (const std::string& root : s.roots) {
        ref_roots.push_back(ref_ev.evaluate_expression(root).process);
        new_roots.push_back(new_ev.evaluate_expression(root).process);
      }
      ReferenceTermDigester ref(ref_ctx);
      TermDigester neu(new_ctx);
      for (std::size_t i = 0; i < s.roots.size(); ++i) {
        classes.add(ref.term(ref_roots[i]), neu.term(new_roots[i]));
        EXPECT_EQ(event_table(ref_ctx), event_table(new_ctx)) << s.roots[i];
      }
    }
  }
  classes.expect_same_classes();
  EXPECT_LT(classes.classes(), classes.terms());
}

}  // namespace
}  // namespace ecucsp::store
