// Workload "fleet": the daemon's job — many CI agents asking about a few ECU
// models.
//
// An in-process serve::VerifyService keeps its store in memory, as
// `ecucsp_serve` does without --cache-dir: the disk tier fsyncs every
// object, and on a shared virtual disk that made whole runs of the same code
// differ by up to 60% in throughput and tail latency. The store is still
// read (textual variants) and written (new models) on every run. One
// generator thread plays the agents in a closed loop, one mix item at a
// time: a single request, or a burst of kBurst identical requests sent
// together, which the service coalesces into one flight. A request's
// latency is therefore its own cost, not the queue in front of it, and can
// be compared with the fastest request of its kind (see fastest_of_kind in
// main.cpp); one service worker is enough. Every request and response
// passes through serve::encode and a serve::FrameBuffer, as it would over a
// socket. The process moves to the next pair of CPUs at the start of each
// block.
//
// The catalog: the OTA system extracted from the shipped VMG/ECU CAPL by
// translate::extract_system, examples/models/gateway.csp, and cycler models
// at 3^6..3^8 states; some assertions fail. Every block of 100 requests
// holds, in a seeded order:
//   86 popular requests, Zipf-skewed over the catalog  -> response memo hits
//    8 textual variants of catalog requests            -> memo miss, store hit
//    2 never-seen 3^8 cycler models                    -> engine + store write
//    1 burst of 4 identical requests for a new 3^7 model -> single-flight
// The never-seen models of each class take the six check kinds x verdicts
// in turn, and the Zipf ranking follows the catalog's fixed order, so every
// seed asks for the same work. Set-up pre-warms the memo and the store with
// the catalog, so the measured phase is the steady state. Memo hits make up
// the median; the never-seen 3^8 models (the slowest 2%) make up the p99
// tail. Set-up (about 0.15 s: inputs, a new service, the catalog and one
// block of the mix) runs once before the measured phase and is repeated
// after each eighth of the blocks (see MeasuredPhase), so peak_rss_mb
// includes one set-up's second copy of the inputs.
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "bench.hpp"
#include "can/dbc.hpp"
#include "capl/parser.hpp"
#include "cspm/eval.hpp"
#include "cspm/parser.hpp"
#include "models.hpp"
#include "ota/ota.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "translate/extractor.hpp"

namespace perfbench {

using namespace ecucsp;

namespace {

constexpr unsigned kBurst = 4;  // agents asking about one new model at once
constexpr std::uint32_t kTimeoutMs = 20'000;
constexpr std::size_t kSoloChecks = 8;     // post-run solo sweeps per class
constexpr auto kStall = std::chrono::seconds(60);

enum class Class { Popular, Variant, Fresh, Burst };

const char* to_string(Class c) {
  switch (c) {
    case Class::Popular:
      return "popular";
    case Class::Variant:
      return "variant";
    case Class::Fresh:
      return "fresh";
    case Class::Burst:
      return "burst";
  }
  return "?";
}

/// One distinct request text and its answer fixed by construction.
struct Entry {
  serve::CheckRequest req;
  std::string label;
  std::string kind;  // requests of one kind do the same work
  bool pass = true;
  std::size_t cx_length = 0;
  std::string digest_hex;  // the request digest, computed in set-up
  std::size_t base = 0;    // variants: the catalog entry they rephrase
};

/// One step of the mix: `count` identical requests for `entry`.
struct Item {
  Class cls = Class::Popular;
  std::size_t entry = 0;
  unsigned count = 1;
};

struct Inputs {
  std::vector<Entry> entries;  // catalog first, then generated ones
  std::size_t catalog = 0;
  std::vector<Item> mix;
  std::size_t block_items = 0;  // items per block of 100 requests
};

serve::CheckRequest request(std::vector<std::string> sources,
                            std::uint32_t index) {
  serve::CheckRequest r;
  r.sources = std::move(sources);
  r.assertion_index = index;
  r.timeout_ms = kTimeoutMs;
  return r;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Entry cycler_entry(unsigned n, CheckKind k, bool pass, const std::string& tag) {
  CyclerCheck c = cycler_check(n, k, pass, tag);
  Entry e;
  e.req = request({std::move(c.source)}, 0);
  e.label = std::to_string(n) + " cyclers " + to_string(k);
  e.kind = work_label(c);
  e.pass = pass;
  e.cx_length = c.cx_length;
  return e;
}

std::vector<Entry> catalog(const std::filesystem::path& root) {
  std::vector<Entry> out;
  const auto add = [&](std::vector<std::string> sources, std::uint32_t index,
                       std::string label, bool pass) {
    Entry e;
    e.req = request(std::move(sources), index);
    e.label = std::move(label);
    e.pass = pass;
    e.cx_length = 0;  // the FAIL entries below fail on their first event
    out.push_back(std::move(e));
  };

  // The OTA system, extracted from the reference CAPL programs.
  const can::DbcDatabase db = can::parse_dbc(ota::ota_dbc_text());
  const capl::CaplProgram vmg = capl::parse_capl(ota::vmg_capl_source());
  const capl::CaplProgram ecu = capl::parse_capl(ota::ecu_capl_source());
  translate::ExtractorOptions vmg_opt;
  vmg_opt.node_name = "VMG";
  vmg_opt.db = &db;
  translate::ExtractorOptions ecu_opt;
  ecu_opt.node_name = "ECU";
  ecu_opt.tx_channel = "rec";
  ecu_opt.rx_channel = "send";
  ecu_opt.db = &db;
  const std::string ota_model =
      translate::extract_system(
          {{&vmg, vmg_opt}, {&ecu, ecu_opt}},
          {"SP02 = send.SwInventoryReq -> rec.SwReport -> SP02",
           "kept = {send.SwInventoryReq, rec.SwReport}",
           "hidden = diff({| send, rec, setTimer, cancelTimer, timeout |}, "
           "kept)",
           "assert SP02 [T= SYSTEM \\ hidden", "assert SYSTEM :[divergence free]",
           "assert STOP [T= SYSTEM"})
          .cspm;
  add({ota_model}, 0, "OTA SP02", true);
  add({ota_model}, 1, "OTA divergence free", true);
  add({ota_model}, 2, "OTA STOP [T=", false);

  // The diagnostic gateway shipped with the examples, plus two assertions.
  const std::string gateway = slurp(root / "examples/models/gateway.csp");
  const std::string extra =
      "assert GATEWAY :[deadlock free]\nassert STOP [T= GATEWAY\n";
  add({gateway, extra}, 0, "gateway SPEC [T=", true);
  add({gateway, extra}, 1, "gateway deadlock free", true);
  add({gateway, extra}, 2, "gateway STOP [T=", false);

  out.push_back(cycler_entry(6, CheckKind::Traces, true, "c6t"));
  out.push_back(cycler_entry(6, CheckKind::Deadlock, false, "c6d"));
  out.push_back(cycler_entry(7, CheckKind::Failures, false, "c7f"));
  out.push_back(cycler_entry(7, CheckKind::Deadlock, true, "c7d"));
  out.push_back(cycler_entry(8, CheckKind::Traces, false, "c8t"));
  out.push_back(cycler_entry(8, CheckKind::Failures, true, "c8f"));
  return out;
}

/// Catalog plus `blocks` seeded blocks of the mix (see the file comment).
Inputs make_inputs(const Options& opt, std::size_t blocks) {
  Inputs in;
  in.entries = catalog(opt.root);
  in.catalog = in.entries.size();
  for (Entry& e : in.entries) e.kind = "popular " + e.label;
  Rng rng(opt.seed);

  // Zipf(1) popularity over the catalog in its fixed order, so that every
  // seed puts the same entries around the median.
  std::vector<double> cdf;
  double total = 0;
  for (std::size_t i = 0; i < in.catalog; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf.push_back(total);
  }
  const auto popular = [&] {
    const double u = static_cast<double>(rng.next() >> 11) * 0x1p-53 * total;
    std::size_t i = 0;
    while (i + 1 < cdf.size() && cdf[i] < u) ++i;
    return i;
  };
  constexpr CheckKind kinds[] = {CheckKind::Traces, CheckKind::Failures,
                                 CheckKind::Deadlock};
  std::uint64_t serial = 0;
  // New models of each class take the six check kinds x verdicts in turn,
  // so every seed asks the same number of each.
  std::size_t fresh_turn = 0;
  std::size_t burst_turn = 0;
  const auto fresh = [&](unsigned n, const char* cls, std::size_t& turn) {
    const std::string tag = tag36(rng.next() >> 24) + "f" + std::to_string(serial++);
    const std::size_t t = turn++;
    Entry e = cycler_entry(n, kinds[t % 3], t / 3 % 2 == 0, tag);
    e.kind = cls + (" " + e.kind);
    in.entries.push_back(std::move(e));
    return in.entries.size() - 1;
  };

  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<Item> block;
    for (int i = 0; i < 86; ++i) block.push_back({Class::Popular, popular(), 1});
    for (int i = 0; i < 8; ++i) {
      const std::size_t base = rng.below(in.catalog);
      Entry v = in.entries[base];
      v.req.sources.back() += "\n-- agent " + std::to_string(serial++) + "\n";
      v.base = base;
      v.kind = "variant " + v.label;
      v.label += " (variant)";
      in.entries.push_back(std::move(v));
      block.push_back({Class::Variant, in.entries.size() - 1, 1});
    }
    for (int i = 0; i < 2; ++i) {
      block.push_back({Class::Fresh, fresh(8, "fresh", fresh_turn), 1});
    }
    block.push_back({Class::Burst, fresh(7, "burst", burst_turn), kBurst});
    rng.shuffle(block);
    in.block_items = block.size();
    in.mix.insert(in.mix.end(), block.begin(), block.end());
  }
  for (Entry& e : in.entries) e.digest_hex = serve::request_digest(e.req).hex();
  return in;
}

std::string with_digest(std::string block, const std::string& digest_hex) {
  const std::string key = "\ndigest: ";
  const std::size_t at = block.find(key);
  if (at == std::string::npos) return block;
  const std::size_t end = block.find('\n', at + key.size());
  return block.replace(at + key.size(), end - at - key.size(), digest_hex);
}

/// The server-to-client half of the simulated connection.
class Wire {
 public:
  void push(std::vector<std::uint8_t> bytes) {
    {
      std::lock_guard lk(mu_);
      chunks_.push_back(std::move(bytes));
    }
    cv_.notify_one();
  }
  /// Waits up to kStall for bytes; empty on a stall.
  std::deque<std::vector<std::uint8_t>> take() {
    std::unique_lock lk(mu_);
    cv_.wait_for(lk, kStall, [this] { return !chunks_.empty(); });
    std::deque<std::vector<std::uint8_t>> out;
    out.swap(chunks_);
    return out;
  }
  std::deque<std::vector<std::uint8_t>> take_now() {
    std::lock_guard lk(mu_);
    std::deque<std::vector<std::uint8_t>> out;
    out.swap(chunks_);
    return out;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::vector<std::uint8_t>> chunks_;
};

struct Pending {
  std::uint64_t id = 0;
  std::size_t entry = 0;
  Class cls = Class::Popular;
  std::size_t group = 0;      // burst: mix position of its item
  std::int64_t t0 = 0;  // submission: the start of its mix item
  // Traced runs: when the intake call returned (0 until then) and whether
  // this request's own task ran, i.e. it led its flight.
  std::atomic<std::int64_t> submit_end{0};
  std::atomic<bool> ran_engine{false};
};

/// Verdict-side state of one closed-loop run.
struct Books {
  std::map<std::size_t, std::string> solo;        // catalog entry -> block
  std::map<std::size_t, std::string> burst_block;  // burst group -> block
  std::map<std::size_t, std::string> observed;     // entry -> first block seen
  std::size_t store_served = 0;
  std::size_t variants = 0;
};

/// The closed loop: sends the mix items from `next` one at a time (a burst's
/// members together) and waits for the answers to each before sending the
/// next, until the items run out (or `budget_ns` has passed). Returns the
/// wall time of the phase.
class Loop {
 public:
  Loop(serve::VerifyService& service, const Inputs& in, Books& books,
       Failures& fail, bool traced, CpuRotation* rotation = nullptr)
      : service_(service), in_(in), books_(books), fail_(fail),
        traced_(traced), rotation_(rotation) {}

  /// Runs items[next, end) (advancing `next`) until `budget_ns` has
  /// passed; `out` collects measured requests (null during set-up, where
  /// any failure aborts the run).
  double run(const std::vector<Item>& items, std::size_t& next,
             std::size_t end, std::int64_t budget_ns, RunResult* out) {
    out_ = out;
    const std::int64_t start = now_ns();
    bool sending = true;
    while (true) {
      if (sending && (now_ns() - start >= budget_ns || next >= end)) {
        sending = false;
      }
      if (sending && pending_.empty()) {
        if (rotation_ && next % in_.block_items == 0) rotation_->next();
        const Item& item = items[next];
        // A burst's agents ask at the same moment, so each member is timed
        // from the start of its item: a stall of the generator between two
        // members then adds to the later member's latency instead of
        // shortening it.
        const std::int64_t due = now_ns();
        for (unsigned i = 0; i < item.count; ++i) send(item, next, due);
        ++next;
        drain_ready();
        continue;
      }
      if (!sending && pending_.empty()) break;
      if (!pending_.empty()) {
        auto chunks = wire_.take();
        if (chunks.empty()) {
          for (auto& [id, p] : pending_) {
            fail_.add("request " + std::to_string(id) + " (" +
                      in_.entries[p->entry].label + ") stalled");
          }
          throw std::runtime_error("the service stopped answering");
        }
        for (auto& c : chunks) receive(c);
      }
    }
    return static_cast<double>(now_ns() - start) / 1e9;
  }

 private:
  void send(const Item& item, std::size_t position, std::int64_t due) {
    const Entry& e = in_.entries[item.entry];
    auto p = std::make_unique<Pending>();
    p->id = ++ids_;
    p->entry = item.entry;
    p->cls = item.cls;
    p->group = position;
    Pending* const raw = p.get();
    pending_.emplace(p->id, std::move(p));

    raw->t0 = due;
    const RequestScope scope(raw->id);
    serve::CheckRequest req = e.req;
    req.id = raw->id;
    std::optional<serve::Msg> msg;
    {
      const Span s("serve.wire");
      const std::vector<std::uint8_t> bytes = serve::encode(req, false);
      server_in_.feed(bytes.data(), bytes.size());
      msg = server_in_.next();
    }
    if (!msg || msg->type != serve::MsgType::CheckRequest) {
      throw std::runtime_error("request did not survive the wire");
    }
    Wire& wire = wire_;
    const std::uint64_t id = raw->id;
    auto done = [&wire, raw, id, traced = traced_](serve::CheckResponse resp) {
      std::optional<RequestScope> scope;
      if (thread_context().request != id) scope.emplace(id);
      if (traced && resp.coalesced && !raw->ran_engine.load()) {
        const std::int64_t joined = raw->submit_end.load();
        const std::int64_t now = now_ns();
        if (joined != 0 && joined < now) {
          record_interval("serve.coalesced_wait", id, joined, now);
        }
      }
      const Span s("serve.wire");
      wire.push(serve::encode(resp, false));
    };
    if (!traced_) {
      service_.submit(std::move(msg->check), std::move(done));
      return;
    }
    // Traced: the same intake as submit(), split at its public seams so the
    // digest, the queue wait and the engine are timed separately.
    store::Digest key;
    {
      const Span s("serve.digest");
      key = serve::request_digest(msg->check);
    }
    const serve::CheckRequest& r = msg->check;
    verify::CheckTask task;
    task.name = "assert #" + std::to_string(r.assertion_index + 1);
    task.max_states = static_cast<std::size_t>(r.max_states);
    task.timeout = std::chrono::milliseconds(r.timeout_ms);
    task.custom = [sources = r.sources, index = r.assertion_index,
                   max_states = task.max_states, raw,
                   id](CancelToken& token) {
      const CancelScope cancel(token);
      const std::int64_t started = now_ns();
      raw->ran_engine.store(true);
      const std::int64_t queued = raw->submit_end.load();
      if (queued != 0 && queued < started) {
        record_interval("verify.queue_wait", id, queued, started);
      }
      const RequestScope scope(id);
      const Span engine("verify.engine");
      auto ctx = std::make_unique<Context>();
      auto ev = std::make_unique<cspm::Evaluator>(*ctx);
      {
        const Span s("cspm.load");
        for (const std::string& src : sources) ev->load(cspm::parse_cspm(src));
        ev->assertion_terms(index);  // memoised for check_assertion
      }
      cspm::AssertionResult ar;
      {
        const Span s("refine.check");
        ar = ev->check_assertion(index, max_states, &token);
      }
      verify::RenderedCheck out = verify::render(*ctx, std::move(ar.result));
      if (!out.counterexample.empty()) {
        out.counterexample = ar.description + ": " + out.counterexample;
      }
      const Span s("core.teardown");
      ev.reset();
      ctx.reset();
      return out;
    };
    {
      const Span s("serve.submit");
      service_.submit_keyed(key, std::move(task), raw->id, std::move(done));
    }
    raw->submit_end.store(now_ns());
  }

  void drain_ready() {
    // Memo hits and rejections answer inside submit; consume them now so
    // their latency does not include the next request's submission.
    for (auto& c : wire_.take_now()) receive(c);
  }

  void receive(const std::vector<std::uint8_t>& bytes) {
    RunResult* const out = out_;
    const std::int64_t w0 = now_ns();
    client_in_.feed(bytes.data(), bytes.size());
    std::optional<serve::Msg> msg = client_in_.next();
    const std::int64_t w1 = now_ns();
    if (!msg || msg->type != serve::MsgType::CheckResponse) {
      throw std::runtime_error("response did not survive the wire");
    }
    const serve::CheckResponse& resp = msg->response;
    const auto it = pending_.find(resp.id);
    if (it == pending_.end()) {
      throw std::runtime_error("response for unknown request " +
                               std::to_string(resp.id));
    }
    record_interval("serve.wire", resp.id, w0, w1);
    Pending& p = *it->second;
    const std::string why = check(p, resp);
    const std::int64_t t1 = now_ns();
    record_request(p.id, p.t0, t1, to_string(p.cls));
    if (out) {
      ++out->attempted;
      out->add_latency(in_.entries[p.entry].kind, p.t0, t1);
      if (!why.empty()) fail_.add(why);
    } else if (!why.empty()) {
      throw std::runtime_error("set-up: " + why);
    }
    pending_.erase(it);
  }

  std::string check(const Pending& p, const serve::CheckResponse& resp) {
    const Entry& e = in_.entries[p.entry];
    const std::string what =
        std::string(to_string(p.cls)) + " " + e.label + ": ";
    if (resp.status == serve::ServeStatus::Overloaded) return what + "Overloaded";
    if (resp.status != serve::ServeStatus::Passed &&
        resp.status != serve::ServeStatus::Failed) {
      return what + std::string(serve::to_string(resp.status)) + " " +
             resp.error;
    }
    const bool passed = resp.status == serve::ServeStatus::Passed;
    if (passed != e.pass) return what + "got " + (passed ? "PASS" : "FAIL");
    if (!passed && trace_length(resp.counterexample) != e.cx_length) {
      return what + "counterexample length " +
             std::to_string(trace_length(resp.counterexample).value_or(0)) +
             " != " + std::to_string(e.cx_length);
    }
    if (resp.digest_hex != e.digest_hex) return what + "wrong request digest";
    const std::string block = resp.verdict_block();
    if (p.cls != Class::Popular && resp.memo_hit) {
      return what + "served from the memo, but never asked before";
    }
    switch (p.cls) {
      case Class::Popular: {
        const auto ref = books_.solo.find(p.entry);
        if (ref == books_.solo.end()) {
          books_.solo.emplace(p.entry, block);  // pre-warm: the first sweep
        } else if (block != ref->second) {
          return what + "verdict block differs from its first sweep";
        }
        break;
      }
      case Class::Variant: {
        ++books_.variants;
        if (resp.from_cache) ++books_.store_served;
        const auto ref = books_.solo.find(e.base);
        if (ref != books_.solo.end() &&
            block != with_digest(ref->second, e.digest_hex)) {
          return what + "verdict block differs from the catalog entry's";
        }
        break;
      }
      case Class::Burst: {
        const auto [at, fresh] = books_.burst_block.emplace(p.group, block);
        if (!fresh && at->second != block) {
          return what + "burst members disagree";
        }
        break;
      }
      case Class::Fresh:
        break;
    }
    books_.observed.emplace(p.entry, block);
    return "";
  }

  serve::VerifyService& service_;
  const Inputs& in_;
  Books& books_;
  Failures& fail_;
  bool traced_;
  CpuRotation* rotation_;  // moved on at the start of each block
  RunResult* out_ = nullptr;
  Wire wire_;
  serve::FrameBuffer server_in_;
  serve::FrameBuffer client_in_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Pending>> pending_;
  std::uint64_t ids_ = 0;
};

}  // namespace

RunResult run_fleet(const Options& opt, Failures& fail) {
  RunResult out;
  out.tail_cap = 0.99;
  // One block of the mix warms up; the run measures `blocks` more (about
  // 12 blocks a second when the benchmark was defined).
  const std::size_t blocks = units_for(opt, 1.0 / 12, 100);

  struct Prepared {
    Inputs in;
    Books books;
    std::unique_ptr<serve::VerifyService> service;
    std::size_t next = 0;  // first mix item after the warm-up block
  };
  const auto prepare = [&] {
    Prepared p;
    p.in = make_inputs(opt, blocks + 1);
    serve::ServiceOptions so;
    so.jobs = 1;  // requests come one item at a time
    p.service = std::make_unique<serve::VerifyService>(so);
    // Pre-warm the memo and the store with the catalog, then run the first
    // items of the mix to reach the steady state.
    std::vector<Item> catalog_items;
    for (std::size_t i = 0; i < p.in.catalog; ++i) {
      catalog_items.push_back({Class::Popular, i, 1});
    }
    Loop warm(*p.service, p.in, p.books, fail, false);
    std::size_t k = 0;
    warm.run(catalog_items, k, catalog_items.size(), INT64_MAX, nullptr);
    warm.run(p.in.mix, p.next, p.in.block_items, INT64_MAX, nullptr);
    return p;
  };
  Prepared prep;
  time_setup(out, [&] { prep = prepare(); });
  constexpr std::size_t kSetupRepeats = 8;  // inside the measured phase
  Inputs& in = prep.in;
  Books& books = prep.books;
  std::unique_ptr<serve::VerifyService>& service = prep.service;
  std::size_t& next = prep.next;

  const serve::ServiceStats& st = service->stats();
  const store::CacheStats& cs = service->cache().stats();
  const auto snap = [&] {
    return std::vector<std::uint64_t>{
        st.received.load(),       st.memo_hits.load(),
        st.coalesced.load(),      st.shed.load(),
        st.engine_runs.load(),    cs.verdict_hits.load(),
        cs.verdict_misses.load(), cs.lts_hits.load(),
        cs.lts_misses.load(),     cs.memory_hits.load(),
        cs.disk_hits.load(),      cs.stores.load()};
  };
  const std::vector<std::uint64_t> before = snap();
  const std::size_t first_measured = next;
  {
    std::optional<ForwardingCache> timed;
    std::optional<ScopedCheckCache> over;
    if (opt.trace) {
      timed.emplace(service->cache());
      over.emplace(&*timed);
    }
    // Two CPUs: the generator sends a burst's members while the worker
    // runs their flight, instead of waiting for the worker's time slice.
    CpuRotation rotation(2);
    MeasuredPhase phase(opt, out);
    Loop loop(*service, in, books, fail, opt.trace, &rotation);
    // The blocks in kSetupRepeats equal parts, each followed by a set-up.
    const std::size_t measured_blocks =
        (in.mix.size() - first_measured) / in.block_items;
    for (std::size_t part = 1; part <= kSetupRepeats; ++part) {
      const std::size_t end =
          first_measured +
          measured_blocks * part / kSetupRepeats * in.block_items;
      loop.run(in.mix, next, end, time_cap_ns(opt) - phase.elapsed_ns(),
               &out);
      if (next < end) break;  // time cap
      phase.setup([&] { (void)prepare(); });
    }
    if (next < in.mix.size()) {
      out.notes.push_back("time cap reached after " +
                          std::to_string(next - first_measured) + " of " +
                          std::to_string(in.mix.size() - first_measured) +
                          " mix items");
    }
  }
  const std::vector<std::uint64_t> after = snap();
  std::vector<double> d(before.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] = static_cast<double>(after[i] - before[i]);
  }
  const double received = std::max(1.0, d[0]);
  out.layer = {{"serve.memo_hit_ratio", d[1] / received},
               {"serve.coalesced_ratio", d[2] / received},
               {"serve.shed_ratio", d[3] / received},
               {"serve.engine_runs", d[4]}};
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "service (measured phase): %.0f received, %.0f memo hits, "
                "%.0f coalesced, %.0f shed, %.0f engine runs on %u jobs; "
                "store: %.0f verdict hits / %.0f misses, %.0f LTS hits / "
                "%.0f misses, %.0f memory + %.0f disk hits, %.0f stores; "
                "%zu of %zu variants served from the store",
                d[0], d[1], d[2], d[3], d[4], service->jobs(), d[5], d[6],
                d[7], d[8], d[9], d[10], d[11], books.store_served,
                books.variants);
  out.notes.push_back(buf);
  service.reset();  // drains and joins the workers

  // Solo sweeps after timing: each request on a fresh service with no
  // memo and an empty store must produce the very block the fleet got.
  const auto solo = [](const serve::CheckRequest& req) {
    serve::ServiceOptions so;
    so.jobs = 1;
    so.memo_capacity = 0;
    serve::VerifyService fresh(so);
    return fresh.serve(req).verdict_block();
  };
  std::size_t compared = 0;
  for (const auto& [entry, block] : books.solo) {
    if (solo(in.entries[entry].req) != block) {
      fail.add("catalog " + in.entries[entry].label +
               ": memo/pre-warm block differs from a solo sweep");
    }
    ++compared;
  }
  std::size_t variants = 0;
  std::size_t bursts = 0;
  for (std::size_t i = first_measured; i < next; ++i) {
    const Item& item = in.mix[i];
    std::size_t* seen = item.cls == Class::Variant ? &variants
                        : item.cls == Class::Burst ? &bursts
                                                   : nullptr;
    if (!seen || *seen >= kSoloChecks) continue;
    const auto it = books.observed.find(item.entry);
    if (it == books.observed.end()) continue;
    ++*seen;
    ++compared;
    if (solo(in.entries[item.entry].req) != it->second) {
      fail.add(std::string(to_string(item.cls)) + " " +
               in.entries[item.entry].label +
               ": block differs from a solo sweep");
    }
  }
  std::map<std::string, std::string> verdicts;
  for (const auto& [entry, block] : books.observed) {
    verdicts.emplace(in.entries[entry].digest_hex, block);
  }
  set_verdicts(out, verdicts);
  out.notes.push_back("solo sweeps after the run: " + std::to_string(compared) +
                      " blocks compared (" + std::to_string(variants) +
                      " store-served variants, " + std::to_string(bursts) +
                      " coalesced bursts, the rest catalog memo entries)");

  return out;
}

}  // namespace perfbench
