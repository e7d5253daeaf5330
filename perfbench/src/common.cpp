#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <unordered_map>

#include <malloc.h>
#include <sched.h>
#include <stdlib.h>  // mkdtemp
#include <sys/resource.h>

#include "bench.hpp"
#include "refine/lts.hpp"
#include "store/digest.hpp"

namespace perfbench {

using namespace ecucsp;

std::atomic<Tracer*> g_tracer{nullptr};

void RunResult::add_latency(const std::string& kind, std::int64_t t0,
                            std::int64_t t1) {
  const auto [it, fresh] = kind_index_.emplace(
      kind, static_cast<std::uint32_t>(kind_names.size()));
  if (fresh) kind_names.push_back(kind);
  kinds.push_back(it->second);
  latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
}

// --- memory --------------------------------------------------------------------

void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // Linux >= 4.0: reset VmHWM to the current RSS
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

// --- failures ----------------------------------------------------------------

void Failures::add(std::string why) {
  std::lock_guard lk(mu_);
  ++count_;
  if (first_.size() < 8) first_.push_back(std::move(why));
}

// --- percentiles -------------------------------------------------------------

Percentile percentile(const std::vector<double>& sorted, double q) {
  Percentile p;
  p.q = q;
  if (sorted.empty()) return p;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  p.value = sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  p.beyond = sorted.size() - 1 - hi;
  return p;
}

Percentile tail_percentile(const std::vector<double>& sorted, double cap) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.8, 0.75, 0.5};
  for (const double q : kLadder) {
    if (q > cap + 1e-12) continue;
    const Percentile p = percentile(sorted, q);
    if (p.beyond >= 10) return p;
  }
  return percentile(sorted, 0.5);
}

// --- tracing -----------------------------------------------------------------

TraceContext& thread_context() {
  thread_local TraceContext ctx;
  return ctx;
}

void Tracer::record(const SpanRecord& s) {
  std::lock_guard lk(mu_);
  spans_.push_back(s);
}

void Tracer::count(const std::string& name, double v) {
  std::lock_guard lk(mu_);
  counters_[name] += v;
}

std::map<std::string, double> Tracer::counters() const {
  std::lock_guard lk(mu_);
  return counters_;
}

namespace {

/// One request's spans as a tree, for self-time attribution.
class SpanTree {
 public:
  explicit SpanTree(const std::vector<const SpanRecord*>& spans) {
    for (const SpanRecord* s : spans) kids_[s->parent].push_back(s);
    for (auto& [parent, list] : kids_) {
      std::sort(list.begin(), list.end(),
                [](const SpanRecord* a, const SpanRecord* b) {
                  return a->start != b->start ? a->start < b->start
                                              : a->end < b->end;
                });
    }
  }

  /// Attributes [lo, hi) of the children of `parent` (each clipped to what
  /// its earlier siblings left uncovered) and returns the time they cover.
  /// What clipping takes off a span is added to `clipped` under its name.
  std::int64_t attribute_children(
      std::uint64_t parent, std::int64_t lo, std::int64_t hi,
      std::map<std::string, double>& self,
      std::map<std::string, double>& clipped) const {
    const auto it = kids_.find(parent);
    if (it == kids_.end()) return 0;
    std::int64_t cursor = lo;
    std::int64_t covered = 0;
    for (const SpanRecord* k : it->second) {
      const std::int64_t klo = std::max(k->start, cursor);
      const std::int64_t khi = std::min(k->end, hi);
      const std::int64_t kept = std::max<std::int64_t>(0, khi - klo);
      if (kept < k->end - k->start) {
        clipped[k->name] += static_cast<double>(k->end - k->start - kept);
      }
      if (kept == 0) continue;
      const std::int64_t inner =
          attribute_children(k->id, klo, khi, self, clipped);
      self[k->name] += static_cast<double>(kept - inner);
      covered += kept;
      cursor = khi;
    }
    return covered;
  }

 private:
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> kids_;
};

}  // namespace

Tracer::Analysis Tracer::analyse() const {
  std::lock_guard lk(mu_);
  Analysis a;
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> by_req;
  for (const SpanRecord& s : spans_) by_req[s.request].push_back(&s);

  struct PerRequest {
    const char* label = "";
    double total_ns = 0;
    std::map<std::string, double> self_ns;
  };
  std::vector<PerRequest> reqs;
  double total_ns = 0;
  double residual_ns = 0;
  double clipped_total_ns = 0;
  std::map<std::string, double> self_ns;
  std::map<std::string, double> clipped_ns;
  for (const auto& [request, spans] : by_req) {
    // A request counts only if its root span was recorded.
    const auto root = std::find_if(
        spans.begin(), spans.end(),
        [id = root_id(request)](const SpanRecord* s) { return s->id == id; });
    if (root == spans.end()) continue;
    const SpanTree tree(spans);
    PerRequest one;
    one.label = (*root)->name;
    std::map<std::string, double> clipped;
    const std::int64_t total = (*root)->end - (*root)->start;
    const std::int64_t covered =
        tree.attribute_children((*root)->id, (*root)->start, (*root)->end,
                                one.self_ns, clipped);
    const double residual = static_cast<double>(total - covered);
    one.total_ns = static_cast<double>(total);
    total_ns += one.total_ns;
    residual_ns += residual;
    for (const auto& [name, ns] : one.self_ns) self_ns[name] += ns;
    double clipped_sum = 0;
    for (const auto& [name, ns] : clipped) {
      clipped_ns[name] += ns;
      clipped_sum += ns;
    }
    clipped_total_ns += clipped_sum;
    if (clipped_sum / 1e6 > a.max_clipped_ms) {
      a.max_clipped_ms = clipped_sum / 1e6;
      a.max_clipped_label = one.label;
    }
    one.self_ns["residual"] = residual;
    reqs.push_back(std::move(one));
  }
  a.requests = reqs.size();
  if (reqs.empty()) return a;
  const double n = static_cast<double>(reqs.size());
  a.request_ms = total_ns / n / 1e6;
  a.residual_ms = residual_ns / n / 1e6;
  a.clipped_total_ms = clipped_total_ns / n / 1e6;
  for (const auto& [name, ns] : self_ns) a.self_ms[name] = ns / n / 1e6;
  for (const auto& [name, ns] : clipped_ns) a.clipped_ms[name] = ns / n / 1e6;
  for (const PerRequest& one : reqs) {
    Analysis::Class& c = a.classes[one.label];
    ++c.requests;
    c.request_ms += one.total_ns / 1e6;
    for (const auto& [name, ns] : one.self_ns) c.self_ms[name] += ns / 1e6;
  }
  for (auto& [label, c] : a.classes) {
    const double k = static_cast<double>(c.requests);
    c.request_ms /= k;
    for (auto& [name, ms] : c.self_ms) ms /= k;
  }

  // Breakdown of the requests around the median latency.
  std::sort(reqs.begin(), reqs.end(),
            [](const PerRequest& x, const PerRequest& y) {
              return x.total_ns < y.total_ns;
            });
  const std::size_t mid = reqs.size() / 2;
  const std::size_t half = std::max<std::size_t>(1, reqs.size() / 40);
  const std::size_t lo = mid >= half ? mid - half : 0;
  const std::size_t hi = std::min(reqs.size(), mid + half + 1);
  double window_total = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    window_total += reqs[i].total_ns;
    for (const auto& [name, ns] : reqs[i].self_ns) {
      a.median_request_ms[name] += ns;
    }
  }
  const double w = static_cast<double>(hi - lo);
  for (auto& [name, ns] : a.median_request_ms) ns = ns / w / 1e6;
  a.median_request_total_ms = window_total / w / 1e6;
  return a;
}

RequestScope::RequestScope(std::uint64_t request) : saved_(thread_context()) {
  thread_context() = {request, root_id(request)};
}

RequestScope::~RequestScope() { thread_context() = saved_; }

Span::Span(const char* name) : tracer_(armed_tracer()) {
  if (!tracer_) return;
  TraceContext& tc = thread_context();
  rec_.name = name;
  rec_.request = tc.request;
  rec_.id = tracer_->next_id();
  rec_.parent = tc.parent;
  saved_parent_ = tc.parent;
  tc.parent = rec_.id;
  rec_.start = now_ns();
}

Span::~Span() {
  if (!tracer_) return;
  rec_.end = now_ns();
  thread_context().parent = saved_parent_;
  tracer_->record(rec_);
}

void record_interval(const char* name, std::uint64_t request,
                     std::int64_t start, std::int64_t end) {
  Tracer* t = armed_tracer();
  if (!t) return;
  SpanRecord s;
  s.name = name;
  s.request = request;
  s.id = t->next_id();
  s.parent = root_id(request);
  s.start = start;
  s.end = end;
  t->record(s);
}

void record_request(std::uint64_t request, std::int64_t start,
                    std::int64_t end, const char* label) {
  Tracer* t = armed_tracer();
  if (!t) return;
  SpanRecord s;
  s.name = label;
  s.request = request;
  s.id = root_id(request);
  s.start = start;
  s.end = end;
  t->record(s);
}

// --- forwarding store ----------------------------------------------------------

namespace {
thread_local CancelToken* t_cancel = nullptr;
}  // namespace

CancelScope::CancelScope(CancelToken& token) : saved_(t_cancel) {
  t_cancel = &token;
}

CancelScope::~CancelScope() { t_cancel = saved_; }

CancelToken* current_cancel() { return t_cancel; }

std::optional<CheckResult> ForwardingCache::lookup_check(
    Context& ctx, ProcessRef spec, ProcessRef impl, CheckOp op, Model model,
    std::size_t max_states) {
  std::optional<CheckResult> r;
  {
    const Span s("store.lookup");
    r = inner_.lookup_check(ctx, spec, impl, op, model, max_states);
  }
  trace_count("store.lookups", 1);
  if (r) trace_count("store.hits", 1);
  return r;
}

void ForwardingCache::store_check(Context& ctx, ProcessRef spec,
                                  ProcessRef impl, CheckOp op, Model model,
                                  std::size_t max_states,
                                  const CheckResult& result) {
  const Span s("store.write");
  inner_.store_check(ctx, spec, impl, op, model, max_states, result);
}

std::optional<Lts> ForwardingCache::lookup_lts(Context& ctx, ProcessRef root,
                                               std::size_t max_states) {
  std::optional<Lts> r;
  {
    const Span s("store.lookup");
    r = inner_.lookup_lts(ctx, root, max_states);
  }
  trace_count("store.lookups", 1);
  if (r) {
    trace_count("store.hits", 1);
    return r;
  }
  Lts lts = traced_compile(ctx, root, max_states, current_cancel());
  {
    const Span s("store.write");
    inner_.store_lts(ctx, root, max_states, lts);
  }
  return lts;
}

void ForwardingCache::store_lts(Context& ctx, ProcessRef root,
                                std::size_t max_states, const Lts& lts) {
  const Span s("store.write");
  inner_.store_lts(ctx, root, max_states, lts);
}

Lts traced_compile(Context& ctx, ProcessRef root, std::size_t max_states,
                   CancelToken* cancel) {
  Lts lts;
  {
    const Span s("refine.compile");
    lts = compile_lts(ctx, root, max_states, cancel);
  }
  trace_count("refine.states", static_cast<double>(lts.state_count()));
  trace_count("refine.transitions",
              static_cast<double>(lts.transition_count()));
  return lts;
}

namespace {

/// compile_or_load of refine/check.cpp, through the public hooks.
Lts load_or_compile(Context& ctx, ProcessRef root, std::size_t max_states,
                    CancelToken* cancel) {
  CheckCache* const cache = check_cache();
  if (cache) {
    if (auto lts = cache->lookup_lts(ctx, root, max_states)) {
      return std::move(*lts);
    }
  }
  Lts lts = traced_compile(ctx, root, max_states, cancel);
  if (cache) cache->store_lts(ctx, root, max_states, lts);
  return lts;
}

}  // namespace

CheckResult traced_refinement(Context& ctx, ProcessRef spec, ProcessRef impl,
                              Model model, std::size_t max_states,
                              CancelToken* cancel, RefinementMachines& m) {
  CheckCache* const cache = check_cache();
  if (cache) {
    if (auto hit = cache->lookup_check(ctx, spec, impl, CheckOp::Refinement,
                                       model, max_states)) {
      hit->from_cache = true;
      return std::move(*hit);
    }
  }
  m.spec = load_or_compile(ctx, spec, max_states, cancel);
  {
    const Span s("refine.normalize");
    m.norm = normalize(m.spec, model == Model::FailuresDivergences, cancel);
  }
  trace_count("refine.norm_nodes", static_cast<double>(m.norm.nodes.size()));
  m.impl = load_or_compile(ctx, impl, max_states, cancel);
  {
    const Span s("refine.compact");
    m.compact = compact_from_lts(m.impl);
  }
  CheckResult result;
  {
    const Span s("refine.sweep");
    result = check_refinement_compiled(m.norm, m.compact, model, 0, cancel,
                                       Compression::None);
  }
  trace_count("refine.product_states",
              static_cast<double>(result.stats.product_states));
  result.stats.spec_states = m.spec.state_count();
  if (cache) {
    cache->store_check(ctx, spec, impl, CheckOp::Refinement, model,
                       max_states, result);
  }
  return result;
}

// --- helpers -------------------------------------------------------------------

std::optional<std::size_t> trace_length(std::string_view cx) {
  const std::size_t open = cx.find('<');
  if (open == std::string_view::npos) return std::nullopt;
  const std::size_t close = cx.find('>', open);
  if (close == std::string_view::npos) return std::nullopt;
  const std::string_view body = cx.substr(open + 1, close - open - 1);
  if (body.empty()) return 0;
  return static_cast<std::size_t>(std::count(body.begin(), body.end(), ',')) + 1;
}

std::string first_event(std::string_view cx) {
  const std::size_t open = cx.find('<');
  if (open == std::string_view::npos) return "";
  const std::size_t end = cx.find_first_of(",>", open);
  if (end == std::string_view::npos) return "";
  return std::string(cx.substr(open + 1, end - open - 1));
}

TempDir::TempDir(const std::filesystem::path& parent, std::string_view stem) {
  std::filesystem::create_directories(parent);
  std::string tmpl = (parent / (std::string(stem) + "-XXXXXX")).string();
  if (!::mkdtemp(tmpl.data())) {
    throw std::runtime_error("cannot create a temp dir under " +
                             parent.string());
  }
  path_ = tmpl;
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

namespace {

/// Sets the CPUs of every thread of this process.
void pin_process(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    ::sched_setaffinity(tid, sizeof set, &set);  // a thread may just exit
  }
}

}  // namespace

CpuRotation::CpuRotation(std::size_t width) : width_(width) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) pin_process(cpus_);
}

void CpuRotation::next() {
  if (cpus_.size() <= width_) return;
  std::vector<int> pick;
  for (std::size_t i = 0; i < width_; ++i) {
    pick.push_back(cpus_[(turn_ + i) % cpus_.size()]);
  }
  ++turn_;
  pin_process(pick);
}

std::size_t units_for(const Options& opt, double nominal_unit_s,
                      std::size_t min_units) {
  return std::max(min_units, static_cast<std::size_t>(
                                 std::llround(opt.seconds / nominal_unit_s)));
}

std::string tag36(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdefghijklmnopqrstuvwxyz";
  std::string out;
  do {
    out += kDigits[v % 36];
    v /= 36;
  } while (v != 0);
  return out;
}

CheckVerdict verdict_of(verify::TaskOutcome o) {
  CheckVerdict v;
  v.completed = o.status == verify::TaskStatus::Passed ||
                o.status == verify::TaskStatus::Failed;
  v.passed = o.passed();
  v.counterexample = std::move(o.counterexample);
  v.error = o.error.empty() ? std::string(verify::to_string(o.status))
                            : std::move(o.error);
  return v;
}

void set_verdicts(RunResult& out,
                  const std::map<std::string, std::string>& verdicts) {
  store::Hasher h;
  for (const auto& [key, verdict] : verdicts) h.str(key).str(verdict);
  out.verdicts = h.finish().hex().substr(0, 16);
  out.verdict_count = verdicts.size();
}

}  // namespace perfbench
