// Shared machinery of the ecucsp benchmark: options, per-request latency
// records, percentile summaries, the span tracer, and the forwarding store
// that times the verification store from outside the program.
//
// The benchmark never changes the program under test. Every timing here is
// taken around a call into a module's public function, from this
// directory's own files; span names are "<module>.<step>" so an in-program
// profiler can later report under the same names.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.hpp"
#include "refine/check.hpp"
#include "verify/task.hpp"

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (wall time).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path tmp;      // temporary space owned by this run
  std::filesystem::path root;     // checkout root (examples/models/...)
  std::filesystem::path records;  // untraced results, for the overhead line
  Tracer* tracer = nullptr;       // set for a traced run
};

/// What one workload run hands back to main for reporting.
struct RunResult {
  std::vector<double> latency_ms;    // one per measured request
  std::vector<std::uint32_t> kinds;  // each request's index in kind_names
  std::vector<std::string> kind_names;
  std::uint64_t attempted = 0;
  double measured_s = 0;             // wall time of the measured phase
  double peak_rss_mb = 0;          // peak RSS of the measured phase
  std::vector<double> setup_s;     // one per repeated set-up
  double tail_cap = 0.99;          // highest percentile the mix allows
  std::map<std::string, double> layer;  // per-layer metrics (traced run)
  std::vector<std::string> notes;       // informational lines
  /// Digest of the verdicts and counterexamples the run returned, and how
  /// many distinct requests it covers; a traced run must match the
  /// untraced run of the same seed (see verdicts_digest).
  std::string verdicts;
  std::size_t verdict_count = 0;

  /// Records one measured request of `kind` that ran from t0 to t1 (ns).
  /// Requests of one kind do the same work: the same check of a model that
  /// differs at most in its names, or the same log.
  void add_latency(const std::string& kind, std::int64_t t0, std::int64_t t1);

 private:
  std::map<std::string, std::uint32_t> kind_index_;
};

// --- failures ----------------------------------------------------------------

/// Records why a request failed; the first few reasons are printed.
class Failures {
 public:
  void add(std::string why);
  std::uint64_t count() const { return count_; }
  const std::vector<std::string>& first() const { return first_; }

 private:
  std::mutex mu_;
  std::uint64_t count_ = 0;
  std::vector<std::string> first_;
};

// --- percentiles -------------------------------------------------------------

struct Percentile {
  double q = 0.5;
  double value = 0;
  std::size_t beyond = 0;  // samples ranked strictly above the estimate
};

/// Linear-interpolated percentile of `sorted` (ascending).
Percentile percentile(const std::vector<double>& sorted, double q);

/// The highest of {0.999, 0.99, 0.95, 0.9, 0.8, 0.75, 0.5} not above `cap`
/// that leaves at least ten samples beyond it.
Percentile tail_percentile(const std::vector<double>& sorted, double cap);

// --- tracing -----------------------------------------------------------------

struct SpanRecord {
  const char* name = "";
  std::uint64_t request = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Root span id of a request: distinct from every counter-assigned id.
inline std::uint64_t root_id(std::uint64_t request) {
  return (std::uint64_t{1} << 63) | request;
}

/// In-memory span store. Spans are appended under a mutex and analysed when
/// the measured phase is over; nothing is written while requests run.
class Tracer {
 public:
  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }
  void record(const SpanRecord& s);
  void count(const std::string& name, double v);

  /// Per-layer self time (ms per request) and residual. A span's self time
  /// is its duration minus what its children cover. A child overlapping an
  /// earlier sibling (or reaching outside its parent) is clipped, so per
  /// request the self times plus the residual equal the request time by
  /// construction; the clipped time is reported per layer, because it is
  /// time two spans both claimed and only the earlier one was credited.
  struct Analysis {
    std::size_t requests = 0;
    std::map<std::string, double> self_ms;  // span name -> ms per request
    double request_ms = 0;                  // mean request time
    double residual_ms = 0;                 // mean unattributed time
    std::map<std::string, double> clipped_ms;  // span name -> ms per request
    double clipped_total_ms = 0;            // mean clipped time per request
    double max_clipped_ms = 0;              // worst request's clipped time
    std::string max_clipped_label;          // that request's class
    /// Mean self time per layer over the requests whose latency lies
    /// within ±2.5% of rank of the median request.
    std::map<std::string, double> median_request_ms;
    double median_request_total_ms = 0;
    /// Per request class: count, mean request time, mean self times.
    struct Class {
      std::size_t requests = 0;
      double request_ms = 0;
      std::map<std::string, double> self_ms;
    };
    std::map<std::string, Class> classes;
  };
  Analysis analyse() const;
  std::map<std::string, double> counters() const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, double> counters_;
  std::atomic<std::uint64_t> ids_{0};
};

/// The armed tracer, or null outside a traced measured phase: every Span is
/// then a no-op.
extern std::atomic<Tracer*> g_tracer;
inline Tracer* armed_tracer() {
  return g_tracer.load(std::memory_order_acquire);
}

/// Returns the set-up's freed heap to the system and restarts the kernel's
/// peak-RSS mark, so peak_rss_mb() reports the measured phase alone and not
/// the set-up before it.
void reset_peak_rss();
/// Peak resident set (VmHWM) since reset_peak_rss(), in MiB.
double peak_rss_mb();

/// Runs `setup`, one complete set-up of a workload, and appends its
/// duration to out.setup_s.
template <typename F>
void time_setup(RunResult& out, F&& setup) {
  const std::int64_t t0 = now_ns();
  setup();
  out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
}

/// The measured phase of a run, from construction to destruction: resets
/// the peak-RSS mark, arms the run's tracer (if any) and, on destruction,
/// sets out.measured_s and out.peak_rss_mb.
///
/// Workloads repeat their set-up several times in a run and setup_s is the
/// median of the repetitions: ladder, protocols and fleet at even intervals
/// inside the phase (setup()), which leaves the repetitions out of the
/// measured times and of the trace; replay, whose log synthesis needs more
/// memory than its requests, before the phase.
class MeasuredPhase {
 public:
  MeasuredPhase(const Options& opt, RunResult& out)
      : opt_(opt), out_(out), start_(now_ns()) {
    reset_peak_rss();
    g_tracer.store(opt.tracer, std::memory_order_release);
  }
  ~MeasuredPhase() {
    g_tracer.store(nullptr, std::memory_order_release);
    out_.measured_s =
        static_cast<double>(now_ns() - start_ - paused_ns_) / 1e9;
    out_.peak_rss_mb = peak_rss_mb();
  }
  MeasuredPhase(const MeasuredPhase&) = delete;
  MeasuredPhase& operator=(const MeasuredPhase&) = delete;

  /// Wall time since the phase started, set-ups included (for time caps).
  std::int64_t elapsed_ns() const { return now_ns() - start_; }

  /// Repeats the workload's set-up (see the class comment). Its memory
  /// must stay below the phase's own peak: it counts towards peak RSS.
  template <typename F>
  void setup(F&& f) {
    g_tracer.store(nullptr, std::memory_order_release);
    const std::int64_t t0 = now_ns();
    time_setup(out_, f);
    paused_ns_ += now_ns() - t0;
    g_tracer.store(opt_.tracer, std::memory_order_release);
  }

 private:
  const Options& opt_;
  RunResult& out_;
  std::int64_t start_;
  std::int64_t paused_ns_ = 0;
};

/// Which request and parent span new spans on this thread belong to.
struct TraceContext {
  std::uint64_t request = 0;
  std::uint64_t parent = 0;
};
TraceContext& thread_context();

/// Sets this thread's request (and root parent) for its lifetime.
class RequestScope {
 public:
  explicit RequestScope(std::uint64_t request);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  TraceContext saved_;
};

/// RAII span around one call into a module.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_ = nullptr;  // the tracer armed when the span opened
  SpanRecord rec_;
  std::uint64_t saved_parent_ = 0;
};

/// Records a closed interval measured by hand (e.g. a queue wait) as a
/// top-level span of `request`.
void record_interval(const char* name, std::uint64_t request,
                     std::int64_t start, std::int64_t end);
/// Records the root span of `request`, submission to checked verdict;
/// `label` (a string literal) names the request's class in the breakdown.
void record_request(std::uint64_t request, std::int64_t start,
                    std::int64_t end, const char* label);

inline void trace_count(const char* name, double v) {
  if (Tracer* t = armed_tracer()) t->count(name, v);
}

// --- forwarding store ----------------------------------------------------------

/// Makes `token` the cancel token of the request running on this thread for
/// the scope's lifetime, so work done on the request's behalf outside its
/// own call chain (the forwarding store's compiles) obeys its timeout.
class CancelScope {
 public:
  explicit CancelScope(ecucsp::CancelToken& token);
  ~CancelScope();
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  ecucsp::CancelToken* saved_;
};
/// The innermost CancelScope's token on this thread, or null.
ecucsp::CancelToken* current_cancel();

/// A CheckCache installed with set_check_cache on top of the store the
/// service or CLI default installed. It times every lookup and write
/// ("store.lookup", "store.write") and counts hits.
///
/// An LTS-tier miss is compiled here, under a "refine.compile" span and the
/// request's CancelScope token, stored in the inner cache and handed back
/// through lookup_lts — so the engine's own check span is left with only
/// the work that follows compilation. That is the traced run's way to
/// separate compile time for checks that have no public compiled entry
/// point.
class ForwardingCache final : public ecucsp::CheckCache {
 public:
  explicit ForwardingCache(ecucsp::CheckCache& inner) : inner_(inner) {}

  std::optional<ecucsp::CheckResult> lookup_check(
      ecucsp::Context& ctx, ecucsp::ProcessRef spec, ecucsp::ProcessRef impl,
      ecucsp::CheckOp op, ecucsp::Model model,
      std::size_t max_states) override;
  void store_check(ecucsp::Context& ctx, ecucsp::ProcessRef spec,
                   ecucsp::ProcessRef impl, ecucsp::CheckOp op,
                   ecucsp::Model model, std::size_t max_states,
                   const ecucsp::CheckResult& result) override;
  std::optional<ecucsp::Lts> lookup_lts(ecucsp::Context& ctx,
                                        ecucsp::ProcessRef root,
                                        std::size_t max_states) override;
  void store_lts(ecucsp::Context& ctx, ecucsp::ProcessRef root,
                 std::size_t max_states, const ecucsp::Lts& lts) override;

 private:
  ecucsp::CheckCache& inner_;
};

/// compile_lts under a "refine.compile" span, counting states/transitions.
ecucsp::Lts traced_compile(ecucsp::Context& ctx, ecucsp::ProcessRef root,
                           std::size_t max_states,
                           ecucsp::CancelToken* cancel);

/// The machines one refinement builds; the caller frees them (with the
/// request's Context) under a "core.teardown" span.
struct RefinementMachines {
  ecucsp::Lts spec;
  ecucsp::Lts impl;
  ecucsp::NormLts norm;
  ecucsp::CompactLts compact;
};

/// check_refinement's uncompressed path, one public call per span: the
/// installed cache's verdict and LTS tiers, compile_lts ("refine.compile"),
/// normalize ("refine.normalize"), compact_from_lts ("refine.compact") and
/// check_refinement_compiled ("refine.sweep"). Same verdict, counterexample
/// and stats as check_refinement with Compression::None.
ecucsp::CheckResult traced_refinement(ecucsp::Context& ctx,
                                      ecucsp::ProcessRef spec,
                                      ecucsp::ProcessRef impl,
                                      ecucsp::Model model,
                                      std::size_t max_states,
                                      ecucsp::CancelToken* cancel,
                                      RefinementMachines& machines);

// --- helpers -------------------------------------------------------------------

/// Length of the first "<...>" event trace in a rendered counterexample;
/// nullopt when the text carries none.
std::optional<std::size_t> trace_length(std::string_view cx);
/// First event of that trace ("" when empty or absent).
std::string first_event(std::string_view cx);

/// A directory under the run's temporary space, removed on destruction.
class TempDir {
 public:
  TempDir(const std::filesystem::path& parent, std::string_view stem);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// The repository's splitmix64 stream, for the workload generators (seeded
/// from --seed).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(ecucsp::core::seed_state(seed)) {}
  std::uint64_t next() { return ecucsp::core::splitmix64(s_); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t s_;
};

/// Base-36 tag for per-request channel names.
std::string tag36(std::uint64_t v);

/// A check's outcome, reduced to what the known-answer checks read.
struct CheckVerdict {
  bool completed = false;  // Passed or Failed, not an error or timeout
  bool passed = false;
  std::string counterexample;
  std::string error;
};
CheckVerdict verdict_of(ecucsp::verify::TaskOutcome o);

/// Sets out.verdicts to a digest of `verdicts` (request key -> verdict and
/// counterexample) and out.verdict_count to its size. The untraced run
/// records them; the traced run of the same seed must reproduce them.
void set_verdicts(RunResult& out,
                  const std::map<std::string, std::string>& verdicts);

/// Units of work (rounds of a workload's mix) one run measures. A run's
/// length is fixed by --seconds at the workload's nominal speed, so the two
/// commits of a comparison do identical work and see identical mixes.
std::size_t units_for(const Options& opt, double nominal_unit_s,
                      std::size_t min_units);

/// A program far slower than nominal stops starting work after this long.
inline std::int64_t time_cap_ns(const Options& opt) {
  return static_cast<std::int64_t>(4 * opt.seconds * 1e9);
}

/// Moves the whole process to the next `width` CPUs of the set it may use,
/// in turn, on each call to next(), and gives every thread its CPU set back
/// on destruction. Threads a request starts inherit the CPUs of the thread
/// that starts them.
///
/// One virtual CPU of the shared host can run a third slower than another
/// for tens of seconds, and a run that the scheduler leaves on one CPU
/// measures that CPU. Turned over all of them, each kind of request runs on
/// every CPU in a run, and its fastest repetition (see fastest_of_kind in
/// main.cpp) comes from a CPU that was not slowed down at the time.
class CpuRotation {
 public:
  explicit CpuRotation(std::size_t width);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins every thread of the process to the next `width` CPUs.
  void next();

 private:
  std::vector<int> cpus_;
  std::size_t width_;
  std::size_t turn_ = 0;
};

/// Whether a set-up repetition is due after the `done`-th of `total`
/// measured requests, so that `repeats` of them fall at even intervals, the
/// last after the last request.
inline bool setup_due(std::size_t done, std::size_t total,
                      std::size_t repeats) {
  return done * repeats / total != (done - 1) * repeats / total;
}

// --- workloads -----------------------------------------------------------------

RunResult run_ladder(const Options& opt, Failures& fail);
RunResult run_protocols(const Options& opt, Failures& fail);
RunResult run_fleet(const Options& opt, Failures& fail);
RunResult run_replay(const Options& opt, Failures& fail);

}  // namespace perfbench
