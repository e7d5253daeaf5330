// Context: one self-contained CSP universe.
//
// A Context owns the symbol table, the channel/event interner, the process
// term arena (with hash-consing) and the environment of named process
// definitions, and implements the structural operational semantics
// (Context::transitions). Everything downstream — LTS compilation,
// normalisation, refinement checking, the CSPm evaluator, the CAPL model
// extractor — works against a Context.
//
// Threading contract — this is what makes src/verify's task-level
// parallelism lock-free:
//   * A Context is deliberately NOT thread-safe. Every method, including
//     const ones, may touch the interner/arena caches.
//   * One verification task = one Context, built and destroyed on the
//     worker thread that runs the task. Nothing that borrows from a
//     Context (ProcessRef, EventId, Counterexample) may outlive it or
//     cross to another thread; flatten to plain strings first (see
//     verify::render). A compiled CompactLts or NormLts holds no term
//     pointers and stays usable as plain data, but its event ids mean
//     something only to the Context that compiled it.
//   * Run independent checks on independent Contexts. Two threads may each
//     own a Context; two threads must never share one, even read-only.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/event.hpp"
#include "core/process.hpp"
#include "core/value.hpp"

namespace ecucsp {

using ChannelId = std::uint32_t;

/// Declared channel: a name plus a finite domain per data field.
/// The full per-field domains let us enumerate {| c |} productions exactly
/// as CSPm does.
struct ChannelDecl {
  Symbol name = 0;
  std::vector<std::vector<Value>> field_domains;
};

/// Thrown on malformed models: unknown names, events outside a channel's
/// domain, or unguarded recursion (P = P with no intervening event).
class ModelError : public std::runtime_error {
 public:
  explicit ModelError(const std::string& what) : std::runtime_error(what) {}
};

class Context {
 public:
  Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // --- symbols -----------------------------------------------------------
  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }
  Symbol sym(std::string_view text) { return symbols_.intern(text); }

  // --- channels and events ----------------------------------------------
  /// Declare (or fetch, if identically re-declared) a channel.
  ChannelId channel(std::string_view name,
                    std::vector<std::vector<Value>> field_domains = {});
  std::optional<ChannelId> find_channel(std::string_view name) const;
  const ChannelDecl& channel_decl(ChannelId id) const { return channels_.at(id); }
  std::size_t channel_count() const { return channels_.size(); }

  /// Intern the event `chan.fields...`. Fields must lie in the declared
  /// domains (this catches typos in hand-built models early).
  EventId event(ChannelId chan, std::vector<Value> fields = {});
  /// Convenience: `event("send", {v})` by channel name.
  EventId event(std::string_view chan_name, std::vector<Value> fields = {});

  /// All events of the given channel(s): the CSPm production {| c |}.
  EventSet events_of(ChannelId chan) const;
  EventSet events_of(std::span<const ChannelId> chans) const;
  EventSet events_of(std::initializer_list<std::string_view> names) const;

  /// Every user event interned so far (Sigma, as currently known).
  EventSet alphabet() const;

  ChannelId event_channel(EventId e) const;
  const std::vector<Value>& event_fields(EventId e) const;
  /// "send.reqSw" style rendering; TAU -> "tau", TICK -> "tick".
  std::string event_name(EventId e) const;
  std::size_t event_count() const { return event_chan_.size(); }

  // --- process constructors (hash-consed) --------------------------------
  ProcessRef stop();
  ProcessRef skip();
  ProcessRef omega();
  ProcessRef prefix(EventId e, ProcessRef p);
  /// Fold a whole event sequence into nested prefixes: e1 -> e2 -> ... -> p.
  ProcessRef prefix_seq(std::span<const EventId> events, ProcessRef p);
  ProcessRef ext_choice(ProcessRef p, ProcessRef q);
  ProcessRef ext_choice(std::span<const ProcessRef> ps);  // STOP if empty
  ProcessRef int_choice(ProcessRef p, ProcessRef q);
  ProcessRef int_choice(std::span<const ProcessRef> ps);  // requires non-empty
  ProcessRef seq(ProcessRef p, ProcessRef q);
  ProcessRef par(ProcessRef p, EventSet sync, ProcessRef q);
  ProcessRef interleave(ProcessRef p, ProcessRef q);
  ProcessRef hide(ProcessRef p, EventSet hidden);
  ProcessRef rename(ProcessRef p, std::vector<RenamePair> pairs);
  /// P /\ Q: P runs, but any visible event of Q may interrupt it for good.
  ProcessRef interrupt(ProcessRef p, ProcessRef q);
  /// P [> Q (sliding choice / untimed timeout): P's visible events resolve
  /// to P, or the process silently slides to Q.
  ProcessRef sliding(ProcessRef p, ProcessRef q);
  ProcessRef var(Symbol name, std::vector<Value> args = {});
  ProcessRef var(std::string_view name, std::vector<Value> args = {});

  /// RUN(A): always willing to perform any event of A, forever.
  ProcessRef run(const EventSet& a);
  /// CHAOS(A) in the traces sense: may perform any of A or stop (via |~|).
  ProcessRef chaos(const EventSet& a);

  // --- named definitions --------------------------------------------------
  using DefBody = std::function<ProcessRef(Context&, std::span<const Value>)>;
  /// Define a (possibly parameterised) process. Bodies are evaluated lazily
  /// and memoised per argument tuple, so recursive definitions over finite
  /// argument domains terminate.
  void define(std::string_view name, DefBody body);
  void define(std::string_view name, ProcessRef body);
  bool has_definition(Symbol name) const { return defs_.contains(name); }
  /// Resolve Var(name, args) to its (memoised) body.
  ProcessRef resolve(Symbol name, const std::vector<Value>& args);

  // --- operational semantics ----------------------------------------------
  /// The outgoing transitions of `p` under CSP's firing rules; memoised.
  const std::vector<Transition>& transitions(ProcessRef p);
  /// Chase Var indirection so behaviourally identical states share identity.
  ProcessRef canonical(ProcessRef p);

 private:
  ProcessRef intern(ProcessNode&& node);
  /// `op` over `operands` in ACI normal form: nested `op` nodes spliced in,
  /// sorted by arena pointer, deduplicated; one distinct operand is itself.
  ProcessRef choice(Op op, std::span<const ProcessRef> operands);
  std::vector<Transition> compute_transitions(ProcessRef p);

  SymbolTable symbols_;

  std::vector<ChannelDecl> channels_;
  std::unordered_map<Symbol, ChannelId> channel_ids_;

  // Event interning: key is (channel, fields) hash -> candidate ids.
  struct EventKey {
    ChannelId chan;
    std::vector<Value> fields;
    bool operator==(const EventKey&) const = default;
  };
  struct EventKeyHash {
    std::size_t operator()(const EventKey& k) const {
      return hash_combine(k.chan, hash_values(k.fields));
    }
  };
  std::unordered_map<EventKey, EventId, EventKeyHash> event_ids_;
  std::vector<ChannelId> event_chan_;           // indexed by EventId
  std::vector<std::vector<Value>> event_fields_;  // indexed by EventId

  // Process arena + hash-consing.
  std::deque<ProcessNode> arena_;
  struct NodeHash {
    std::size_t operator()(const ProcessNode* n) const {
      return n->structural_hash();
    }
  };
  struct NodeEq {
    bool operator()(const ProcessNode* a, const ProcessNode* b) const;
  };
  std::unordered_set<const ProcessNode*, NodeHash, NodeEq> interned_;

  ProcessRef stop_ = nullptr;
  ProcessRef skip_ = nullptr;
  ProcessRef omega_ = nullptr;

  // Definitions and memoised resolutions.
  std::unordered_map<Symbol, DefBody> defs_;
  struct VarKey {
    Symbol name;
    std::vector<Value> args;
    bool operator==(const VarKey&) const = default;
  };
  struct VarKeyHash {
    std::size_t operator()(const VarKey& k) const {
      return hash_combine(k.name, hash_values(k.args));
    }
  };
  std::unordered_map<VarKey, ProcessRef, VarKeyHash> resolved_;
  std::unordered_set<VarKey, VarKeyHash> resolving_;  // cycle detection

  std::unordered_map<ProcessRef, std::vector<Transition>> transition_cache_;
  std::unordered_map<ProcessRef, ProcessRef> canonical_cache_;

  int run_counter_ = 0;  // fresh names for run()/chaos() definitions
};

}  // namespace ecucsp
