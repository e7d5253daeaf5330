// CSPm evaluator: binds a parsed Script to core process terms in a Context,
// and runs the script's assertions through the refinement engine.
//
// CSPm is dynamically typed (like FDR's evaluator): a runtime CVal is an
// integer, boolean, datum, finite set, event set, (possibly partially
// applied) channel, function closure, or process. Type errors surface as
// EvalError with source location.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/context.hpp"
#include "cspm/ast.hpp"
#include "refine/check.hpp"

namespace ecucsp::cspm {

class EvalError : public std::runtime_error {
 public:
  EvalError(const std::string& what, int line, int column)
      : std::runtime_error("evaluation error at " + std::to_string(line) +
                           ":" + std::to_string(column) + ": " + what),
        line(line),
        column(column) {}
  int line;
  int column;
};

/// Runtime value of a CSPm expression.
class CVal {
 public:
  enum class Kind : std::uint8_t {
    Int,
    Bool,
    Data,      // datatype constructor constants, tuples
    Set,       // finite set of data values (sorted unique)
    Events,    // set of events (sync/hide sets, channel productions)
    Channel,   // channel, possibly partially applied to leading fields
    Closure,   // user function (from a parameterised let binding / def)
    Process,
  };

  Kind kind = Kind::Int;
  std::int64_t integer = 0;
  bool boolean = false;
  Value data;
  std::shared_ptr<const std::vector<Value>> set;  // sorted unique
  EventSet events;
  ChannelId chan = 0;
  std::vector<Value> chan_fields;  // leading fields already applied
  ProcessRef process = nullptr;
  // Closure payload:
  const void* closure_body = nullptr;  // const Expr*
  std::vector<std::string> closure_params;
  std::shared_ptr<const std::map<std::string, CVal>> closure_env;
  std::string closure_name;

  static CVal of_int(std::int64_t v);
  static CVal of_bool(bool v);
  static CVal of_data(Value v);
  static CVal of_set(std::vector<Value> items);
  static CVal of_events(EventSet es);
  static CVal of_process(ProcessRef p);

  std::string kind_name() const;
};

struct AssertionResult {
  AssertionAst::Kind kind = AssertionAst::Kind::RefinesT;
  std::string description;  // e.g. "SPEC [T= SYSTEM"
  CheckResult result;
  int line = 0;
};

/// The (spec, impl, model) triple a Refines* assertion would hand to
/// check_refinement — the same eval_process results check_assertion uses.
/// Lets the verify layer's static pruner inspect the terms without running
/// the check. Property assertions (:[deadlock free] etc.) have no such
/// decomposition.
struct AssertionTerms {
  ProcessRef spec = nullptr;
  ProcessRef impl = nullptr;
  Model model = Model::Traces;
};

class Evaluator {
 public:
  explicit Evaluator(Context& ctx) : ctx_(ctx) {}

  /// Declare channels/datatypes/nametypes and register the definitions.
  /// Takes ownership of the AST. Multiple scripts may be loaded into one
  /// Context (e.g. an extracted implementation model plus a spec model).
  void load(Script script);

  /// Convenience: parse then load.
  void load_source(std::string_view source);

  /// Evaluate a named parameterless definition to a process.
  ProcessRef process(const std::string& name);
  /// Evaluate an arbitrary CSPm expression string in the global scope.
  CVal evaluate_expression(const std::string& source);

  /// Run every 'assert' in the loaded scripts.
  std::vector<AssertionResult> check_assertions(
      std::size_t max_states = 1u << 22);

  /// Number of 'assert' declarations across the loaded scripts.
  std::size_t assertion_count() const { return assertions_.size(); }

  /// Run a single assertion by script order. The optional CancelToken is
  /// polled inside the underlying check; this is what lets the src/verify
  /// scheduler run one assertion per worker with a per-check deadline.
  AssertionResult check_assertion(std::size_t index,
                                  std::size_t max_states = 1u << 22,
                                  CancelToken* cancel = nullptr);

  /// Evaluate assertion `index`'s terms without running the check. Returns
  /// nullopt for non-refinement assertions. Evaluation is memoised, so a
  /// following check_assertion(index) reuses the same hash-consed terms.
  std::optional<AssertionTerms> assertion_terms(std::size_t index);

  Context& context() { return ctx_; }

 private:
  using Env = std::map<std::string, CVal>;

  CVal eval(const Expr& e, const Env& env);
  ProcessRef eval_process(const Expr& e, const Env& env);
  EventSet eval_event_set(const Expr& e, const Env& env);
  Value eval_data(const Expr& e, const Env& env);
  std::vector<Value> eval_set(const Expr& e, const Env& env);
  bool eval_bool(const Expr& e, const Env& env);

  CVal lookup(const std::string& name, const Env& env, const Expr& where);
  CVal call(const std::string& name, std::vector<CVal> args, const Env& env,
            const Expr& where);
  CVal reference_definition(const DefinitionAst& def, std::vector<CVal> args,
                            const Expr& where);

  /// Calls `body` once per assignment of the generators' variables, with
  /// `env` extended by it, in lexicographic order of the domains (the
  /// first generator varies slowest); never if a domain is empty. Polls the
  /// check's token once per assignment.
  void for_each_binding(const std::vector<Generator>& gens, const Env& env,
                        const std::function<void(const Env&)>& body);

  ProcessRef expand_prefix(const Expr& prefix, const CVal& head,
                           std::size_t next_field, std::vector<Value> fields,
                           const Env& env);

  /// All events of all user-declared channels: the script's Sigma.
  EventSet full_alphabet();

  CVal to_cval(const Value& v) const;
  Value to_data(const CVal& v, const Expr& where) const;
  EventSet to_events(const CVal& v, const Expr& where);
  EventId complete_event(const CVal& chan_val, const Expr& where);

  [[noreturn]] void error(const Expr& e, const std::string& msg) const {
    throw EvalError(msg, e.line, e.column);
  }
  void poll() const {
    if (cancel_) cancel_->poll();
  }

  Context& ctx_;
  /// The token of the check_assertion in progress, if it has one.
  CancelToken* cancel_ = nullptr;
  // Globals. Definitions are stored by pointer into owned copies of scripts.
  std::vector<std::unique_ptr<Script>> scripts_;
  std::unordered_map<std::string, const DefinitionAst*> defs_;
  Env globals_;  // channels, datatype constructors, nametypes
  std::vector<const AssertionAst*> assertions_;

  // Recursion detection for definition evaluation.
  struct DefKey {
    std::string name;
    std::vector<Value> args;
    bool operator==(const DefKey&) const = default;
  };
  struct DefKeyHash {
    std::size_t operator()(const DefKey& k) const {
      return hash_combine(std::hash<std::string>{}(k.name),
                          hash_values(k.args));
    }
  };
  std::unordered_set<DefKey, DefKeyHash> in_progress_;
  std::unordered_map<DefKey, CVal, DefKeyHash> memo_;
};

}  // namespace ecucsp::cspm
