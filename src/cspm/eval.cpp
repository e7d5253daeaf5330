#include "cspm/eval.hpp"

#include <algorithm>
#include <cstdint>

#include "core/stack_budget.hpp"
#include "cspm/parser.hpp"
#include "cspm/printer.hpp"

namespace ecucsp::cspm {

// --- CVal helpers ------------------------------------------------------------

CVal CVal::of_int(std::int64_t v) {
  CVal out;
  out.kind = Kind::Int;
  out.integer = v;
  return out;
}
CVal CVal::of_bool(bool v) {
  CVal out;
  out.kind = Kind::Bool;
  out.boolean = v;
  return out;
}
CVal CVal::of_data(Value v) {
  CVal out;
  out.kind = Kind::Data;
  out.data = std::move(v);
  return out;
}
CVal CVal::of_set(std::vector<Value> items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  CVal out;
  out.kind = Kind::Set;
  out.set = std::make_shared<const std::vector<Value>>(std::move(items));
  return out;
}
CVal CVal::of_events(EventSet es) {
  CVal out;
  out.kind = Kind::Events;
  out.events = std::move(es);
  return out;
}
CVal CVal::of_process(ProcessRef p) {
  CVal out;
  out.kind = Kind::Process;
  out.process = p;
  return out;
}

std::string CVal::kind_name() const {
  switch (kind) {
    case Kind::Int: return "integer";
    case Kind::Bool: return "boolean";
    case Kind::Data: return "datum";
    case Kind::Set: return "set";
    case Kind::Events: return "event set";
    case Kind::Channel: return "channel";
    case Kind::Closure: return "function";
    case Kind::Process: return "process";
  }
  return "?";
}

// --- loading -------------------------------------------------------------------

void Evaluator::load_source(std::string_view source) {
  load(parse_cspm(source));
}

void Evaluator::load(Script script) {
  auto owned = std::make_unique<Script>(std::move(script));
  const Script& s = *owned;

  for (const DatatypeDeclAst& dt : s.datatypes) {
    std::vector<Value> members;
    for (const std::string& ctor : dt.constructors) {
      const Value v = Value::symbol(ctx_.sym(ctor));
      globals_[ctor] = CVal::of_data(v);
      members.push_back(v);
    }
    globals_[dt.name] = CVal::of_set(std::move(members));
  }

  for (const NametypeDeclAst& nt : s.nametypes) {
    const CVal v = eval(*nt.type, {});
    if (v.kind != CVal::Kind::Set) {
      throw EvalError("nametype '" + nt.name + "' must denote a set", nt.line, 1);
    }
    globals_[nt.name] = v;
  }

  for (const ChannelDeclAst& cd : s.channels) {
    std::vector<std::vector<Value>> domains;
    for (const ExprPtr& ty : cd.field_types) {
      domains.push_back(eval_set(*ty, {}));
    }
    for (const std::string& name : cd.names) {
      const ChannelId id = ctx_.channel(name, domains);
      CVal cv;
      cv.kind = CVal::Kind::Channel;
      cv.chan = id;
      globals_[name] = cv;
    }
  }

  for (const DefinitionAst& def : s.definitions) {
    defs_[def.name] = &def;
    // Register with the core context so Var(name, args) nodes resolve.
    const DefinitionAst* dp = &def;
    ctx_.define(def.name, [this, dp](Context&, std::span<const Value> args) {
      if (args.size() != dp->params.size()) {
        throw EvalError("process '" + dp->name + "' expects " +
                            std::to_string(dp->params.size()) + " arguments",
                        dp->line, 1);
      }
      Env env;
      DefKey key{dp->name, {args.begin(), args.end()}};
      for (std::size_t i = 0; i < args.size(); ++i) {
        env[dp->params[i]] = to_cval(args[i]);
      }
      const bool marked = in_progress_.insert(key).second;
      ProcessRef p = nullptr;
      try {
        p = eval_process(*dp->body, env);
      } catch (...) {
        if (marked) in_progress_.erase(key);
        throw;
      }
      if (marked) in_progress_.erase(key);
      return p;
    });
  }

  for (const AssertionAst& a : s.assertions) assertions_.push_back(&a);
  scripts_.push_back(std::move(owned));
}

// --- public entry points ----------------------------------------------------------

ProcessRef Evaluator::process(const std::string& name) {
  auto it = defs_.find(name);
  if (it == defs_.end()) {
    throw EvalError("no definition named '" + name + "'", 0, 0);
  }
  Expr where;  // synthetic location
  const CVal v = reference_definition(*it->second, {}, where);
  if (v.kind != CVal::Kind::Process) {
    throw EvalError("'" + name + "' is a " + v.kind_name() + ", not a process",
                    it->second->line, 1);
  }
  return v.process;
}

CVal Evaluator::evaluate_expression(const std::string& source) {
  const ExprPtr e = parse_cspm_expression(source);
  return eval(*e, {});
}

std::vector<AssertionResult> Evaluator::check_assertions(std::size_t max_states) {
  std::vector<AssertionResult> out;
  out.reserve(assertions_.size());
  for (std::size_t i = 0; i < assertions_.size(); ++i) {
    out.push_back(check_assertion(i, max_states));
  }
  return out;
}

AssertionResult Evaluator::check_assertion(std::size_t index,
                                           std::size_t max_states,
                                           CancelToken* cancel) {
  const AssertionAst* a = assertions_.at(index);
  AssertionResult r;
  r.kind = a->kind;
  r.line = a->line;
  // Evaluation polls the check's token too, until the check returns.
  struct Disarm {
    CancelToken*& slot;
    ~Disarm() { slot = nullptr; }
  } disarm{cancel_};
  cancel_ = cancel;
  const ProcessRef lhs = eval_process(*a->lhs, {});
  switch (a->kind) {
    case AssertionAst::Kind::RefinesT:
    case AssertionAst::Kind::RefinesF:
    case AssertionAst::Kind::RefinesFD: {
      const ProcessRef rhs = eval_process(*a->rhs, {});
      const Model m = a->kind == AssertionAst::Kind::RefinesT ? Model::Traces
                      : a->kind == AssertionAst::Kind::RefinesF
                          ? Model::Failures
                          : Model::FailuresDivergences;
      r.description = print_expr(*a->lhs) + " [" + ecucsp::to_string(m) +
                      "= " + print_expr(*a->rhs);
      r.result = check_refinement(ctx_, lhs, rhs, m, max_states, cancel);
      break;
    }
    case AssertionAst::Kind::DeadlockFree:
      r.description = print_expr(*a->lhs) + " :[deadlock free]";
      r.result = check_deadlock_free(ctx_, lhs, max_states, cancel);
      break;
    case AssertionAst::Kind::DivergenceFree:
      r.description = print_expr(*a->lhs) + " :[divergence free]";
      r.result = check_divergence_free(ctx_, lhs, max_states, cancel);
      break;
    case AssertionAst::Kind::Deterministic:
      r.description = print_expr(*a->lhs) + " :[deterministic]";
      r.result = check_deterministic(ctx_, lhs, max_states, cancel);
      break;
  }
  return r;
}

std::optional<AssertionTerms> Evaluator::assertion_terms(std::size_t index) {
  const AssertionAst* a = assertions_.at(index);
  switch (a->kind) {
    case AssertionAst::Kind::RefinesT:
    case AssertionAst::Kind::RefinesF:
    case AssertionAst::Kind::RefinesFD: {
      AssertionTerms t;
      t.model = a->kind == AssertionAst::Kind::RefinesT ? Model::Traces
                : a->kind == AssertionAst::Kind::RefinesF
                    ? Model::Failures
                    : Model::FailuresDivergences;
      t.spec = eval_process(*a->lhs, {});
      t.impl = eval_process(*a->rhs, {});
      return t;
    }
    default:
      return std::nullopt;
  }
}

// --- lookup & calls ------------------------------------------------------------------

CVal Evaluator::lookup(const std::string& name, const Env& env,
                       const Expr& where) {
  if (auto it = env.find(name); it != env.end()) return it->second;
  if (auto it = globals_.find(name); it != globals_.end()) return it->second;
  if (auto it = defs_.find(name); it != defs_.end()) {
    if (it->second->params.empty()) {
      return reference_definition(*it->second, {}, where);
    }
    // A parameterised definition used as a first-class function.
    CVal c;
    c.kind = CVal::Kind::Closure;
    c.closure_name = name;
    return c;
  }
  error(where, "unknown name '" + name + "'");
}

CVal Evaluator::reference_definition(const DefinitionAst& def,
                                     std::vector<CVal> args,
                                     const Expr& where) {
  if (args.size() != def.params.size()) {
    error(where, "'" + def.name + "' expects " +
                     std::to_string(def.params.size()) + " argument(s), got " +
                     std::to_string(args.size()));
  }
  // Data arguments allow memoisation and recursion via core Var nodes.
  const bool data_args = std::all_of(args.begin(), args.end(), [](const CVal& a) {
    return a.kind == CVal::Kind::Int || a.kind == CVal::Kind::Data;
  });
  if (data_args) {
    DefKey key{def.name, {}};
    for (const CVal& a : args) {
      key.args.push_back(a.kind == CVal::Kind::Int ? Value::integer(a.integer)
                                                   : a.data);
    }
    if (in_progress_.contains(key)) {
      // Recursive reference: produce a Var node and let the core context
      // unfold it lazily. This is what ties recursive CSPm definitions.
      return CVal::of_process(ctx_.var(def.name, key.args));
    }
    if (auto it = memo_.find(key); it != memo_.end()) return it->second;
    poll();
    Env env;
    for (std::size_t i = 0; i < args.size(); ++i) {
      env[def.params[i]] = args[i];
    }
    in_progress_.insert(key);
    CVal out;
    try {
      out = eval(*def.body, env);
    } catch (...) {
      in_progress_.erase(key);
      throw;
    }
    in_progress_.erase(key);
    memo_.emplace(std::move(key), out);
    return out;
  }
  // Non-data arguments (sets, processes, functions): evaluate directly, on
  // every path that reaches the instantiation. Recursion through such
  // arguments is not tied, so it ends only at its base case or a deadline.
  poll();
  Env env;
  for (std::size_t i = 0; i < args.size(); ++i) {
    env[def.params[i]] = std::move(args[i]);
  }
  return eval(*def.body, env);
}

CVal Evaluator::call(const std::string& name, std::vector<CVal> args,
                     const Env& env, const Expr& where) {
  // Local/let closures shadow definitions and builtins.
  CVal head;
  bool have_head = false;
  if (auto it = env.find(name); it != env.end()) {
    head = it->second;
    have_head = true;
  } else if (auto it2 = globals_.find(name); it2 != globals_.end()) {
    head = it2->second;
    have_head = true;
  }
  if (have_head) {
    if (head.kind != CVal::Kind::Closure) {
      error(where, "'" + name + "' is a " + head.kind_name() +
                       " and cannot be applied");
    }
    if (!head.closure_body) {
      // Reference to a top-level parameterised definition.
      return reference_definition(*defs_.at(head.closure_name),
                                  std::move(args), where);
    }
    if (args.size() != head.closure_params.size()) {
      error(where, "function '" + name + "' expects " +
                       std::to_string(head.closure_params.size()) +
                       " argument(s)");
    }
    Env inner = head.closure_env ? *head.closure_env : Env{};
    for (std::size_t i = 0; i < args.size(); ++i) {
      inner[head.closure_params[i]] = std::move(args[i]);
    }
    return eval(*static_cast<const Expr*>(head.closure_body), inner);
  }

  if (auto it = defs_.find(name); it != defs_.end()) {
    return reference_definition(*it->second, std::move(args), where);
  }

  // Builtin set functions.
  const auto need = [&](std::size_t n) {
    if (args.size() != n) {
      error(where, "builtin '" + name + "' expects " + std::to_string(n) +
                       " argument(s)");
    }
  };
  const auto both_events = [&] {
    return args[0].kind == CVal::Kind::Events ||
           args[1].kind == CVal::Kind::Events ||
           args[0].kind == CVal::Kind::Channel ||
           args[1].kind == CVal::Kind::Channel;
  };
  if (name == "union") {
    need(2);
    if (both_events()) {
      return CVal::of_events(
          to_events(args[0], where).set_union(to_events(args[1], where)));
    }
    std::vector<Value> out = *args[0].set;
    out.insert(out.end(), args[1].set->begin(), args[1].set->end());
    return CVal::of_set(std::move(out));
  }
  if (name == "inter") {
    need(2);
    if (both_events()) {
      return CVal::of_events(to_events(args[0], where)
                                 .set_intersection(to_events(args[1], where)));
    }
    std::vector<Value> out;
    for (const Value& v : *args[0].set) {
      if (std::binary_search(args[1].set->begin(), args[1].set->end(), v)) {
        out.push_back(v);
      }
    }
    return CVal::of_set(std::move(out));
  }
  if (name == "diff") {
    need(2);
    if (both_events()) {
      return CVal::of_events(
          to_events(args[0], where).set_difference(to_events(args[1], where)));
    }
    std::vector<Value> out;
    for (const Value& v : *args[0].set) {
      if (!std::binary_search(args[1].set->begin(), args[1].set->end(), v)) {
        out.push_back(v);
      }
    }
    return CVal::of_set(std::move(out));
  }
  if (name == "card") {
    need(1);
    if (args[0].kind == CVal::Kind::Events) {
      return CVal::of_int(static_cast<std::int64_t>(args[0].events.size()));
    }
    if (args[0].kind == CVal::Kind::Set) {
      return CVal::of_int(static_cast<std::int64_t>(args[0].set->size()));
    }
    error(where, "card expects a set");
  }
  if (name == "empty") {
    need(1);
    if (args[0].kind == CVal::Kind::Events) {
      return CVal::of_bool(args[0].events.empty());
    }
    if (args[0].kind == CVal::Kind::Set) {
      return CVal::of_bool(args[0].set->empty());
    }
    error(where, "empty expects a set");
  }
  if (name == "member") {
    need(2);
    if (args[1].kind == CVal::Kind::Events) {
      return CVal::of_bool(
          args[1].events.contains(complete_event(args[0], where)));
    }
    if (args[1].kind == CVal::Kind::Set) {
      const Value v = to_data(args[0], where);
      return CVal::of_bool(
          std::binary_search(args[1].set->begin(), args[1].set->end(), v));
    }
    error(where, "member expects a set as second argument");
  }
  if (name == "Union") {
    need(1);
    if (args[0].kind != CVal::Kind::Set) error(where, "Union expects a set");
    error(where, "Union over sets-of-sets is not supported in this subset");
  }
  error(where, "unknown function '" + name + "'");
}

// --- conversions ----------------------------------------------------------------------

CVal Evaluator::to_cval(const Value& v) const {
  if (v.is_int()) return CVal::of_int(v.as_int());
  return CVal::of_data(v);
}

Value Evaluator::to_data(const CVal& v, const Expr& where) const {
  switch (v.kind) {
    case CVal::Kind::Int:
      return Value::integer(v.integer);
    case CVal::Kind::Data:
      return v.data;
    default:
      error(where, "expected a data value, found a " + v.kind_name());
  }
}

EventSet Evaluator::to_events(const CVal& v, const Expr& where) {
  switch (v.kind) {
    case CVal::Kind::Events:
      return v.events;
    case CVal::Kind::Channel: {
      // A (possibly partially applied) channel denotes all events that
      // extend the applied fields: the {| c.x |} production.
      const EventSet all = ctx_.events_of(v.chan);
      if (v.chan_fields.empty()) return all;
      std::vector<EventId> out;
      for (EventId e : all) {
        const auto& fields = ctx_.event_fields(e);
        if (fields.size() < v.chan_fields.size()) continue;
        if (std::equal(v.chan_fields.begin(), v.chan_fields.end(),
                       fields.begin())) {
          out.push_back(e);
        }
      }
      return EventSet(std::move(out));
    }
    default:
      error(where, "expected an event set, found a " + v.kind_name());
  }
}

EventId Evaluator::complete_event(const CVal& v, const Expr& where) {
  if (v.kind != CVal::Kind::Channel) {
    error(where, "expected an event, found a " + v.kind_name());
  }
  const ChannelDecl& decl = ctx_.channel_decl(v.chan);
  if (v.chan_fields.size() != decl.field_domains.size()) {
    error(where, "event on channel '" + ctx_.symbols().name(decl.name) +
                     "' is missing fields");
  }
  return ctx_.event(v.chan, v.chan_fields);
}

EventSet Evaluator::full_alphabet() {
  EventSet out;
  for (ChannelId c = 2; c < ctx_.channel_count(); ++c) {
    out = out.set_union(ctx_.events_of(c));
  }
  return out;
}

// --- typed evaluation wrappers ------------------------------------------------------------

ProcessRef Evaluator::eval_process(const Expr& e, const Env& env) {
  const CVal v = eval(e, env);
  if (v.kind != CVal::Kind::Process) {
    error(e, "expected a process, found a " + v.kind_name());
  }
  return v.process;
}

EventSet Evaluator::eval_event_set(const Expr& e, const Env& env) {
  return to_events(eval(e, env), e);
}

Value Evaluator::eval_data(const Expr& e, const Env& env) {
  return to_data(eval(e, env), e);
}

std::vector<Value> Evaluator::eval_set(const Expr& e, const Env& env) {
  const CVal v = eval(e, env);
  if (v.kind != CVal::Kind::Set) {
    error(e, "expected a set of data values, found a " + v.kind_name());
  }
  return *v.set;
}

bool Evaluator::eval_bool(const Expr& e, const Env& env) {
  const CVal v = eval(e, env);
  if (v.kind != CVal::Kind::Bool) {
    error(e, "expected a boolean, found a " + v.kind_name());
  }
  return v.boolean;
}

// --- prefix expansion -----------------------------------------------------------------------

ProcessRef Evaluator::expand_prefix(const Expr& prefix, const CVal& head,
                                    std::size_t next_field,
                                    std::vector<Value> fields, const Env& env) {
  const ChannelDecl& decl = ctx_.channel_decl(head.chan);
  if (next_field == prefix.fields.size()) {
    if (fields.size() != decl.field_domains.size()) {
      error(prefix, "communication on channel '" +
                        ctx_.symbols().name(decl.name) +
                        "' leaves fields unfilled");
    }
    const EventId e = ctx_.event(head.chan, std::move(fields));
    return ctx_.prefix(e, eval_process(*prefix.kids[0], env));
  }
  const CommField& f = prefix.fields[next_field];
  if (f.kind == CommField::Kind::Output) {
    fields.push_back(eval_data(*f.expr, env));
    return expand_prefix(prefix, head, next_field + 1, std::move(fields), env);
  }
  // Input '?x' / '?x:S': external choice over the (restricted) field domain.
  const std::size_t idx = fields.size();
  if (idx >= decl.field_domains.size()) {
    error(prefix, "too many communication fields for channel '" +
                      ctx_.symbols().name(decl.name) + "'");
  }
  std::vector<Value> domain = decl.field_domains[idx];
  if (f.restriction) {
    const std::vector<Value> allowed = eval_set(*f.restriction, env);
    std::erase_if(domain, [&](const Value& v) {
      return !std::binary_search(allowed.begin(), allowed.end(), v);
    });
  }
  std::vector<ProcessRef> branches;
  branches.reserve(domain.size());
  for (const Value& v : domain) {
    Env extended = env;
    extended[f.var] = to_cval(v);
    std::vector<Value> with = fields;
    with.push_back(v);
    branches.push_back(
        expand_prefix(prefix, head, next_field + 1, std::move(with), extended));
  }
  return ctx_.ext_choice(branches);
}

// --- generators -----------------------------------------------------------------------------

void Evaluator::for_each_binding(const std::vector<Generator>& gens,
                                 const Env& env,
                                 const std::function<void(const Env&)>& body) {
  std::vector<std::vector<Value>> domains;
  for (const Generator& g : gens) domains.push_back(eval_set(*g.set, env));
  if (std::any_of(domains.begin(), domains.end(),
                  [](const auto& d) { return d.empty(); })) {
    return;
  }
  // An odometer over the domains: the last generator varies fastest.
  std::vector<std::size_t> idx(domains.size(), 0);
  for (bool done = false; !done;) {
    poll();
    Env inner = env;
    for (std::size_t i = 0; i < domains.size(); ++i) {
      inner[gens[i].var] = to_cval(domains[i][idx[i]]);
    }
    body(inner);
    done = true;
    for (std::size_t i = domains.size(); done && i > 0;) {
      --i;
      if (++idx[i] < domains[i].size()) {
        done = false;
      } else {
        idx[i] = 0;
      }
    }
  }
}

// --- the main evaluator -------------------------------------------------------------------------

CVal Evaluator::eval(const Expr& e, const Env& env) {
  // Every level of evaluation passes through here. Deeply nested operators,
  // and a definition recursing through an unbounded argument
  // (COUNT(n) = a -> COUNT(n+1); only an instantiation already in progress
  // is tied lazily), stop with an error while stack is left.
  if (core::stack_exhausted()) {
    error(e, "the evaluator's stack is exhausted with " +
                 std::to_string(in_progress_.size()) +
                 " definition instantiation(s) open: the expression nests "
                 "too deeply, or a definition recurses through an unbounded "
                 "argument");
  }
  switch (e.kind) {
    case ExprKind::Number:
      return CVal::of_int(e.number);
    case ExprKind::Bool:
      return CVal::of_bool(e.boolean);
    case ExprKind::Name:
      return lookup(e.name, env, e);

    case ExprKind::Call: {
      std::vector<CVal> args;
      args.reserve(e.kids.size());
      for (const ExprPtr& k : e.kids) args.push_back(eval(*k, env));
      return call(e.name, std::move(args), env, e);
    }

    case ExprKind::Dot: {
      const CVal l = eval(*e.kids[0], env);
      if (l.kind != CVal::Kind::Channel) {
        error(e, "'.' application requires a channel on the left, found a " +
                     l.kind_name());
      }
      CVal out = l;
      out.chan_fields.push_back(eval_data(*e.kids[1], env));
      const ChannelDecl& decl = ctx_.channel_decl(out.chan);
      if (out.chan_fields.size() > decl.field_domains.size()) {
        error(e, "too many fields for channel '" +
                     ctx_.symbols().name(decl.name) + "'");
      }
      return out;
    }

    case ExprKind::Tuple: {
      std::vector<Value> items;
      for (const ExprPtr& k : e.kids) items.push_back(eval_data(*k, env));
      return CVal::of_data(Value::tuple(std::move(items)));
    }

    case ExprKind::SetLit: {
      if (e.kids.empty()) return CVal::of_set({});
      // Peek the first element to decide between data sets and event sets.
      const CVal first = eval(*e.kids[0], env);
      if (first.kind == CVal::Kind::Channel ||
          first.kind == CVal::Kind::Events) {
        EventSet out = to_events(first, e);
        for (std::size_t i = 1; i < e.kids.size(); ++i) {
          out = out.set_union(to_events(eval(*e.kids[i], env), e));
        }
        return CVal::of_events(std::move(out));
      }
      std::vector<Value> items{to_data(first, e)};
      for (std::size_t i = 1; i < e.kids.size(); ++i) {
        items.push_back(eval_data(*e.kids[i], env));
      }
      return CVal::of_set(std::move(items));
    }

    case ExprKind::SetComp: {
      std::vector<Value> out;
      for_each_binding(e.gens, env, [&](const Env& inner) {
        for (std::size_t c = 1; c < e.kids.size(); ++c) {
          if (!eval_bool(*e.kids[c], inner)) return;
        }
        out.push_back(eval_data(*e.kids[0], inner));
      });
      return CVal::of_set(std::move(out));
    }

    case ExprKind::SetRange: {
      const CVal lo = eval(*e.kids[0], env);
      const CVal hi = eval(*e.kids[1], env);
      if (lo.kind != CVal::Kind::Int || hi.kind != CVal::Kind::Int) {
        error(e, "set range bounds must be integers");
      }
      std::vector<Value> items;
      for (std::int64_t v = lo.integer; v <= hi.integer; ++v) {
        items.push_back(Value::integer(v));
      }
      return CVal::of_set(std::move(items));
    }

    case ExprKind::ChanSet: {
      EventSet out;
      for (const ExprPtr& k : e.kids) {
        out = out.set_union(to_events(eval(*k, env), e));
      }
      return CVal::of_events(std::move(out));
    }

    case ExprKind::BinOp: {
      if (e.binop == BinOpKind::And || e.binop == BinOpKind::Or) {
        const bool l = eval_bool(*e.kids[0], env);
        if (e.binop == BinOpKind::And && !l) return CVal::of_bool(false);
        if (e.binop == BinOpKind::Or && l) return CVal::of_bool(true);
        return CVal::of_bool(eval_bool(*e.kids[1], env));
      }
      if (e.binop == BinOpKind::Eq || e.binop == BinOpKind::Ne) {
        const CVal l = eval(*e.kids[0], env);
        const CVal r = eval(*e.kids[1], env);
        bool eq = false;
        if (l.kind == CVal::Kind::Bool && r.kind == CVal::Kind::Bool) {
          eq = l.boolean == r.boolean;
        } else {
          eq = to_data(l, e) == to_data(r, e);
        }
        return CVal::of_bool(e.binop == BinOpKind::Eq ? eq : !eq);
      }
      const CVal l = eval(*e.kids[0], env);
      const CVal r = eval(*e.kids[1], env);
      if (l.kind != CVal::Kind::Int || r.kind != CVal::Kind::Int) {
        error(e, "arithmetic/comparison requires integers");
      }
      const std::int64_t a = l.integer;
      const std::int64_t b = r.integer;
      // Overflow is an evaluation error, never a wrapped or trapping value.
      std::int64_t out = 0;
      switch (e.binop) {
        case BinOpKind::Add:
          if (__builtin_add_overflow(a, b, &out)) {
            error(e, "integer overflow in '+'");
          }
          return CVal::of_int(out);
        case BinOpKind::Sub:
          if (__builtin_sub_overflow(a, b, &out)) {
            error(e, "integer overflow in '-'");
          }
          return CVal::of_int(out);
        case BinOpKind::Mul:
          if (__builtin_mul_overflow(a, b, &out)) {
            error(e, "integer overflow in '*'");
          }
          return CVal::of_int(out);
        case BinOpKind::Div:
          if (b == 0) error(e, "division by zero");
          if (b == -1 && a == INT64_MIN) error(e, "integer overflow in '/'");
          return CVal::of_int(a / b);
        case BinOpKind::Mod: {
          if (b == 0) error(e, "modulo by zero");
          if (b == -1 && a == INT64_MIN) error(e, "integer overflow in '%'");
          std::int64_t r = a % b;  // the result takes the divisor's sign
          if (r != 0 && (r < 0) != (b < 0)) r += b;
          return CVal::of_int(r);
        }
        case BinOpKind::Lt: return CVal::of_bool(a < b);
        case BinOpKind::Gt: return CVal::of_bool(a > b);
        case BinOpKind::Le: return CVal::of_bool(a <= b);
        case BinOpKind::Ge: return CVal::of_bool(a >= b);
        default:
          error(e, "unhandled binary operator");
      }
    }

    case ExprKind::UnOp: {
      const CVal v = eval(*e.kids[0], env);
      if (e.unop == UnOpKind::Neg) {
        if (v.kind != CVal::Kind::Int) error(e, "'-' requires an integer");
        if (v.integer == INT64_MIN) error(e, "integer overflow in '-'");
        return CVal::of_int(-v.integer);
      }
      if (v.kind != CVal::Kind::Bool) error(e, "'not' requires a boolean");
      return CVal::of_bool(!v.boolean);
    }

    case ExprKind::If:
      return eval_bool(*e.kids[0], env) ? eval(*e.kids[1], env)
                                        : eval(*e.kids[2], env);

    case ExprKind::Let: {
      Env inner = env;
      for (const LetBinding& b : e.bindings) {
        if (b.params.empty()) {
          inner[b.name] = eval(*b.body, inner);
        } else {
          CVal c;
          c.kind = CVal::Kind::Closure;
          c.closure_body = b.body.get();
          c.closure_params = b.params;
          c.closure_env = std::make_shared<const Env>(inner);
          c.closure_name = b.name;
          inner[b.name] = c;
        }
      }
      return eval(*e.kids[0], inner);
    }

    case ExprKind::Stop:
      return CVal::of_process(ctx_.stop());
    case ExprKind::Skip:
      return CVal::of_process(ctx_.skip());

    case ExprKind::Prefix: {
      const CVal head = eval(*e.head, env);
      if (head.kind != CVal::Kind::Channel) {
        error(e, "prefix head must be a channel event, found a " +
                     head.kind_name());
      }
      return CVal::of_process(
          expand_prefix(e, head, 0, head.chan_fields, env));
    }

    case ExprKind::Guard:
      return CVal::of_process(eval_bool(*e.kids[0], env)
                                  ? eval_process(*e.kids[1], env)
                                  : ctx_.stop());

    case ExprKind::ExtChoice:
    case ExprKind::IntChoice: {
      // One call for the whole written chain P1 [] ... [] Pn, however
      // nested: no frame per operator. Operands run last to first, and that
      // order is output: event ids are numbered on first use, and the
      // canonical counterexample is the smallest by event id.
      std::vector<ProcessRef> operands;
      for (std::vector<const Expr*> todo{&e}; !todo.empty();) {
        const Expr* x = todo.back();
        todo.pop_back();
        if (x->kind == e.kind) {
          todo.insert(todo.end(), {x->kids[0].get(), x->kids[1].get()});
        } else {
          operands.push_back(eval_process(*x, env));
        }
      }
      return CVal::of_process(e.kind == ExprKind::ExtChoice
                                  ? ctx_.ext_choice(operands)
                                  : ctx_.int_choice(operands));
    }
    // `;`, `|||`, `[| |]`, `/\`, `[>` and `\` evaluate their event set
    // first, then the right operand, then the left one. Event ids are
    // numbered on first use, so that order is output, and the goldens were
    // made with it.
    case ExprKind::Seq: {
      const ProcessRef q = eval_process(*e.kids[1], env);
      const ProcessRef p = eval_process(*e.kids[0], env);
      return CVal::of_process(ctx_.seq(p, q));
    }
    case ExprKind::Interleave: {
      const ProcessRef q = eval_process(*e.kids[1], env);
      const ProcessRef p = eval_process(*e.kids[0], env);
      return CVal::of_process(ctx_.interleave(p, q));
    }

    case ExprKind::SyncPar: {
      const EventSet sync = eval_event_set(*e.kids[2], env);
      const ProcessRef q = eval_process(*e.kids[1], env);
      const ProcessRef p = eval_process(*e.kids[0], env);
      return CVal::of_process(ctx_.par(p, sync, q));
    }

    case ExprKind::AlphaPar: {
      // P [A||B] Q: P restricted to A, Q to B, synchronised on A inter B.
      // block(P, X) = P [|X|] SKIP forbids X but preserves termination.
      const EventSet a = eval_event_set(*e.kids[2], env);
      const EventSet b = eval_event_set(*e.kids[3], env);
      const EventSet sigma = full_alphabet();
      const ProcessRef p = ctx_.par(eval_process(*e.kids[0], env),
                                    sigma.set_difference(a), ctx_.skip());
      const ProcessRef q = ctx_.par(eval_process(*e.kids[1], env),
                                    sigma.set_difference(b), ctx_.skip());
      return CVal::of_process(ctx_.par(p, a.set_intersection(b), q));
    }

    case ExprKind::InterruptE: {
      const ProcessRef q = eval_process(*e.kids[1], env);
      const ProcessRef p = eval_process(*e.kids[0], env);
      return CVal::of_process(ctx_.interrupt(p, q));
    }
    case ExprKind::SlidingE: {
      const ProcessRef q = eval_process(*e.kids[1], env);
      const ProcessRef p = eval_process(*e.kids[0], env);
      return CVal::of_process(ctx_.sliding(p, q));
    }

    case ExprKind::Hide: {
      const EventSet hidden = eval_event_set(*e.kids[1], env);
      const ProcessRef p = eval_process(*e.kids[0], env);
      return CVal::of_process(ctx_.hide(p, hidden));
    }

    case ExprKind::Rename: {
      std::vector<RenamePair> pairs;
      for (const RenameItem& item : e.renames) {
        const CVal from = eval(*item.from, env);
        const CVal to = eval(*item.to, env);
        if (from.kind != CVal::Kind::Channel || to.kind != CVal::Kind::Channel) {
          error(e, "renaming items must be events or channels");
        }
        const ChannelDecl& fd = ctx_.channel_decl(from.chan);
        const ChannelDecl& td = ctx_.channel_decl(to.chan);
        const std::size_t f_missing =
            fd.field_domains.size() - from.chan_fields.size();
        const std::size_t t_missing =
            td.field_domains.size() - to.chan_fields.size();
        if (f_missing != t_missing) {
          error(e, "renaming endpoints have different remaining arity");
        }
        if (f_missing == 0) {
          pairs.push_back({ctx_.event(from.chan, from.chan_fields),
                           ctx_.event(to.chan, to.chan_fields)});
          continue;
        }
        // Whole-channel (or partial) renaming: map completions pointwise.
        for (EventId fe : to_events(from, e)) {
          const auto& fields = ctx_.event_fields(fe);
          std::vector<Value> completion(fields.begin() + from.chan_fields.size(),
                                        fields.end());
          std::vector<Value> target_fields = to.chan_fields;
          target_fields.insert(target_fields.end(), completion.begin(),
                               completion.end());
          pairs.push_back({fe, ctx_.event(to.chan, target_fields)});
        }
      }
      return CVal::of_process(
          ctx_.rename(eval_process(*e.kids[0], env), std::move(pairs)));
    }

    case ExprKind::Replicated: {
      std::vector<ProcessRef> bodies;
      for_each_binding(e.gens, env, [&](const Env& inner) {
        bodies.push_back(eval_process(*e.kids[0], inner));
      });
      switch (e.rep_op) {
        case ExprKind::ExtChoice:
          return CVal::of_process(ctx_.ext_choice(bodies));
        case ExprKind::IntChoice:
          if (bodies.empty()) error(e, "empty replicated internal choice");
          return CVal::of_process(ctx_.int_choice(bodies));
        case ExprKind::Interleave: {
          ProcessRef out = ctx_.skip();
          for (auto it = bodies.rbegin(); it != bodies.rend(); ++it) {
            out = it == bodies.rbegin() ? *it : ctx_.interleave(*it, out);
          }
          return CVal::of_process(bodies.empty() ? ctx_.skip() : out);
        }
        case ExprKind::SyncPar: {
          const EventSet sync = eval_event_set(*e.kids[1], env);
          if (bodies.empty()) return CVal::of_process(ctx_.skip());
          ProcessRef out = bodies.back();
          for (std::size_t i = bodies.size() - 1; i > 0; --i) {
            out = ctx_.par(bodies[i - 1], sync, out);
          }
          return CVal::of_process(out);
        }
        default:
          error(e, "unsupported replicated operator");
      }
    }
  }
  error(e, "unhandled expression kind");
}

}  // namespace ecucsp::cspm
