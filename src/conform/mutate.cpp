#include "conform/mutate.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "conform/harness.hpp"

namespace ecucsp::conform {

namespace {

struct Point {
  enum class Kind { DropGuard, RetargetOutput };
  Kind kind = Kind::DropGuard;
  capl::CaplStmt* site = nullptr;
  std::string handler;
  std::string other_var;  // RetargetOutput: the replacement message
};

void collect_points(capl::CaplStmt& s, const std::string& handler,
                    const std::vector<std::string>& message_vars,
                    std::vector<Point>& out) {
  if (s.kind == capl::CStmtKind::If && s.then_branch) {
    out.push_back({Point::Kind::DropGuard, &s, handler, {}});
  }
  if (s.kind == capl::CStmtKind::ExprStmt && s.expr &&
      s.expr->kind == capl::CExprKind::Call && s.expr->text == "output" &&
      !s.expr->args.empty() &&
      s.expr->args[0]->kind == capl::CExprKind::Name) {
    // Retargeting needs a second declared message to aim at; pick the
    // first one (declaration order) that differs from the current target.
    for (const std::string& var : message_vars) {
      if (var != s.expr->args[0]->text) {
        out.push_back({Point::Kind::RetargetOutput, &s, handler, var});
        break;
      }
    }
  }
  for (auto& child : s.body) collect_points(*child, handler, message_vars, out);
  if (s.then_branch) collect_points(*s.then_branch, handler, message_vars, out);
  if (s.else_branch) collect_points(*s.else_branch, handler, message_vars, out);
  if (s.loop_body) collect_points(*s.loop_body, handler, message_vars, out);
}

std::vector<Point> all_points(capl::CaplProgram& prog) {
  std::vector<std::string> message_vars;
  for (const auto& v : prog.variables) {
    if (v.type == capl::CaplType::Message) message_vars.push_back(v.name);
  }
  std::vector<Point> out;
  for (auto& h : prog.handlers) {
    if (h.body) collect_points(*h.body, handler_label(h), message_vars, out);
  }
  return out;
}

}  // namespace

std::size_t count_mutation_points(const capl::CaplProgram& prog) {
  // collect_points never mutates; the const_cast only feeds the shared
  // pointer-collecting walk.
  return all_points(const_cast<capl::CaplProgram&>(prog)).size();
}

MutationInfo mutate_program(capl::CaplProgram& prog, std::uint64_t seed) {
  std::vector<Point> points = all_points(prog);
  if (points.empty()) {
    throw std::runtime_error("program has no mutation points");
  }
  const Point& p = points[seed % points.size()];
  MutationInfo info;
  info.handler = p.handler;
  info.line = p.site->line;
  info.column = p.site->column;
  if (p.kind == Point::Kind::DropGuard) {
    // Detach the then-branch first: assigning through it while it is still
    // a member of *site would move from freed storage.
    capl::CaplStmtPtr then = std::move(p.site->then_branch);
    *p.site = std::move(*then);
    info.description = "DropGuard: 'if' replaced by its then-branch";
  } else {
    capl::CaplExpr& arg = *p.site->expr->args[0];
    info.description = "RetargetOutput: output(" + arg.text +
                       ") now transmits " + p.other_var;
    arg.text = p.other_var;
  }
  info.description += " in '" + info.handler + "' at line " +
                      std::to_string(info.line);
  return info;
}

}  // namespace ecucsp::conform
