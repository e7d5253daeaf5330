#include "capl/parser.hpp"

#include <variant>

#include "core/stack_budget.hpp"

namespace ecucsp::capl {

std::string to_string(CaplType t) {
  switch (t) {
    case CaplType::Int: return "int";
    case CaplType::Long: return "long";
    case CaplType::Byte: return "byte";
    case CaplType::Word: return "word";
    case CaplType::Dword: return "dword";
    case CaplType::Char: return "char";
    case CaplType::Float: return "float";
    case CaplType::Double: return "double";
    case CaplType::Void: return "void";
    case CaplType::Message: return "message";
    case CaplType::MsTimer: return "msTimer";
    case CaplType::Timer: return "timer";
  }
  return "?";
}

const EventHandler* CaplProgram::find_handler(EventHandler::Kind kind,
                                              const std::string& target) const {
  for (const EventHandler& h : handlers) {
    if (h.kind != kind) continue;
    if (target.empty() || h.target == target) return &h;
  }
  return nullptr;
}

const FunctionDecl* CaplProgram::find_function(const std::string& name) const {
  for (const FunctionDecl& f : functions) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

CaplExpr::~CaplExpr() {
  std::vector<CaplExprPtr> doomed;
  const auto keep = [&doomed](CaplExprPtr& e) {
    if (e) doomed.push_back(std::move(e));
  };
  const auto take_kids = [&keep](CaplExpr& e) {
    for (CaplExprPtr& a : e.args) keep(a);
    keep(e.object);
  };
  take_kids(*this);
  while (!doomed.empty()) {
    const CaplExprPtr e = std::move(doomed.back());
    doomed.pop_back();
    take_kids(*e);
  }
}

CaplStmt::~CaplStmt() {
  std::vector<CaplStmtPtr> doomed;
  const auto keep = [&doomed](CaplStmtPtr& s) {
    if (s) doomed.push_back(std::move(s));
  };
  const auto take_kids = [&keep](CaplStmt& s) {
    for (CaplStmtPtr& k : s.body) keep(k);
    keep(s.then_branch);
    keep(s.else_branch);
    keep(s.loop_body);
    keep(s.for_init);
    keep(s.for_step);
  };
  take_kids(*this);
  while (!doomed.empty()) {
    const CaplStmtPtr s = std::move(doomed.back());
    doomed.pop_back();
    take_kids(*s);
  }
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view src) : toks_(lex(src)) {}

  CaplProgram program() {
    CaplProgram out;
    while (!at(Tok::End)) {
      if (at(Tok::KwIncludes)) {
        take();
        expect(Tok::LBrace, "includes block");
        // Include directives are '#include "file"'-ish in real CAPL; our
        // subset records string literals found in the block.
        while (!accept(Tok::RBrace)) {
          if (at(Tok::StringLit)) {
            out.includes.push_back(take().text);
          } else {
            take();  // tolerate preprocessor-ish tokens
          }
          if (at(Tok::End)) fail("unterminated includes block");
        }
      } else if (at(Tok::KwVariables)) {
        take();
        expect(Tok::LBrace, "variables block");
        while (!accept(Tok::RBrace)) out.variables.push_back(top_var_decl());
      } else if (at(Tok::KwOn)) {
        out.handlers.push_back(event_handler());
      } else if (is_type(peek().kind)) {
        out.functions.push_back(function_decl());
      } else {
        fail("expected 'includes', 'variables', 'on' or a function");
      }
    }
    return out;
  }

 private:
  const Token& peek(std::size_t ahead = 0) const {
    return toks_[std::min(pos_ + ahead, toks_.size() - 1)];
  }
  bool at(Tok k, std::size_t ahead = 0) const { return peek(ahead).kind == k; }
  Token take() { return toks_[std::min(pos_++, toks_.size() - 1)]; }
  bool accept(Tok k) {
    if (!at(k)) return false;
    ++pos_;
    return true;
  }
  Token expect(Tok k, const std::string& what) {
    if (!at(k)) {
      fail("expected " + to_string(k) + " (" + what + "), found " +
           to_string(peek().kind));
    }
    return take();
  }
  [[noreturn]] void fail(const std::string& msg) const {
    throw CaplError(msg, peek().line, peek().column);
  }

  static bool is_type(Tok k) {
    switch (k) {
      case Tok::KwInt:
      case Tok::KwLong:
      case Tok::KwByte:
      case Tok::KwWord:
      case Tok::KwDword:
      case Tok::KwChar:
      case Tok::KwFloat:
      case Tok::KwDouble:
      case Tok::KwVoid:
      case Tok::KwMessage:
      case Tok::KwMsTimer:
      case Tok::KwTimer:
        return true;
      default:
        return false;
    }
  }

  CaplType type() {
    switch (take().kind) {
      case Tok::KwInt: return CaplType::Int;
      case Tok::KwLong: return CaplType::Long;
      case Tok::KwByte: return CaplType::Byte;
      case Tok::KwWord: return CaplType::Word;
      case Tok::KwDword: return CaplType::Dword;
      case Tok::KwChar: return CaplType::Char;
      case Tok::KwFloat: return CaplType::Float;
      case Tok::KwDouble: return CaplType::Double;
      case Tok::KwVoid: return CaplType::Void;
      case Tok::KwMessage: return CaplType::Message;
      case Tok::KwMsTimer: return CaplType::MsTimer;
      case Tok::KwTimer: return CaplType::Timer;
      default:
        fail("expected a type");
    }
  }

  VarDeclTop top_var_decl() {
    VarDeclTop out;
    out.line = peek().line;
    out.column = peek().column;
    out.type = type();
    if (out.type == CaplType::Message) {
      // message <id-or-name> <var>;
      if (at(Tok::Number)) {
        out.msg_id = take().number;
      } else {
        out.msg_name = expect(Tok::Ident, "message type").text;
      }
    }
    out.name = expect(Tok::Ident, "variable name").text;
    if (accept(Tok::Assign)) out.init = expression();
    expect(Tok::Semi, "variable declaration");
    return out;
  }

  EventHandler event_handler() {
    EventHandler out;
    out.line = peek().line;
    out.column = peek().column;
    expect(Tok::KwOn, "event procedure");
    if (accept(Tok::KwStart)) {
      out.kind = EventHandler::Kind::Start;
    } else if (accept(Tok::KwStopM)) {
      out.kind = EventHandler::Kind::StopMeasurement;
    } else if (accept(Tok::KwMessage)) {
      out.kind = EventHandler::Kind::Message;
      if (at(Tok::Number)) {
        out.msg_id = take().number;
      } else if (accept(Tok::Star)) {
        out.any_message = true;
      } else {
        out.target = expect(Tok::Ident, "message name").text;
      }
    } else if (accept(Tok::KwTimer) || accept(Tok::KwMsTimer)) {
      out.kind = EventHandler::Kind::Timer;
      out.target = expect(Tok::Ident, "timer name").text;
    } else if (accept(Tok::KwKey)) {
      out.kind = EventHandler::Kind::Key;
      out.target = expect(Tok::CharLit, "key literal").text;
    } else {
      fail("unknown event procedure");
    }
    out.body = block();
    return out;
  }

  FunctionDecl function_decl() {
    FunctionDecl out;
    out.line = peek().line;
    out.column = peek().column;
    out.return_type = type();
    out.name = expect(Tok::Ident, "function name").text;
    expect(Tok::LParen, "parameter list");
    if (!at(Tok::RParen)) {
      do {
        const CaplType pt = type();
        const std::string pn = expect(Tok::Ident, "parameter name").text;
        out.params.emplace_back(pt, pn);
      } while (accept(Tok::Comma));
    }
    expect(Tok::RParen, "parameter list");
    out.body = block();
    return out;
  }

  // Each nesting of the grammar passes through block(), statement(),
  // expression() or unary(); they stop with a parse error while stack is
  // left.
  void check_depth() const {
    if (core::stack_exhausted()) fail("input nests too deeply");
  }

  CaplStmtPtr block() {
    check_depth();
    auto out = std::make_unique<CaplStmt>();
    out->kind = CStmtKind::Block;
    out->line = peek().line;
    out->column = peek().column;
    expect(Tok::LBrace, "block");
    while (!accept(Tok::RBrace)) {
      if (at(Tok::End)) fail("unterminated block");
      out->body.push_back(statement());
    }
    return out;
  }

  CaplStmtPtr statement() {
    check_depth();
    if (at(Tok::LBrace)) return block();

    auto out = std::make_unique<CaplStmt>();
    out->line = peek().line;
    out->column = peek().column;

    if (is_type(peek().kind)) {
      // Local declaration (mirrors the top-level form).
      out->kind = CStmtKind::VarDecl;
      out->var_type = type();
      if (out->var_type == CaplType::Message) {
        if (at(Tok::Number)) {
          out->msg_id = take().number;
        } else {
          out->msg_name = expect(Tok::Ident, "message type").text;
        }
      }
      out->var_name = expect(Tok::Ident, "variable name").text;
      if (accept(Tok::Assign)) out->init = expression();
      expect(Tok::Semi, "declaration");
      return out;
    }
    if (accept(Tok::KwIf)) {
      out->kind = CStmtKind::If;
      expect(Tok::LParen, "if condition");
      out->value = expression();
      expect(Tok::RParen, "if condition");
      out->then_branch = statement();
      if (accept(Tok::KwElse)) out->else_branch = statement();
      return out;
    }
    if (accept(Tok::KwWhile)) {
      out->kind = CStmtKind::While;
      expect(Tok::LParen, "while condition");
      out->value = expression();
      expect(Tok::RParen, "while condition");
      out->loop_body = statement();
      return out;
    }
    if (accept(Tok::KwFor)) {
      out->kind = CStmtKind::For;
      expect(Tok::LParen, "for header");
      if (!at(Tok::Semi)) out->for_init = simple_statement();
      expect(Tok::Semi, "for header");
      if (!at(Tok::Semi)) out->value = expression();
      expect(Tok::Semi, "for header");
      if (!at(Tok::RParen)) out->for_step = simple_statement();
      expect(Tok::RParen, "for header");
      out->loop_body = statement();
      return out;
    }
    if (accept(Tok::KwSwitch)) {
      out->kind = CStmtKind::Switch;
      expect(Tok::LParen, "switch scrutinee");
      out->value = expression();
      expect(Tok::RParen, "switch scrutinee");
      expect(Tok::LBrace, "switch body");
      while (!accept(Tok::RBrace)) {
        if (at(Tok::End)) fail("unterminated switch");
        auto arm = std::make_unique<CaplStmt>();
        arm->kind = CStmtKind::Case;
        arm->line = peek().line;
        arm->column = peek().column;
        if (accept(Tok::KwCase)) {
          if (at(Tok::Number)) {
            arm->msg_id = take().number;
          } else if (at(Tok::CharLit)) {
            arm->msg_id = take().number;
          } else if (at(Tok::Minus) && at(Tok::Number, 1)) {
            take();
            arm->msg_id = -take().number;
          } else {
            fail("case label must be an integer or character literal");
          }
        } else if (accept(Tok::KwDefault)) {
          arm->delta = 1;
        } else {
          fail("expected 'case' or 'default'");
        }
        expect(Tok::Colon, "case label");
        while (!at(Tok::KwCase) && !at(Tok::KwDefault) && !at(Tok::RBrace)) {
          if (at(Tok::End)) fail("unterminated switch");
          arm->body.push_back(statement());
        }
        out->body.push_back(std::move(arm));
      }
      return out;
    }
    if (accept(Tok::KwBreak)) {
      out->kind = CStmtKind::Break;
      expect(Tok::Semi, "break");
      return out;
    }
    if (accept(Tok::KwReturn)) {
      out->kind = CStmtKind::Return;
      if (!at(Tok::Semi)) out->value = expression();
      expect(Tok::Semi, "return");
      return out;
    }
    out = simple_statement();
    expect(Tok::Semi, "statement");
    return out;
  }

  /// Declaration, assignment, increment/decrement, or expression statement —
  /// without the trailing semicolon (shared by for-headers).
  CaplStmtPtr simple_statement() {
    auto out = std::make_unique<CaplStmt>();
    out->line = peek().line;
    out->column = peek().column;
    if (is_type(peek().kind)) {
      out->kind = CStmtKind::VarDecl;
      out->var_type = type();
      if (out->var_type == CaplType::Message) {
        if (at(Tok::Number)) {
          out->msg_id = take().number;
        } else {
          out->msg_name = expect(Tok::Ident, "message type").text;
        }
      }
      out->var_name = expect(Tok::Ident, "variable name").text;
      if (accept(Tok::Assign)) out->init = expression();
      return out;
    }
    CaplExprPtr e = expression();
    if (at(Tok::Assign) || at(Tok::PlusAssign) || at(Tok::MinusAssign)) {
      out->kind = CStmtKind::Assign;
      out->assign_op = at(Tok::PlusAssign) ? 1 : at(Tok::MinusAssign) ? -1 : 0;
      take();
      out->lvalue = std::move(e);
      out->value = expression();
      return out;
    }
    if (at(Tok::PlusPlus) || at(Tok::MinusMinus)) {
      out->kind = CStmtKind::IncDec;
      out->delta = at(Tok::PlusPlus) ? 1 : -1;
      take();
      out->lvalue = std::move(e);
      return out;
    }
    out->kind = CStmtKind::ExprStmt;
    out->expr = std::move(e);
    return out;
  }

  // Expression precedence, C-like.
  CaplExprPtr expression() {
    check_depth();
    return logical_or();
  }

  CaplExprPtr make_bin(CBinOp op, CaplExprPtr l, CaplExprPtr r) {
    auto e = std::make_unique<CaplExpr>();
    e->kind = CExprKind::Binary;
    e->bin = op;
    e->line = l->line;
    e->column = l->column;
    e->args.push_back(std::move(l));
    e->args.push_back(std::move(r));
    return e;
  }

  CaplExprPtr logical_or() {
    CaplExprPtr lhs = logical_and();
    while (accept(Tok::OrOr)) {
      lhs = make_bin(CBinOp::LOr, std::move(lhs), logical_and());
    }
    return lhs;
  }
  CaplExprPtr logical_and() {
    CaplExprPtr lhs = bit_or();
    while (accept(Tok::AndAnd)) {
      lhs = make_bin(CBinOp::LAnd, std::move(lhs), bit_or());
    }
    return lhs;
  }
  CaplExprPtr bit_or() {
    CaplExprPtr lhs = bit_xor();
    while (accept(Tok::Pipe)) {
      lhs = make_bin(CBinOp::BOr, std::move(lhs), bit_xor());
    }
    return lhs;
  }
  CaplExprPtr bit_xor() {
    CaplExprPtr lhs = bit_and();
    while (accept(Tok::Caret)) {
      lhs = make_bin(CBinOp::BXor, std::move(lhs), bit_and());
    }
    return lhs;
  }
  CaplExprPtr bit_and() {
    CaplExprPtr lhs = equality();
    while (accept(Tok::Amp)) {
      lhs = make_bin(CBinOp::BAnd, std::move(lhs), equality());
    }
    return lhs;
  }
  CaplExprPtr equality() {
    CaplExprPtr lhs = relational();
    for (;;) {
      if (accept(Tok::EqEq)) {
        lhs = make_bin(CBinOp::Eq, std::move(lhs), relational());
      } else if (accept(Tok::NotEq)) {
        lhs = make_bin(CBinOp::Ne, std::move(lhs), relational());
      } else {
        return lhs;
      }
    }
  }
  CaplExprPtr relational() {
    CaplExprPtr lhs = shift();
    for (;;) {
      if (accept(Tok::Less)) {
        lhs = make_bin(CBinOp::Lt, std::move(lhs), shift());
      } else if (accept(Tok::Greater)) {
        lhs = make_bin(CBinOp::Gt, std::move(lhs), shift());
      } else if (accept(Tok::LessEq)) {
        lhs = make_bin(CBinOp::Le, std::move(lhs), shift());
      } else if (accept(Tok::GreaterEq)) {
        lhs = make_bin(CBinOp::Ge, std::move(lhs), shift());
      } else {
        return lhs;
      }
    }
  }
  CaplExprPtr shift() {
    CaplExprPtr lhs = additive();
    for (;;) {
      if (accept(Tok::Shl)) {
        lhs = make_bin(CBinOp::Shl, std::move(lhs), additive());
      } else if (accept(Tok::Shr)) {
        lhs = make_bin(CBinOp::Shr, std::move(lhs), additive());
      } else {
        return lhs;
      }
    }
  }
  CaplExprPtr additive() {
    CaplExprPtr lhs = multiplicative();
    for (;;) {
      if (accept(Tok::Plus)) {
        lhs = make_bin(CBinOp::Add, std::move(lhs), multiplicative());
      } else if (accept(Tok::Minus)) {
        lhs = make_bin(CBinOp::Sub, std::move(lhs), multiplicative());
      } else {
        return lhs;
      }
    }
  }
  CaplExprPtr multiplicative() {
    CaplExprPtr lhs = unary();
    for (;;) {
      if (accept(Tok::Star)) {
        lhs = make_bin(CBinOp::Mul, std::move(lhs), unary());
      } else if (accept(Tok::Slash)) {
        lhs = make_bin(CBinOp::Div, std::move(lhs), unary());
      } else if (accept(Tok::Percent)) {
        lhs = make_bin(CBinOp::Mod, std::move(lhs), unary());
      } else {
        return lhs;
      }
    }
  }
  CaplExprPtr unary() {
    check_depth();
    const auto un = [&](CUnOp op) {
      take();
      auto e = std::make_unique<CaplExpr>();
      e->kind = CExprKind::Unary;
      e->un = op;
      e->args.push_back(unary());
      return e;
    };
    if (at(Tok::Minus)) return un(CUnOp::Neg);
    if (at(Tok::Not)) return un(CUnOp::Not);
    if (at(Tok::Tilde)) return un(CUnOp::BNot);
    return postfix();
  }

  CaplExprPtr postfix() {
    CaplExprPtr e = primary();
    while (accept(Tok::Dot)) {
      // Accessor keywords double as member names after '.'.
      int width = 0;
      std::string member;
      if (accept(Tok::KwByte)) {
        width = 1;
        member = "byte";
      } else if (accept(Tok::KwWord)) {
        width = 2;
        member = "word";
      } else if (accept(Tok::KwDword)) {
        width = 4;
        member = "dword";
      } else {
        member = expect(Tok::Ident, "member name").text;
      }
      if (width > 0 && at(Tok::LParen)) {
        take();
        auto acc = std::make_unique<CaplExpr>();
        acc->kind = CExprKind::ByteAccess;
        acc->access_width = width;
        acc->line = e->line;
        acc->column = e->column;
        acc->object = std::move(e);
        acc->args.push_back(expression());
        expect(Tok::RParen, "byte accessor");
        e = std::move(acc);
      } else {
        auto mem = std::make_unique<CaplExpr>();
        mem->kind = CExprKind::Member;
        mem->text = member;
        mem->line = e->line;
        mem->column = e->column;
        mem->object = std::move(e);
        e = std::move(mem);
      }
    }
    return e;
  }

  CaplExprPtr primary() {
    auto e = std::make_unique<CaplExpr>();
    e->line = peek().line;
    e->column = peek().column;
    switch (peek().kind) {
      case Tok::Number:
        e->kind = CExprKind::Number;
        e->number = take().number;
        return e;
      case Tok::CharLit:
        e->kind = CExprKind::CharLit;
        e->number = take().number;
        return e;
      case Tok::StringLit:
        e->kind = CExprKind::StringLit;
        e->text = take().text;
        return e;
      case Tok::KwThis:
        e->kind = CExprKind::This;
        take();
        return e;
      case Tok::Ident: {
        e->text = take().text;
        if (accept(Tok::LParen)) {
          e->kind = CExprKind::Call;
          if (!at(Tok::RParen)) {
            do {
              e->args.push_back(expression());
            } while (accept(Tok::Comma));
          }
          expect(Tok::RParen, "call arguments");
        } else {
          e->kind = CExprKind::Name;
        }
        return e;
      }
      case Tok::LParen: {
        take();
        CaplExprPtr inner = expression();
        expect(Tok::RParen, "parenthesised expression");
        return inner;
      }
      default:
        fail("expected an expression, found " + to_string(peek().kind));
    }
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
};

}  // namespace

namespace {

/// Deterministic pre-order numbering over the whole program: statements and
/// expressions share one counter, so any two distinct nodes have distinct
/// ids regardless of kind. The walk keeps its own stack, so an operator
/// chain of any length is numbered without recursion.
class Numberer {
 public:
  void run(CaplProgram& prog) {
    for (auto& v : prog.variables) walk(v.init.get());
    for (auto& h : prog.handlers) walk(h.body.get());
    for (auto& f : prog.functions) walk(f.body.get());
  }

 private:
  using Node = std::variant<CaplStmt*, CaplExpr*>;

  void walk(Node root) {
    todo_.push_back(root);
    while (!todo_.empty()) {
      const Node n = todo_.back();
      todo_.pop_back();
      // Kids are pushed last first, so they are numbered in order.
      if (CaplStmt* const* sp = std::get_if<CaplStmt*>(&n)) {
        CaplStmt* s = *sp;
        if (!s) continue;
        s->node_id = ++next_;
        todo_.insert(todo_.end(),
                     {s->expr.get(), s->for_step.get(), s->loop_body.get(),
                      s->for_init.get(), s->else_branch.get(),
                      s->then_branch.get(), s->value.get(), s->lvalue.get(),
                      s->init.get()});
        for (auto it = s->body.rbegin(); it != s->body.rend(); ++it) {
          todo_.push_back(it->get());
        }
      } else if (CaplExpr* e = std::get<CaplExpr*>(n)) {
        e->node_id = ++next_;
        todo_.push_back(e->object.get());
        for (auto it = e->args.rbegin(); it != e->args.rend(); ++it) {
          todo_.push_back(it->get());
        }
      }
    }
  }

  std::vector<Node> todo_;
  std::uint32_t next_ = 0;
};

}  // namespace

void number_nodes(CaplProgram& prog) { Numberer().run(prog); }

CaplProgram parse_capl(std::string_view source) {
  CaplProgram prog = Parser(source).program();
  number_nodes(prog);
  return prog;
}

}  // namespace ecucsp::capl
