#include "cspm/parser.hpp"

#include "core/stack_budget.hpp"
#include "cspm/lexer.hpp"

namespace ecucsp::cspm {

std::string to_string(AssertionAst::Kind k) {
  switch (k) {
    case AssertionAst::Kind::RefinesT: return "[T=";
    case AssertionAst::Kind::RefinesF: return "[F=";
    case AssertionAst::Kind::RefinesFD: return "[FD=";
    case AssertionAst::Kind::DeadlockFree: return "deadlock free";
    case AssertionAst::Kind::DivergenceFree: return "divergence free";
    case AssertionAst::Kind::Deterministic: return "deterministic";
  }
  return "?";
}

Expr::~Expr() {
  std::vector<ExprPtr> doomed;
  const auto keep = [&doomed](ExprPtr& e) {
    if (e) doomed.push_back(std::move(e));
  };
  const auto take_kids = [&keep](Expr& e) {
    for (ExprPtr& k : e.kids) keep(k);
    keep(e.head);
    for (CommField& f : e.fields) {
      keep(f.restriction);
      keep(f.expr);
    }
    for (Generator& g : e.gens) keep(g.set);
    for (RenameItem& r : e.renames) {
      keep(r.from);
      keep(r.to);
    }
    for (LetBinding& b : e.bindings) keep(b.body);
  };
  take_kids(*this);
  while (!doomed.empty()) {
    const ExprPtr e = std::move(doomed.back());
    doomed.pop_back();
    take_kids(*e);
  }
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view src) : toks_(lex(src)) {}

  Script script() {
    Script out;
    while (!at(Tok::End)) {
      if (at(Tok::KwChannel)) {
        out.channels.push_back(channel_decl());
      } else if (at(Tok::KwDatatype)) {
        out.datatypes.push_back(datatype_decl());
      } else if (at(Tok::KwNametype)) {
        out.nametypes.push_back(nametype_decl());
      } else if (at(Tok::KwAssert)) {
        out.assertions.push_back(assertion());
      } else if (at(Tok::Ident)) {
        out.definitions.push_back(definition());
      } else {
        fail("expected a declaration, definition or assertion");
      }
    }
    return out;
  }

  ExprPtr single_expression() {
    ExprPtr e = expr();
    expect(Tok::End, "trailing input after expression");
    return e;
  }

 private:
  // --- token helpers --------------------------------------------------------
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, toks_.size() - 1);
    return toks_[i];
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
    throw ParseError(msg, peek().line, peek().column);
  }

  ExprPtr make(ExprKind kind) {
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->line = peek().line;
    e->column = peek().column;
    return e;
  }
  static ExprPtr binary(ExprKind kind, ExprPtr l, ExprPtr r) {
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->line = l->line;
    e->column = l->column;
    e->kids.push_back(std::move(l));
    e->kids.push_back(std::move(r));
    return e;
  }

  // --- declarations --------------------------------------------------------
  ChannelDeclAst channel_decl() {
    ChannelDeclAst out;
    out.line = peek().line;
    expect(Tok::KwChannel, "channel declaration");
    out.names.push_back(expect(Tok::Ident, "channel name").text);
    while (accept(Tok::Comma)) {
      out.names.push_back(expect(Tok::Ident, "channel name").text);
    }
    if (accept(Tok::Colon)) {
      out.field_types.push_back(dot_type());
      while (accept(Tok::Dot)) out.field_types.push_back(dot_type());
    }
    return out;
  }

  /// One field type of a channel: calls allowed, but dots NOT collected,
  /// so that 'channel c : T.S' splits into one field per dot.
  ExprPtr dot_type() { return postfix_no_dot(); }

  DatatypeDeclAst datatype_decl() {
    DatatypeDeclAst out;
    out.line = peek().line;
    expect(Tok::KwDatatype, "datatype declaration");
    out.name = expect(Tok::Ident, "datatype name").text;
    expect(Tok::Equals, "datatype '='");
    out.constructors.push_back(expect(Tok::Ident, "constructor").text);
    while (accept(Tok::Pipe)) {
      out.constructors.push_back(expect(Tok::Ident, "constructor").text);
    }
    return out;
  }

  NametypeDeclAst nametype_decl() {
    NametypeDeclAst out;
    out.line = peek().line;
    expect(Tok::KwNametype, "nametype declaration");
    out.name = expect(Tok::Ident, "nametype name").text;
    expect(Tok::Equals, "nametype '='");
    out.type = expr();
    return out;
  }

  DefinitionAst definition() {
    DefinitionAst out;
    out.line = peek().line;
    out.name = expect(Tok::Ident, "definition name").text;
    if (accept(Tok::LParen)) {
      out.params.push_back(expect(Tok::Ident, "parameter").text);
      while (accept(Tok::Comma)) {
        out.params.push_back(expect(Tok::Ident, "parameter").text);
      }
      expect(Tok::RParen, "parameter list");
    }
    expect(Tok::Equals, "definition '='");
    out.body = expr();
    return out;
  }

  AssertionAst assertion() {
    AssertionAst out;
    out.line = peek().line;
    expect(Tok::KwAssert, "assertion");
    out.lhs = expr();
    if (accept(Tok::RefinesT)) {
      out.kind = AssertionAst::Kind::RefinesT;
      out.rhs = expr();
    } else if (accept(Tok::RefinesF)) {
      out.kind = AssertionAst::Kind::RefinesF;
      out.rhs = expr();
    } else if (accept(Tok::RefinesFD)) {
      out.kind = AssertionAst::Kind::RefinesFD;
      out.rhs = expr();
    } else if (accept(Tok::ColonLBracket)) {
      const std::string prop = expect(Tok::Ident, "property name").text;
      if (prop == "deadlock") {
        expect_ident("free");
        out.kind = AssertionAst::Kind::DeadlockFree;
      } else if (prop == "divergence") {
        expect_ident("free");
        out.kind = AssertionAst::Kind::DivergenceFree;
      } else if (prop == "deterministic") {
        out.kind = AssertionAst::Kind::Deterministic;
      } else {
        fail("unknown assertion property '" + prop + "'");
      }
      // Optional semantic-model annotation '[F]' / '[FD]' / '[T]'.
      if (accept(Tok::LBracket)) {
        expect(Tok::Ident, "model annotation");
        // '[F]]' lexes the closing as ']' ']' or ']]'.
        if (!accept(Tok::RRenameB)) {
          expect(Tok::RBracket, "model annotation close");
          expect(Tok::RBracket, "assertion close");
        }
      } else {
        expect(Tok::RBracket, "assertion close");
      }
    } else {
      fail("expected a refinement operator or ':[' property");
    }
    return out;
  }

  void expect_ident(const std::string& word) {
    const Token t = expect(Tok::Ident, "'" + word + "'");
    if (t.text != word) fail("expected '" + word + "', found '" + t.text + "'");
  }

  // --- expression / process grammar ---------------------------------------
  // Each nesting of the grammar passes through expr(), guard_or_prefix(),
  // not_expr() or unary(); they stop with a parse error while stack is left.
  void check_depth() const {
    if (core::stack_exhausted()) fail("expression nests too deeply");
  }

  ExprPtr expr() {
    check_depth();
    return if_let();
  }

  ExprPtr if_let() {
    if (at(Tok::KwIf)) {
      auto e = make(ExprKind::If);
      take();
      e->kids.push_back(expr());
      expect(Tok::KwThen, "if-then");
      e->kids.push_back(expr());
      expect(Tok::KwElse, "if-else");
      e->kids.push_back(expr());
      return e;
    }
    if (at(Tok::KwLet)) {
      auto e = make(ExprKind::Let);
      take();
      do {
        LetBinding b;
        b.name = expect(Tok::Ident, "let binding name").text;
        if (accept(Tok::LParen)) {
          b.params.push_back(expect(Tok::Ident, "parameter").text);
          while (accept(Tok::Comma)) {
            b.params.push_back(expect(Tok::Ident, "parameter").text);
          }
          expect(Tok::RParen, "parameter list");
        }
        expect(Tok::Equals, "let binding '='");
        b.body = expr();
        e->bindings.push_back(std::move(b));
      } while (!at(Tok::KwWithin) && at(Tok::Ident));
      expect(Tok::KwWithin, "let-within");
      e->kids.push_back(expr());
      return e;
    }
    return parallel();
  }

  ExprPtr parallel() {
    ExprPtr lhs = int_choice();
    for (;;) {
      if (accept(Tok::Interleave)) {
        lhs = binary(ExprKind::Interleave, std::move(lhs), int_choice());
      } else if (at(Tok::LSync)) {
        take();
        ExprPtr sync = expr();
        expect(Tok::RSync, "'|]' of synchronised parallel");
        auto e = binary(ExprKind::SyncPar, std::move(lhs), nullptr);
        e->kids[1] = int_choice();
        e->kids.push_back(std::move(sync));
        lhs = std::move(e);
      } else if (at(Tok::LBracket)) {
        take();
        ExprPtr alpha_l = expr();
        expect(Tok::ParSplit, "'||' of alphabetised parallel");
        ExprPtr alpha_r = expr();
        expect(Tok::RBracket, "']' of alphabetised parallel");
        auto e = binary(ExprKind::AlphaPar, std::move(lhs), nullptr);
        e->kids[1] = int_choice();
        e->kids.push_back(std::move(alpha_l));
        e->kids.push_back(std::move(alpha_r));
        lhs = std::move(e);
      } else {
        return lhs;
      }
    }
  }

  ExprPtr int_choice() {
    ExprPtr lhs = ext_choice();
    while (at(Tok::IntChoice)) {
      take();
      lhs = binary(ExprKind::IntChoice, std::move(lhs), ext_choice());
    }
    return lhs;
  }

  ExprPtr ext_choice() {
    ExprPtr lhs = interrupt_level();
    while (at(Tok::ExtChoice)) {
      take();
      lhs = binary(ExprKind::ExtChoice, std::move(lhs), interrupt_level());
    }
    return lhs;
  }

  ExprPtr interrupt_level() {
    ExprPtr lhs = hiding();
    for (;;) {
      if (accept(Tok::InterruptOp)) {
        lhs = binary(ExprKind::InterruptE, std::move(lhs), hiding());
      } else if (accept(Tok::SlideOp)) {
        lhs = binary(ExprKind::SlidingE, std::move(lhs), hiding());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr hiding() {
    ExprPtr lhs = sequential();
    while (accept(Tok::Backslash)) {
      lhs = binary(ExprKind::Hide, std::move(lhs), postfix());
    }
    return lhs;
  }

  ExprPtr sequential() {
    ExprPtr lhs = guard_or_prefix();
    while (accept(Tok::Semi)) {
      lhs = binary(ExprKind::Seq, std::move(lhs), guard_or_prefix());
    }
    return lhs;
  }

  /// Handles boolean guards 'b & P', communications 'c?x!e -> P', and plain
  /// value expressions, which all start with an or-level expression.
  ExprPtr guard_or_prefix() {
    check_depth();
    ExprPtr head = or_expr();
    if (accept(Tok::Amp)) {
      return binary(ExprKind::Guard, std::move(head), guard_or_prefix());
    }
    // Collect communication fields.
    std::vector<CommField> fields;
    for (;;) {
      if (accept(Tok::Question)) {
        CommField f;
        f.kind = CommField::Kind::Input;
        f.var = expect(Tok::Ident, "input binder").text;
        if (accept(Tok::Colon)) f.restriction = additive();
        fields.push_back(std::move(f));
      } else if (accept(Tok::Bang)) {
        CommField f;
        f.kind = CommField::Kind::Output;
        f.expr = additive();
        fields.push_back(std::move(f));
      } else {
        break;
      }
    }
    if (accept(Tok::Arrow)) {
      auto e = make(ExprKind::Prefix);
      e->line = head->line;
      e->head = std::move(head);
      e->fields = std::move(fields);
      e->kids.push_back(guard_or_prefix());
      return e;
    }
    if (!fields.empty()) {
      fail("communication fields ('?', '!') must be followed by '->'");
    }
    return head;
  }

  ExprPtr or_expr() {
    ExprPtr lhs = and_expr();
    while (accept(Tok::KwOr)) {
      auto e = binary(ExprKind::BinOp, std::move(lhs), and_expr());
      e->binop = BinOpKind::Or;
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr and_expr() {
    ExprPtr lhs = not_expr();
    while (accept(Tok::KwAnd)) {
      auto e = binary(ExprKind::BinOp, std::move(lhs), not_expr());
      e->binop = BinOpKind::And;
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr not_expr() {
    check_depth();
    if (at(Tok::KwNot)) {
      auto e = make(ExprKind::UnOp);
      take();
      e->unop = UnOpKind::Not;
      e->kids.push_back(not_expr());
      return e;
    }
    return comparison();
  }

  ExprPtr comparison() {
    ExprPtr lhs = additive();
    const auto op = [&](BinOpKind k) {
      take();
      auto e = binary(ExprKind::BinOp, std::move(lhs), additive());
      e->binop = k;
      lhs = std::move(e);
    };
    for (;;) {
      if (at(Tok::EqEq)) { op(BinOpKind::Eq); }
      else if (at(Tok::NotEq)) { op(BinOpKind::Ne); }
      else if (at(Tok::Less)) { op(BinOpKind::Lt); }
      else if (at(Tok::Greater)) { op(BinOpKind::Gt); }
      else if (at(Tok::LessEq)) { op(BinOpKind::Le); }
      else if (at(Tok::GreaterEq)) { op(BinOpKind::Ge); }
      else { return lhs; }
    }
  }

  ExprPtr additive() {
    ExprPtr lhs = multiplicative();
    for (;;) {
      if (accept(Tok::Plus)) {
        auto e = binary(ExprKind::BinOp, std::move(lhs), multiplicative());
        e->binop = BinOpKind::Add;
        lhs = std::move(e);
      } else if (accept(Tok::Minus)) {
        auto e = binary(ExprKind::BinOp, std::move(lhs), multiplicative());
        e->binop = BinOpKind::Sub;
        lhs = std::move(e);
      } else {
        return lhs;
      }
    }
  }

  ExprPtr multiplicative() {
    ExprPtr lhs = unary();
    for (;;) {
      if (accept(Tok::Star)) {
        auto e = binary(ExprKind::BinOp, std::move(lhs), unary());
        e->binop = BinOpKind::Mul;
        lhs = std::move(e);
      } else if (accept(Tok::Slash)) {
        auto e = binary(ExprKind::BinOp, std::move(lhs), unary());
        e->binop = BinOpKind::Div;
        lhs = std::move(e);
      } else if (accept(Tok::Percent)) {
        auto e = binary(ExprKind::BinOp, std::move(lhs), unary());
        e->binop = BinOpKind::Mod;
        lhs = std::move(e);
      } else {
        return lhs;
      }
    }
  }

  ExprPtr unary() {
    check_depth();
    if (at(Tok::Minus)) {
      auto e = make(ExprKind::UnOp);
      take();
      e->unop = UnOpKind::Neg;
      e->kids.push_back(unary());
      return e;
    }
    return postfix();
  }

  ExprPtr postfix() { return postfix_impl(/*collect_dots=*/true); }
  ExprPtr postfix_no_dot() { return postfix_impl(/*collect_dots=*/false); }

  ExprPtr postfix_impl(bool collect_dots) {
    ExprPtr e = primary();
    for (;;) {
      if (collect_dots && at(Tok::Dot)) {
        take();
        e = binary(ExprKind::Dot, std::move(e), primary());
      } else if (at(Tok::LParen) && e->kind == ExprKind::Name) {
        take();
        auto call = std::make_unique<Expr>();
        call->kind = ExprKind::Call;
        call->line = e->line;
        call->column = e->column;
        call->name = e->name;
        if (!at(Tok::RParen)) {
          call->kids.push_back(expr());
          while (accept(Tok::Comma)) call->kids.push_back(expr());
        }
        expect(Tok::RParen, "call argument list");
        e = std::move(call);
      } else if (at(Tok::LRenameB)) {
        take();
        auto ren = std::make_unique<Expr>();
        ren->kind = ExprKind::Rename;
        ren->line = e->line;
        ren->column = e->column;
        ren->kids.push_back(std::move(e));
        do {
          RenameItem item;
          item.from = or_expr();
          expect(Tok::LArrow, "rename '<-'");
          item.to = or_expr();
          ren->renames.push_back(std::move(item));
        } while (accept(Tok::Comma));
        expect(Tok::RRenameB, "']]' of renaming");
        e = std::move(ren);
      } else {
        return e;
      }
    }
  }

  std::vector<Generator> generators() {
    std::vector<Generator> out;
    do {
      Generator g;
      g.var = expect(Tok::Ident, "generator variable").text;
      expect(Tok::Colon, "generator ':'");
      g.set = or_expr();
      out.push_back(std::move(g));
    } while (accept(Tok::Comma));
    return out;
  }

  ExprPtr replicated(ExprKind op, ExprPtr sync = nullptr) {
    auto e = make(ExprKind::Replicated);
    e->rep_op = op;
    e->gens = generators();
    expect(Tok::At, "'@' of replicated operator");
    e->kids.push_back(expr());
    if (sync) e->kids.push_back(std::move(sync));
    return e;
  }

  ExprPtr primary() {
    const Token& t = peek();
    switch (t.kind) {
      case Tok::Number: {
        auto e = make(ExprKind::Number);
        e->number = take().number;
        return e;
      }
      case Tok::KwTrue:
      case Tok::KwFalse: {
        auto e = make(ExprKind::Bool);
        e->boolean = take().kind == Tok::KwTrue;
        return e;
      }
      case Tok::KwStop: {
        auto e = make(ExprKind::Stop);
        take();
        return e;
      }
      case Tok::KwSkip: {
        auto e = make(ExprKind::Skip);
        take();
        return e;
      }
      case Tok::Ident: {
        auto e = make(ExprKind::Name);
        e->name = take().text;
        return e;
      }
      case Tok::LParen: {
        take();
        ExprPtr first = expr();
        if (accept(Tok::Comma)) {
          auto tup = make(ExprKind::Tuple);
          tup->kids.push_back(std::move(first));
          do {
            tup->kids.push_back(expr());
          } while (accept(Tok::Comma));
          expect(Tok::RParen, "tuple");
          return tup;
        }
        expect(Tok::RParen, "parenthesised expression");
        return first;
      }
      case Tok::LBrace: {
        take();
        auto set = make(ExprKind::SetLit);
        if (accept(Tok::RBrace)) return set;
        ExprPtr first = expr();
        if (accept(Tok::Pipe)) {
          // Set comprehension: { elem | x <- S, ..., conditions }.
          auto comp = make(ExprKind::SetComp);
          comp->kids.push_back(std::move(first));
          do {
            if (at(Tok::Ident) && at(Tok::LArrow, 1)) {
              Generator g;
              g.var = take().text;
              take();  // <-
              g.set = or_expr();
              comp->gens.push_back(std::move(g));
            } else {
              comp->kids.push_back(or_expr());  // filter condition
            }
          } while (accept(Tok::Comma));
          expect(Tok::RBrace, "set comprehension");
          if (comp->gens.empty()) {
            fail("set comprehension needs at least one 'x <- S' generator");
          }
          return comp;
        }
        if (accept(Tok::DotDot)) {
          auto range = make(ExprKind::SetRange);
          range->kids.push_back(std::move(first));
          range->kids.push_back(expr());
          expect(Tok::RBrace, "set range");
          return range;
        }
        set->kids.push_back(std::move(first));
        while (accept(Tok::Comma)) set->kids.push_back(expr());
        expect(Tok::RBrace, "set literal");
        return set;
      }
      case Tok::LBraceBar: {
        take();
        auto cs = make(ExprKind::ChanSet);
        cs->kids.push_back(expr());
        while (accept(Tok::Comma)) cs->kids.push_back(expr());
        expect(Tok::RBraceBar, "'|}' of channel set");
        return cs;
      }
      // Replicated operators in operand position.
      case Tok::ExtChoice:
        take();
        return replicated(ExprKind::ExtChoice);
      case Tok::IntChoice:
        take();
        return replicated(ExprKind::IntChoice);
      case Tok::Interleave:
        take();
        return replicated(ExprKind::Interleave);
      case Tok::LSync: {
        take();
        ExprPtr sync = expr();
        expect(Tok::RSync, "'|]' of replicated synchronised parallel");
        return replicated(ExprKind::SyncPar, std::move(sync));
      }
      default:
        fail("expected an expression, found " + to_string(t.kind));
    }
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
};

}  // namespace

Script parse_cspm(std::string_view source) {
  return Parser(source).script();
}

ExprPtr parse_cspm_expression(std::string_view source) {
  return Parser(source).single_expression();
}

}  // namespace ecucsp::cspm
