#include "cspm/printer.hpp"

namespace ecucsp::cspm {

namespace {

std::string binop_text(BinOpKind k) {
  switch (k) {
    case BinOpKind::Add: return "+";
    case BinOpKind::Sub: return "-";
    case BinOpKind::Mul: return "*";
    case BinOpKind::Div: return "/";
    case BinOpKind::Mod: return "%";
    case BinOpKind::Eq: return "==";
    case BinOpKind::Ne: return "!=";
    case BinOpKind::Lt: return "<";
    case BinOpKind::Gt: return ">";
    case BinOpKind::Le: return "<=";
    case BinOpKind::Ge: return ">=";
    case BinOpKind::And: return "and";
    case BinOpKind::Or: return "or";
  }
  return "?";
}

/// Is this node atomic enough to print without enclosing parentheses?
bool atomic(const Expr& e) {
  switch (e.kind) {
    case ExprKind::Number:
    case ExprKind::Bool:
    case ExprKind::Name:
    case ExprKind::Call:
    case ExprKind::Tuple:
    case ExprKind::SetLit:
    case ExprKind::SetRange:
    case ExprKind::ChanSet:
    case ExprKind::Stop:
    case ExprKind::Skip:
    case ExprKind::Dot:
      return true;
    default:
      return false;
  }
}

std::string wrap(const Expr& e) {
  const std::string s = print_expr(e);
  return atomic(e) ? s : "(" + s + ")";
}

}  // namespace

std::string print_expr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::Number:
      return std::to_string(e.number);
    case ExprKind::Bool:
      return e.boolean ? "true" : "false";
    case ExprKind::Name:
      return e.name;
    case ExprKind::Call: {
      std::string out = e.name + "(";
      for (std::size_t i = 0; i < e.kids.size(); ++i) {
        if (i) out += ", ";
        out += print_expr(*e.kids[i]);
      }
      return out + ")";
    }
    case ExprKind::Dot:
      return wrap(*e.kids[0]) + "." + wrap(*e.kids[1]);
    case ExprKind::Tuple: {
      std::string out = "(";
      for (std::size_t i = 0; i < e.kids.size(); ++i) {
        if (i) out += ", ";
        out += print_expr(*e.kids[i]);
      }
      return out + ")";
    }
    case ExprKind::SetLit: {
      std::string out = "{";
      for (std::size_t i = 0; i < e.kids.size(); ++i) {
        if (i) out += ", ";
        out += print_expr(*e.kids[i]);
      }
      return out + "}";
    }
    case ExprKind::SetComp: {
      std::string out = "{";
      out += print_expr(*e.kids[0]);
      out += " | ";
      bool first = true;
      for (const Generator& g : e.gens) {
        if (!first) out += ", ";
        first = false;
        out += g.var + " <- " + print_expr(*g.set);
      }
      for (std::size_t c = 1; c < e.kids.size(); ++c) {
        out += ", " + print_expr(*e.kids[c]);
      }
      return out + "}";
    }
    case ExprKind::SetRange: {
      std::string out = "{";
      out += print_expr(*e.kids[0]);
      out += "..";
      out += print_expr(*e.kids[1]);
      return out + "}";
    }
    case ExprKind::ChanSet: {
      std::string out = "{|";
      for (std::size_t i = 0; i < e.kids.size(); ++i) {
        if (i) out += ", ";
        out += print_expr(*e.kids[i]);
      }
      return out + "|}";
    }
    case ExprKind::BinOp:
      return wrap(*e.kids[0]) + " " + binop_text(e.binop) + " " +
             wrap(*e.kids[1]);
    case ExprKind::UnOp:
      return (e.unop == UnOpKind::Neg ? "-" : "not ") + wrap(*e.kids[0]);
    case ExprKind::If:
      return "if " + print_expr(*e.kids[0]) + " then " +
             print_expr(*e.kids[1]) + " else " + print_expr(*e.kids[2]);
    case ExprKind::Let: {
      std::string out = "let ";
      for (const LetBinding& b : e.bindings) {
        out += b.name;
        if (!b.params.empty()) {
          out += "(";
          for (std::size_t i = 0; i < b.params.size(); ++i) {
            if (i) out += ", ";
            out += b.params[i];
          }
          out += ")";
        }
        out += " = " + print_expr(*b.body) + " ";
      }
      return out + "within " + print_expr(*e.kids[0]);
    }
    case ExprKind::Stop:
      return "STOP";
    case ExprKind::Skip:
      return "SKIP";
    case ExprKind::Prefix: {
      std::string out = wrap(*e.head);
      for (const CommField& f : e.fields) {
        if (f.kind == CommField::Kind::Input) {
          out += "?" + f.var;
          if (f.restriction) {
            out += ':';
            out += wrap(*f.restriction);
          }
        } else {
          out += '!';
          out += wrap(*f.expr);
        }
      }
      return out + " -> " + wrap(*e.kids[0]);
    }
    case ExprKind::Guard:
      return wrap(*e.kids[0]) + " & " + wrap(*e.kids[1]);
    case ExprKind::ExtChoice:
      return wrap(*e.kids[0]) + " [] " + wrap(*e.kids[1]);
    case ExprKind::IntChoice:
      return wrap(*e.kids[0]) + " |~| " + wrap(*e.kids[1]);
    case ExprKind::Seq:
      return wrap(*e.kids[0]) + " ; " + wrap(*e.kids[1]);
    case ExprKind::Interleave:
      return wrap(*e.kids[0]) + " ||| " + wrap(*e.kids[1]);
    case ExprKind::SyncPar:
      return wrap(*e.kids[0]) + " [| " + print_expr(*e.kids[2]) + " |] " +
             wrap(*e.kids[1]);
    case ExprKind::AlphaPar:
      return wrap(*e.kids[0]) + " [ " + print_expr(*e.kids[2]) + " || " +
             print_expr(*e.kids[3]) + " ] " + wrap(*e.kids[1]);
    case ExprKind::InterruptE:
      return wrap(*e.kids[0]) + " /\\ " + wrap(*e.kids[1]);
    case ExprKind::SlidingE:
      return wrap(*e.kids[0]) + " [> " + wrap(*e.kids[1]);
    case ExprKind::Hide:
      return wrap(*e.kids[0]) + " \\ " + wrap(*e.kids[1]);
    case ExprKind::Rename: {
      std::string out = wrap(*e.kids[0]) + " [[";
      for (std::size_t i = 0; i < e.renames.size(); ++i) {
        if (i) out += ", ";
        out += print_expr(*e.renames[i].from) + " <- " +
               print_expr(*e.renames[i].to);
      }
      return out + "]]";
    }
    case ExprKind::Replicated: {
      std::string op;
      switch (e.rep_op) {
        case ExprKind::ExtChoice: op = "[]"; break;
        case ExprKind::IntChoice: op = "|~|"; break;
        case ExprKind::Interleave: op = "|||"; break;
        case ExprKind::SyncPar:
          op = "[| " + print_expr(*e.kids[1]) + " |]";
          break;
        default: op = "?"; break;
      }
      std::string out = op + " ";
      for (std::size_t i = 0; i < e.gens.size(); ++i) {
        if (i) out += ", ";
        out += e.gens[i].var + ":" + print_expr(*e.gens[i].set);
      }
      return out + " @ " + wrap(*e.kids[0]);
    }
  }
  return "?";
}

std::string print_script(const Script& s) {
  std::string out;
  for (const DatatypeDeclAst& dt : s.datatypes) {
    out += "datatype " + dt.name + " = ";
    for (std::size_t i = 0; i < dt.constructors.size(); ++i) {
      if (i) out += " | ";
      out += dt.constructors[i];
    }
    out += "\n";
  }
  for (const NametypeDeclAst& nt : s.nametypes) {
    out += "nametype " + nt.name + " = " + print_expr(*nt.type) + "\n";
  }
  for (const ChannelDeclAst& cd : s.channels) {
    out += "channel ";
    for (std::size_t i = 0; i < cd.names.size(); ++i) {
      if (i) out += ", ";
      out += cd.names[i];
    }
    if (!cd.field_types.empty()) {
      out += " : ";
      for (std::size_t i = 0; i < cd.field_types.size(); ++i) {
        if (i) out += ".";
        out += print_expr(*cd.field_types[i]);
      }
    }
    out += "\n";
  }
  for (const DefinitionAst& d : s.definitions) {
    out += d.name;
    if (!d.params.empty()) {
      out += "(";
      for (std::size_t i = 0; i < d.params.size(); ++i) {
        if (i) out += ", ";
        out += d.params[i];
      }
      out += ")";
    }
    out += " = " + print_expr(*d.body) + "\n";
  }
  for (const AssertionAst& a : s.assertions) {
    switch (a.kind) {
      case AssertionAst::Kind::RefinesT:
        out += "assert " + print_expr(*a.lhs) + " [T= " + print_expr(*a.rhs);
        break;
      case AssertionAst::Kind::RefinesF:
        out += "assert " + print_expr(*a.lhs) + " [F= " + print_expr(*a.rhs);
        break;
      case AssertionAst::Kind::RefinesFD:
        out += "assert " + print_expr(*a.lhs) + " [FD= " + print_expr(*a.rhs);
        break;
      case AssertionAst::Kind::DeadlockFree:
        out += "assert " + print_expr(*a.lhs) + " :[deadlock free]";
        break;
      case AssertionAst::Kind::DivergenceFree:
        out += "assert " + print_expr(*a.lhs) + " :[divergence free]";
        break;
      case AssertionAst::Kind::Deterministic:
        out += "assert " + print_expr(*a.lhs) + " :[deterministic]";
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace ecucsp::cspm
