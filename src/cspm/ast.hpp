// Abstract syntax for the CSPm subset.
//
// CSPm is a functional language whose values include processes, so a single
// Expr type covers data expressions and process terms; the evaluator
// type-checks dynamically, as FDR's does.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ecucsp::cspm {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind : std::uint8_t {
  Number,
  Bool,
  Name,
  Call,       // head name + args
  Dot,        // kids[0] . kids[1]   (datatype/channel value composition)
  Tuple,      // (a, b, ...)
  SetLit,     // {a, b, ...}
  SetComp,    // { kids[0] | gens, conditions in kids[1..] }
  SetRange,   // {a..b}
  ChanSet,    // {| c, d |}
  BinOp,
  UnOp,
  If,         // kids = cond, then, else
  Let,        // bindings + kids[0] = body
  Stop,
  Skip,
  Prefix,     // head/fields, kids[0] = continuation
  Guard,      // kids[0] & kids[1]
  ExtChoice,  // kids[0] [] kids[1]
  IntChoice,
  Seq,
  Interleave,
  SyncPar,    // kids[0] [| sync |] kids[1], sync in kids[2]
  AlphaPar,   // kids[0] [ A || B ] kids[1]; A = kids[2], B = kids[3]
  InterruptE, // kids[0] /\ kids[1]
  SlidingE,   // kids[0] [> kids[1]
  Hide,       // kids[0] \ kids[1]
  Rename,     // kids[0] [[ renames ]]
  Replicated, // rep_op over gens @ kids[0]; SyncPar also uses kids[1] = sync
};

enum class BinOpKind : std::uint8_t {
  Add, Sub, Mul, Div, Mod, Eq, Ne, Lt, Gt, Le, Ge, And, Or,
};
enum class UnOpKind : std::uint8_t { Neg, Not };

/// One communication item following a channel head: '?x', '?x:S', '!e'.
/// Plain '.e' items are folded into the head as Dot nodes.
struct CommField {
  enum class Kind : std::uint8_t { Input, Output } kind = Kind::Output;
  std::string var;      // Input binder
  ExprPtr restriction;  // optional Input ':S'
  ExprPtr expr;         // Output expression
};

/// 'x : S' in a replicated operator.
struct Generator {
  std::string var;
  ExprPtr set;
};

struct RenameItem {
  ExprPtr from;
  ExprPtr to;
};

struct LetBinding {
  std::string name;
  std::vector<std::string> params;
  ExprPtr body;
};

struct Expr {
  /// Frees the subtree from a worklist, not by recursion, so an operator
  /// chain of any length is freed without exhausting the stack.
  ~Expr();

  ExprKind kind = ExprKind::Number;
  int line = 0;
  int column = 0;

  std::int64_t number = 0;           // Number
  bool boolean = false;              // Bool
  std::string name;                  // Name, Call head
  std::vector<ExprPtr> kids;         // operands / elements / Call args
  BinOpKind binop = BinOpKind::Add;  // BinOp
  UnOpKind unop = UnOpKind::Neg;     // UnOp

  ExprPtr head;                   // Prefix: channel-value head
  std::vector<CommField> fields;  // Prefix

  std::vector<Generator> gens;           // Replicated
  ExprKind rep_op = ExprKind::ExtChoice; // Replicated operator
  std::vector<RenameItem> renames;       // Rename
  std::vector<LetBinding> bindings;      // Let
};

// --- declarations -----------------------------------------------------------

struct ChannelDeclAst {
  std::vector<std::string> names;
  std::vector<ExprPtr> field_types;  // empty for bare channels
  int line = 0;
};

struct DatatypeDeclAst {
  std::string name;
  std::vector<std::string> constructors;
  int line = 0;
};

struct NametypeDeclAst {
  std::string name;
  ExprPtr type;
  int line = 0;
};

struct DefinitionAst {
  std::string name;
  std::vector<std::string> params;
  ExprPtr body;
  int line = 0;
};

struct AssertionAst {
  enum class Kind : std::uint8_t {
    RefinesT,
    RefinesF,
    RefinesFD,
    DeadlockFree,
    DivergenceFree,
    Deterministic,
  };
  Kind kind = Kind::RefinesT;
  ExprPtr lhs;
  ExprPtr rhs;  // refinement assertions only
  int line = 0;
};

std::string to_string(AssertionAst::Kind k);

struct Script {
  std::vector<ChannelDeclAst> channels;
  std::vector<DatatypeDeclAst> datatypes;
  std::vector<NametypeDeclAst> nametypes;
  std::vector<DefinitionAst> definitions;
  std::vector<AssertionAst> assertions;
};

}  // namespace ecucsp::cspm
