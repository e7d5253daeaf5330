// Abstract syntax for the CAPL subset.
//
// A CAPL program has four block kinds (paper, Section IV-B-1): optional
// 'includes' and 'variables' sections, event procedures ('on start',
// 'on message', 'on timer', 'on key', 'on stopMeasurement') and free
// functions. There is no main(); the runtime dispatches events.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ecucsp::capl {

enum class CaplType : std::uint8_t {
  Int, Long, Byte, Word, Dword, Char, Float, Double, Void,
  Message,  // CAN message object
  MsTimer,  // millisecond timer
  Timer,    // second timer
};

std::string to_string(CaplType t);

// --- expressions -------------------------------------------------------------

struct CaplExpr;
using CaplExprPtr = std::unique_ptr<CaplExpr>;

enum class CExprKind : std::uint8_t {
  Number,
  CharLit,
  StringLit,
  Name,
  This,        // the triggering message inside 'on message'
  Call,        // name(args...)
  Member,      // object.member  (dlc, id, or a DBC signal name)
  ByteAccess,  // object.byte(i) / .word(i) / .dword(i)
  Binary,
  Unary,
};

enum class CBinOp : std::uint8_t {
  Add, Sub, Mul, Div, Mod,
  Eq, Ne, Lt, Gt, Le, Ge,
  LAnd, LOr,
  BAnd, BOr, BXor, Shl, Shr,
};

enum class CUnOp : std::uint8_t { Neg, Not, BNot };

struct CaplExpr {
  /// Frees the subtree from a worklist, not by recursion, so an operator
  /// chain of any length is freed without exhausting the stack.
  ~CaplExpr();

  CExprKind kind = CExprKind::Number;
  int line = 0;
  int column = 0;
  /// Stable pre-order id assigned by the parser (0 until numbered). Flow
  /// analyses key CFG nodes and taint facts on these rather than on node
  /// addresses, so results are reproducible across runs and mutations
  /// applied to a re-parsed copy line up with the original ids.
  std::uint32_t node_id = 0;

  std::int64_t number = 0;   // Number / CharLit (code point)
  std::string text;          // StringLit / Name / Call head / Member name
  std::vector<CaplExprPtr> args;  // Call args; Binary/Unary operands
  CaplExprPtr object;        // Member / ByteAccess base
  int access_width = 1;      // ByteAccess: 1 = byte, 2 = word, 4 = dword
  CBinOp bin = CBinOp::Add;
  CUnOp un = CUnOp::Neg;
};

// --- statements --------------------------------------------------------------

struct CaplStmt;
using CaplStmtPtr = std::unique_ptr<CaplStmt>;

enum class CStmtKind : std::uint8_t {
  Block,
  VarDecl,
  ExprStmt,
  Assign,   // lvalue (=, +=, -=) value
  IncDec,   // lvalue++ / lvalue--
  If,
  While,
  For,
  Switch,   // value = scrutinee; body = Case statements
  Case,     // msg_id = label value; delta = 1 for 'default'; body = stmts
  Break,
  Return,
};

struct CaplStmt {
  /// Frees nested statements from a worklist, as ~CaplExpr does.
  ~CaplStmt();
  /// Mutation testing replaces a statement in place (conform/mutate.cpp).
  CaplStmt& operator=(CaplStmt&&) = default;

  CStmtKind kind = CStmtKind::Block;
  int line = 0;
  int column = 0;
  std::uint32_t node_id = 0;  // see CaplExpr::node_id

  std::vector<CaplStmtPtr> body;  // Block
  // VarDecl:
  CaplType var_type = CaplType::Int;
  std::string var_name;
  std::int64_t msg_id = -1;       // message declared by numeric id
  std::string msg_name;           // message declared by DBC name
  CaplExprPtr init;
  // Assign / IncDec:
  CaplExprPtr lvalue;
  CaplExprPtr value;              // Assign rhs; If/While condition; Return value
  int assign_op = 0;              // 0: '=', +1: '+=', -1: '-='
  int delta = 0;                  // IncDec: +1 / -1
  // If:
  CaplStmtPtr then_branch;
  CaplStmtPtr else_branch;        // may be null
  // While / For:
  CaplStmtPtr loop_body;
  CaplStmtPtr for_init;           // may be null
  CaplStmtPtr for_step;           // may be null
  // ExprStmt:
  CaplExprPtr expr;
};

// --- top level ----------------------------------------------------------------

struct EventHandler {
  enum class Kind : std::uint8_t { Start, StopMeasurement, Message, Timer, Key };
  Kind kind = Kind::Start;
  std::string target;      // message/timer name; key character
  std::int64_t msg_id = -1;  // 'on message 0x100'
  bool any_message = false;  // 'on message *'
  CaplStmtPtr body;
  int line = 0;
  int column = 0;
};

struct FunctionDecl {
  CaplType return_type = CaplType::Void;
  std::string name;
  std::vector<std::pair<CaplType, std::string>> params;
  CaplStmtPtr body;
  int line = 0;
  int column = 0;
};

struct VarDeclTop {
  CaplType type = CaplType::Int;
  std::string name;
  std::int64_t msg_id = -1;
  std::string msg_name;
  CaplExprPtr init;  // scalar initialiser
  int line = 0;
  int column = 0;
};

struct CaplProgram {
  std::vector<std::string> includes;
  std::vector<VarDeclTop> variables;
  std::vector<EventHandler> handlers;
  std::vector<FunctionDecl> functions;

  const EventHandler* find_handler(EventHandler::Kind kind,
                                   const std::string& target = {}) const;
  const FunctionDecl* find_function(const std::string& name) const;
};

/// Assign pre-order node ids (1-based; 0 stays "unnumbered") to every
/// statement and expression in the program. parse_capl() calls this before
/// returning; re-run it after structural mutation to renumber.
void number_nodes(CaplProgram& prog);

}  // namespace ecucsp::capl
