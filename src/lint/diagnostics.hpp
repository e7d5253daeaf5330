// Diagnostics engine for the cross-layer lint pass.
//
// A Diagnostic is a plain record: stable rule id, severity, source file,
// span and message. The sink collects them from every analyzer family
// (CAPL, DBC, CSPm); rendering is deterministic — diagnostics are sorted
// by (file, line, column, rule, message) so output is byte-stable across
// analyzer orderings — and comes in two shapes:
//   * human: "file:line:col: severity: message [rule]" plus the offending
//     source line with a caret/tilde underline;
//   * JSON: a versioned, machine-stable schema for editor/CI integration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ecucsp::lint {

enum class Severity : std::uint8_t { Note, Warning, Error };

std::string_view to_string(Severity s);

/// Half-open source region on one line; column 1-based, length in
/// characters (>= 1 so the caret renderer always has something to point
/// at). line == 0 means "whole file" (e.g. a file-level parse failure).
struct Span {
  int line = 0;
  int column = 1;
  int length = 1;
};

/// One step of a flow chain attached to a diagnostic: where the value came
/// from / passed through / ended up, in path order (source first, sink
/// last). Steps always refer to the diagnostic's own file.
struct ChainStep {
  Span span;
  std::string note;  // "tainted by received payload", "reaches output()", ...
};

struct Diagnostic {
  std::string rule;     // stable id from the catalogue, e.g. "C002"
  Severity severity = Severity::Warning;
  std::string file;     // as given by the caller; "<ota>" etc. for builtins
  Span span;
  std::string message;
  /// Source→sink provenance for flow rules (T0xx); empty for point rules.
  std::vector<ChainStep> chain{};

  /// Deterministic rendering/report order — a strict *total* order over
  /// every field, so the (unstable) sort in DiagnosticSink::finalize cannot
  /// leave the report order, or which of two near-duplicates survives
  /// dedupe, to chance. Two diagnostics compare equal here only when they
  /// are equal outright.
  friend bool operator<(const Diagnostic& a, const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.span.line != b.span.line) return a.span.line < b.span.line;
    if (a.span.column != b.span.column) return a.span.column < b.span.column;
    if (a.rule != b.rule) return a.rule < b.rule;
    if (a.message != b.message) return a.message < b.message;
    if (a.severity != b.severity) return a.severity < b.severity;
    if (a.span.length != b.span.length) return a.span.length < b.span.length;
    if (a.chain.size() != b.chain.size()) {
      return a.chain.size() < b.chain.size();
    }
    for (std::size_t i = 0; i < a.chain.size(); ++i) {
      const ChainStep& x = a.chain[i];
      const ChainStep& y = b.chain[i];
      if (x.span.line != y.span.line) return x.span.line < y.span.line;
      if (x.span.column != y.span.column) return x.span.column < y.span.column;
      if (x.span.length != y.span.length) return x.span.length < y.span.length;
      if (x.note != y.note) return x.note < y.note;
    }
    return false;
  }
};

/// Collector shared by the analyzer families.
class DiagnosticSink {
 public:
  void add(Diagnostic d) { diags_.push_back(std::move(d)); }
  void add(std::string rule, Severity severity, std::string file, Span span,
           std::string message) {
    diags_.push_back({std::move(rule), severity, std::move(file), span,
                      std::move(message)});
  }

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }

  std::size_t count(Severity s) const;
  bool has_errors() const { return count(Severity::Error) > 0; }

  /// Sort into the deterministic report order and drop exact duplicates.
  void finalize();

 private:
  std::vector<Diagnostic> diags_;
};

/// Source texts by file name, for caret rendering. Files missing from the
/// map render without the source/caret lines.
using SourceMap = std::map<std::string, std::string, std::less<>>;

/// Human-readable report:
///   vmg.can:23:12: error: handler references unknown message 'Foo' [C002]
///      23 | on message Foo {
///         |            ^~~
/// Tabs in the source line are preserved in the gutter copy and mirrored in
/// the caret line's padding, so the underline stays aligned in terminals
/// regardless of tab width.
std::string render_text(const std::vector<Diagnostic>& diags,
                        const SourceMap& sources);

/// Machine-readable report (schema version 2, stable key order):
/// {"lint_format":2,"diagnostics":[{"rule":...,"severity":...,"file":...,
///  "line":...,"column":...,"length":...,"message":...,
///  "chain":[{"line":...,"column":...,"length":...,"note":...},...]}],
///  "summary":{"errors":N,"warnings":N,"notes":N}}
/// The "chain" key is present only on diagnostics that carry a flow chain
/// (v2's addition; every v1 key is unchanged).
std::string render_json(const std::vector<Diagnostic>& diags);

/// One-line summary, e.g. "2 error(s), 1 warning(s)".
std::string summary_line(const std::vector<Diagnostic>& diags);

}  // namespace ecucsp::lint
