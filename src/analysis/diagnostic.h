#ifndef IQLKIT_ANALYSIS_DIAGNOSTIC_H_
#define IQLKIT_ANALYSIS_DIAGNOSTIC_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/source_span.h"
#include "base/status.h"

namespace iqlkit {

// The common diagnostic surface for every static check in the system:
// lexer/parser errors, schema validation, type checking, the §5
// restriction analyses, the iqlint analyzer passes, and the datalog
// engine's safety checks all report through this type instead of bare
// Status strings, so positions, notes, and fix-its survive to the UI.
//
// Code registry (catalogued with triggering programs in docs/LANGUAGE.md):
//   E001  lexical error                      E002  syntax error
//   E003  schema validation error            E004  type error (§3.1)
//   E005  datalog safety violation           E006  nesting depth exceeded
//   W001  unconstrained rule variable        W002  invention in recursion
//   W003  program leaves IQLpr (§5)          W004  unused var declaration
//   W005  dead rule                          W006  statically empty type
//   W007  negation on same-stage predicate
//   O001  cross-product join (optimizer hint)
//   L002  unbindable probe key               L003  statically empty rule body
//   L004  IL verifier violation
// (L-series codes come from the IL lint, iql/ilcheck.h; iqlint emits them
// under --il.)
enum class Severity : uint8_t {
  kHint = 0,     // optimizer / style observation; never fails a build
  kWarning = 1,  // probable bug or lost guarantee; program still runs
  kError = 2,    // the program is rejected
};

// "hint", "warning", "error".
std::string_view SeverityName(Severity severity);

// A secondary location attached to a diagnostic, e.g. one member of the
// recursive SCC a W002 reports, or the defining rule a W007 points back to.
struct DiagnosticNote {
  SourceSpan span;  // may be invalid (no position)
  std::string message;
};

// A machine-applicable suggested edit: replace `span` with `replacement`
// (empty replacement = delete).
struct FixIt {
  SourceSpan span;
  std::string replacement;
};

struct Diagnostic {
  std::string code;  // "W002", "E004", ...
  Severity severity = Severity::kWarning;
  SourceSpan span;
  std::string message;
  std::vector<DiagnosticNote> notes;
  std::optional<FixIt> fixit;
};

// Collects diagnostics in report order. Producers call Report (or the
// severity shorthands, which return the stored diagnostic for attaching
// notes); consumers render or inspect the vector.
class DiagnosticSink {
 public:
  Diagnostic& Report(Diagnostic d);
  Diagnostic& Error(std::string code, SourceSpan span, std::string message);
  Diagnostic& Warning(std::string code, SourceSpan span, std::string message);
  Diagnostic& Hint(std::string code, SourceSpan span, std::string message);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  bool empty() const { return diagnostics_.empty(); }
  size_t size() const { return diagnostics_.size(); }
  size_t count(Severity severity) const;
  // Highest severity reported, or nullopt when empty.
  std::optional<Severity> max_severity() const;
  void clear() { diagnostics_.clear(); }

 private:
  std::vector<Diagnostic> diagnostics_;
};

// Renders diagnostics clang-style, with a source-line excerpt and caret:
//
//   prog.iql:14:3: warning: oid invention inside a recursive SCC [W002]
//      14 |   R2(X, Y, z) :- R1(X), R1(Y).
//         |   ^~~~~~~~~~~
//   prog.iql:17:3: note: 'R1' is derived from 'P' here
//
// Spans outside `source` (or invalid ones) degrade to the header line.
std::string RenderText(const std::vector<Diagnostic>& diagnostics,
                       std::string_view source, std::string_view filename);

// One diagnostic, same format.
std::string RenderText(const Diagnostic& diagnostic, std::string_view source,
                       std::string_view filename);

// Renders `{"file": ..., "diagnostics": [...]}` with stable key order.
// Each entry carries code/severity/line/column/offset/length/message plus
// notes and fixit when present.
std::string RenderJson(const std::vector<Diagnostic>& diagnostics,
                       std::string_view filename);

// "prog.iql:14:3: warning: message [W002]" -- the headline only, for
// embedding a diagnostic in a Status message or log line.
std::string OneLine(const Diagnostic& diagnostic,
                    std::string_view filename = "");

// Converts a diagnostic to a Status carrying the headline, so legacy
// Status-returning paths (datalog::Evaluate, TypeCheck) stay compatible
// while their errors are built as structured diagnostics.
Status ToStatus(const Diagnostic& diagnostic, StatusCode code);

}  // namespace iqlkit

#endif  // IQLKIT_ANALYSIS_DIAGNOSTIC_H_
