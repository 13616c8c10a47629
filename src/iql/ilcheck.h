// Dataflow analyses and the static verifier for the flat rule IL
// (iql/il.h).
//
// All of the analyses here exploit one structural fact about the IL's
// control flow: backtracking only ever re-enters the body at scan_pc + 1,
// and a register is written by exactly one instruction (the compiler is
// SSA over registers). Together those make *pc order a dominance order*:
// when execution sits at pc u, every instruction at pc < u most recently
// executed -- successfully -- with the registers' current values (a
// backtrack to scan s leaves every register defined at pc <= s untouched
// and re-executes everything in (s, u) in order). A single forward pass is
// therefore a sound whole-body analysis; no fixpoint iteration is needed.
//
// The verifier (VerifyRule) rejects malformed IL -- use-before-def,
// double definitions, out-of-range shape/aux/register indices, unguarded
// field projections, probe specs keyed on unbound registers, misplaced
// terminators -- before the VM (which elides all of those checks on its
// hot path) ever runs it. CompileRule calls it after every lowering in
// debug builds.
//
// The L-series IL lint (`iqlint --il`) sits on top: L004 reports verifier
// violations, L002 join scans without a probe key, and L003 bodies that
// a forward pass over equality classes proves can never emit.

#ifndef IQLKIT_IQL_ILCHECK_H_
#define IQLKIT_IQL_ILCHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "base/interner.h"
#include "iql/ast.h"
#include "iql/il.h"
#include "model/type.h"

namespace iqlkit::il {

// ---- abstract values ------------------------------------------------------

// What a register is statically known to hold, from one forward pass over
// the defs (sound per the dominance argument above). Hash-consing makes
// raw ValueId comparison structural, so two distinct constants can never
// compare equal.
struct AbsVal {
  enum class Kind : uint8_t {
    kAny,         // scan candidates, fields, derefs: unknown
    kConst,       // the constant `sym` (kLoadConst)
    kRelValue,    // the set value of relation `sym` (kLoadRel)
    kClassValue,  // the oid-set value of class `sym` (kLoadClass)
    kTuple,       // a tuple of shape `shape` (kMakeTuple)
    kSet,         // a set (kMakeSet)
  };
  Kind kind = Kind::kAny;
  Symbol sym = kInvalidSymbol;  // kConst / kRelValue / kClassValue
  uint32_t shape = 0;           // kTuple
};

// True when the two abstract values denote provably distinct runtime
// values. Only distinct constants qualify (everything else may alias).
bool ProvablyDistinct(const AbsVal& a, const AbsVal& b);

// True when the value can never be a set / a tuple, respectively --
// feeding kCheckIn or kMatchTuple such a register is a statically
// always-failing filter (the L003 diagnostic).
bool NeverSet(const AbsVal& v);
bool NeverTuple(const AbsVal& v);

// ---- verifier -------------------------------------------------------------

// One verifier rejection: the offending pc and a human-readable detail.
// The IL lint renders these as L004 diagnostics.
struct IlViolation {
  uint32_t pc = 0;
  std::string detail;
};

// Statically checks one compiled rule. Empty result = well-formed. The
// checks cover exactly the invariants the VM relies on without runtime
// guards; a rule that passes cannot index out of range or read an
// undefined register in VmSolver::Solve.
std::vector<IlViolation> VerifyRule(const CompiledRule& cr);

// ---- L-series lint --------------------------------------------------------
//
//   L002 (hint)    join scan with no bindable probe key: a full scan of the
//                  container per outer candidate
//   L003 (warning) statically empty rule body: a filter that can never
//                  succeed (equality of distinct constants, a value
//                  compared unequal to itself, a tuple match / membership
//                  test / set scan over a value of the wrong shape)
//   L004 (error)   verifier violation (malformed IL; never from CompileRule)
//
// Spans map through Instr::src to the source literal that lowered to the
// instruction (whole-rule span when the instruction was synthesized).
// Tree-walk fallback rules are skipped: they have no IL to diagnose.
void LintProgramIl(const Program& prog, const SymbolTable& syms,
                   const TypePool& types, DiagnosticSink* sink);

// Renders L-series diagnostics for one already-compiled rule (the
// building block LintProgramIl uses; exposed for tests).
void LintCompiledRule(const CompiledRule& cr, const Rule& rule,
                      const SymbolTable& syms, const TypePool& types,
                      DiagnosticSink* sink);

}  // namespace iqlkit::il

#endif  // IQLKIT_IQL_ILCHECK_H_
