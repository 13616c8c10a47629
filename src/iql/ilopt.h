// Verified optimizer passes over the flat rule IL (iql/il.h), plus the
// L-series IL diagnostics `iqlint --il` reports.
//
// Pass order (each justified by the dominance argument in iql/ilcheck.h:
// pc order dominates, registers are SSA, and a backtrack to scan s leaves
// every register defined at pc <= s untouched):
//
//   1. Load hoisting. kLoadConst / kLoadRel / kLoadClass are pure,
//      operand-free, and cannot fail, so they move to the top of the body
//      (loop-invariant code motion: a load under a scan re-executes per
//      candidate for the same hash-consed id).
//   2. Value numbering + equality propagation. Duplicate pure producers
//      collapse (hash-consing makes identical constructions the same
//      ValueId); a successful kCmp/kCheckEq(pol) makes its operands equal
//      for every later pc, so later reads use the earlier register.
//   3. Redundant-check elimination. A check identical (up to register
//      equivalence) to one that already succeeded on every path here
//      always succeeds, as do kCmp r, r after propagation; both drop.
//      Checks that can never succeed (distinct constants compared,
//      kCheckIn over a never-set register) are reported as a statically
//      empty body (L003) but left in place -- they fail fast at runtime.
//   4. Filter sinking. For a scan followed by its kMatchTuple guard, a
//      field projection compared against a register bound before the scan
//      becomes a *strict* probe key: the VM skips candidates whose keyed
//      field differs (Instr::strict), which is exact -- index buckets only
//      prefilter by hash -- so the post-scan compare is implied and drops,
//      and the probe gets statically tighter (index on or off).
//   5. Dead-value elimination. Pure producers (loads, kGetField,
//      kMakeTuple, kMakeSet) whose result is never read drop, to a
//      fixpoint. Scans are never removed (they shape the loop nest and the
//      candidate enumeration the parallel protocol partitions), and kDeref
//      is never removed (a failing deref is a filter).
//   6. Register compaction + aux/theta rebuild.
//
// Why outputs are byte-identical: eligible rules' head effects are
// order-insensitive *sets* of emitted valuations, and every pass either
// removes work that cannot affect which valuations are emitted (2, 3, 5)
// or skips candidates that provably fail a later filter before emitting
// (4), in the same canonical candidate order. The engine x mode x threads
// differential matrix enforces this with the unoptimized IL and the
// tree-walker as two independent oracles.

#ifndef IQLKIT_IQL_ILOPT_H_
#define IQLKIT_IQL_ILOPT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.h"
#include "base/interner.h"
#include "iql/ast.h"
#include "iql/il.h"
#include "iql/ilcheck.h"
#include "model/type.h"

namespace iqlkit::il {

// Why the optimizer dropped an instruction -- the L001 evidence.
enum class RemoveReason : uint8_t {
  kValueNumbered,   // duplicate pure producer; the earlier register serves
  kRedundantCheck,  // an identical check already succeeded on this path
  kTautology,       // the check can never fail after equality propagation
  kProbeImplied,    // implied by a strict probe key sunk into its scan
  kDeadValue,       // pure producer whose result is never read
};

// Stable lowercase name ("value-numbered", "dead-value", ...).
std::string_view RemoveReasonName(RemoveReason reason);

struct RemovedInstr {
  uint32_t pc = 0;        // pc in the ORIGINAL rule
  uint32_t src = kNoSrc;  // originating body literal (Instr::src)
  RemoveReason reason = RemoveReason::kDeadValue;
};

// A statically-always-failing filter: the body provably emits nothing.
struct EmptyReason {
  uint32_t pc = 0;        // pc of the contradiction in the ORIGINAL rule
  uint32_t src = kNoSrc;  // its body literal
  std::string detail;
};

struct OptResult {
  CompiledRule rule;
  std::vector<RemovedInstr> removed;       // ascending original pc
  std::vector<uint32_t> strict_scans;      // original pcs made strict
  std::optional<EmptyReason> statically_empty;  // first contradiction (L003)
};

// Runs the passes above over one verifier-clean compiled rule. The result
// is re-verified in debug builds. Idempotent: optimizing the output again
// removes nothing further.
OptResult OptimizeRule(const CompiledRule& cr);

// The evaluator's entry point: optimize, keep only the rewritten rule.
CompiledRule OptimizeForExecution(const CompiledRule& cr);

// ---- L-series lint --------------------------------------------------------
//
//   L001 (hint)    dead/redundant instruction the optimizer eliminates
//   L002 (hint)    join scan with no bindable probe key: a full scan of the
//                  container per outer candidate
//   L003 (warning) statically empty rule body (always-failing filter)
//   L004 (error)   verifier violation (malformed IL; never from CompileRule)
//
// Spans map through Instr::src to the source literal that lowered to the
// instruction (whole-rule span when the instruction was synthesized).
// Tree-walk fallback rules are skipped: they have no IL to diagnose.
void LintProgramIl(const Program& prog, const SymbolTable& syms,
                   const TypePool& types, DiagnosticSink* sink);

// Renders L-series diagnostics for one already-compiled rule (the
// building block LintProgramIl uses; exposed for tests and tools).
void LintCompiledRule(const CompiledRule& cr, const Rule& rule,
                      const SymbolTable& syms, const TypePool& types,
                      DiagnosticSink* sink);

// ---- extended IL dump -----------------------------------------------------

struct IlDumpOptions {
  bool optimize = false;        // dump the optimizer's output
  bool delta_variants = false;  // also dump each semi-naive delta variant
};

// DumpProgramIl with options. Delta variants are dumped for every positive
// relation-membership body literal whose relation is a head relation of
// the same stage -- a superset of the variants semi-naive evaluation
// compiles (it also requires stage eligibility), so the golden corpus pins
// every lowering the evaluator can request.
std::string DumpProgramIl(const Program& prog, const SymbolTable& syms,
                          const TypePool& types, const IlDumpOptions& opts);

}  // namespace iqlkit::il

#endif  // IQLKIT_IQL_ILOPT_H_
