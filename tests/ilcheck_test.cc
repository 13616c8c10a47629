// The IL verifier and the dataflow analyses under it (iql/ilcheck.h):
// every compiled example rule (delta variants included) verifies clean,
// and a hand-written corpus of malformed rules -- use-before-def, double
// defs, bad aux/shape/probe encodings, misplaced terminators, broken
// theta -- is rejected with the expected violation. The corpus is exactly
// the invariant set the VM executes without runtime guards. The L-series
// lint built on them gets one case per code and one per reason the
// statically-empty pass (L003) reports.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "iql/il.h"
#include "iql/ilcheck.h"
#include "iql/parser.h"
#include "iql/typecheck.h"
#include "model/universe.h"

namespace iqlkit::il {
namespace {

// A minimal well-formed body: one extent scan feeding kEmit.
CompiledRule Base() {
  CompiledRule cr;
  Instr scan;
  scan.op = Op::kScanExtent;
  scan.dst = 0;
  Instr emit;
  emit.op = Op::kEmit;
  cr.code = {scan, emit};
  cr.num_regs = 1;
  return cr;
}

void ExpectViolation(const CompiledRule& cr, const std::string& needle) {
  std::vector<IlViolation> violations = VerifyRule(cr);
  ASSERT_FALSE(violations.empty()) << "expected a violation: " << needle;
  for (const IlViolation& v : violations) {
    if (v.detail.find(needle) != std::string::npos) return;
  }
  std::string all;
  for (const IlViolation& v : violations) all += v.detail + "; ";
  FAIL() << "no violation mentions '" << needle << "'; got: " << all;
}

TEST(IlVerifierTest, MinimalRuleIsClean) {
  EXPECT_TRUE(VerifyRule(Base()).empty());
}

TEST(IlVerifierTest, EmptyBody) {
  CompiledRule cr;
  ExpectViolation(cr, "empty body");
}

TEST(IlVerifierTest, EmitBeforeEnd) {
  CompiledRule cr = Base();
  std::swap(cr.code[0], cr.code[1]);
  ExpectViolation(cr, "kEmit before the end");
  ExpectViolation(cr, "last instruction is not kEmit");
}

TEST(IlVerifierTest, UseBeforeDef) {
  CompiledRule cr = Base();
  Instr deref;
  deref.op = Op::kDeref;
  deref.dst = 1;
  deref.a = 1;  // reads its own (not yet defined) register
  cr.code.insert(cr.code.begin(), deref);
  cr.num_regs = 2;
  ExpectViolation(cr, "use of r1 before definition");
}

TEST(IlVerifierTest, RegisterOutOfRange) {
  CompiledRule cr = Base();
  Instr cmp;
  cmp.op = Op::kCmp;
  cmp.a = 0;
  cmp.b = 7;  // num_regs is 1
  cr.code.insert(cr.code.begin() + 1, cmp);
  ExpectViolation(cr, "register r7 out of range");
}

TEST(IlVerifierTest, DoubleDefinition) {
  CompiledRule cr = Base();
  Instr load;
  load.op = Op::kLoadConst;
  load.dst = 0;  // the scan already defines r0
  cr.code.insert(cr.code.begin() + 1, load);
  ExpectViolation(cr, "defined twice");
}

TEST(IlVerifierTest, AuxOnAuxFreeInstruction) {
  CompiledRule cr = Base();
  cr.code[0].op = Op::kScanDelta;
  cr.delta_literal = 0;
  cr.code[0].naux = 2;
  cr.aux = {0, 0};
  // Reported both as misplaced aux and as a probe on a delta scan.
  ExpectViolation(cr, "probe spec on a delta/extent scan");
  cr.code[0].op = Op::kScanExtent;
  cr.delta_literal = kNoDelta;
  ExpectViolation(cr, "aux operands on an instruction that takes none");
}

TEST(IlVerifierTest, AuxRangeOutOfBounds) {
  CompiledRule cr = Base();
  cr.code[0].op = Op::kScanRel;
  cr.code[0].aux = 4;
  cr.code[0].naux = 2;
  cr.aux = {0, 0};  // [4, 6) does not fit
  ExpectViolation(cr, "aux range");
}

TEST(IlVerifierTest, OddProbeSpec) {
  CompiledRule cr = Base();
  cr.code[0].op = Op::kScanRel;
  cr.code[0].naux = 1;
  cr.aux = {3};
  ExpectViolation(cr, "odd operand count");
}

TEST(IlVerifierTest, ProbeAttrsNotAscending) {
  CompiledRule cr;
  Instr load;
  load.op = Op::kLoadConst;
  load.dst = 0;
  Instr scan;
  scan.op = Op::kScanRel;
  scan.dst = 1;
  scan.aux = 0;
  scan.naux = 4;
  Instr emit;
  emit.op = Op::kEmit;
  cr.code = {load, scan, emit};
  cr.aux = {5, 0, 5, 0};  // duplicate attr 5
  cr.num_regs = 2;
  ExpectViolation(cr, "not strictly ascending");
}

TEST(IlVerifierTest, ProbeKeyUnbound) {
  CompiledRule cr;
  Instr scan;
  scan.op = Op::kScanRel;
  scan.dst = 0;
  scan.aux = 0;
  scan.naux = 2;
  Instr emit;
  emit.op = Op::kEmit;
  cr.code = {scan, emit};
  cr.aux = {3, 1};  // key register r1 is never defined
  cr.num_regs = 2;
  ExpectViolation(cr, "use of r1 before definition");
}

TEST(IlVerifierTest, ShapeIndexOutOfRange) {
  CompiledRule cr = Base();
  Instr match;
  match.op = Op::kMatchTuple;
  match.a = 0;
  match.imm = 3;  // no shapes at all
  cr.code.insert(cr.code.begin() + 1, match);
  ExpectViolation(cr, "shape index 3 out of range");
}

TEST(IlVerifierTest, TupleOperandCountMismatch) {
  CompiledRule cr = Base();
  Instr mk;
  mk.op = Op::kMakeTuple;
  mk.dst = 1;
  mk.imm = 0;
  mk.aux = 0;
  mk.naux = 1;
  cr.code.insert(cr.code.begin() + 1, mk);
  cr.aux = {0};
  cr.shapes = {{1, 2}};  // two attrs, one operand
  cr.num_regs = 2;
  ExpectViolation(cr, "tuple operand count does not match its shape");
}

TEST(IlVerifierTest, UnguardedGetField) {
  CompiledRule cr = Base();
  Instr get;
  get.op = Op::kGetField;
  get.dst = 1;
  get.a = 0;
  cr.code.insert(cr.code.begin() + 1, get);
  cr.num_regs = 2;
  ExpectViolation(cr, "without a dominating kMatchTuple");
}

TEST(IlVerifierTest, GetFieldPastGuardShape) {
  CompiledRule cr = Base();
  Instr match;
  match.op = Op::kMatchTuple;
  match.a = 0;
  match.imm = 0;
  Instr get;
  get.op = Op::kGetField;
  get.dst = 1;
  get.a = 0;
  get.imm = 5;  // shape has one field
  cr.code.insert(cr.code.begin() + 1, get);
  cr.code.insert(cr.code.begin() + 1, match);
  cr.shapes = {{4}};
  cr.num_regs = 2;
  ExpectViolation(cr, "out of range for the guarding");
}

TEST(IlVerifierTest, DeltaOpInFullVariant) {
  CompiledRule cr = Base();
  cr.code[0].op = Op::kScanDelta;
  ExpectViolation(cr, "delta op in a full-evaluation variant");
}

TEST(IlVerifierTest, DeltaVariantWithoutDeltaOp) {
  CompiledRule cr = Base();
  cr.delta_literal = 0;
  ExpectViolation(cr, "delta variant without a delta op");
}

TEST(IlVerifierTest, MultipleDeltaOps) {
  CompiledRule cr = Base();
  cr.delta_literal = 0;
  cr.code[0].op = Op::kScanDelta;
  Instr check;
  check.op = Op::kCheckDelta;
  check.b = 0;
  cr.code.insert(cr.code.begin() + 1, check);
  ExpectViolation(cr, "multiple delta ops");
}

TEST(IlVerifierTest, ThetaBroken) {
  CompiledRule cr = Base();
  cr.theta = {{7, 0}, {3, 0}};  // not sorted by symbol
  ExpectViolation(cr, "theta not strictly sorted");
  cr = Base();
  cr.theta = {{3, 9}};
  ExpectViolation(cr, "theta register r9 out of range");
}

TEST(IlVerifierTest, GetFieldOnProvableNonTuple) {
  CompiledRule cr;
  Instr load;
  load.op = Op::kLoadConst;
  load.dst = 0;
  load.sym = 11;
  Instr match;
  match.op = Op::kMatchTuple;
  match.a = 0;
  match.imm = 0;
  Instr get;
  get.op = Op::kGetField;
  get.dst = 1;
  get.a = 0;
  get.imm = 0;
  Instr emit;
  emit.op = Op::kEmit;
  cr.code = {load, match, get, emit};
  cr.shapes = {{4}};
  cr.num_regs = 2;
  ExpectViolation(cr, "statically never a tuple");
}

// ---- compiled-rule coverage ----------------------------------------------

const char* kTc = R"(
  schema { relation E : [D, D]; relation TC : [D, D]; }
  input E; output TC;
  program {
    TC(x, y) :- E(x, y).
    TC(x, z) :- TC(x, y), E(y, z).
  }
)";

TEST(IlVerifierTest, CompiledRulesVerifyClean) {
  Universe u;
  auto unit = ParseUnit(&u, kTc);
  ASSERT_TRUE(unit.ok()) << unit.status();
  ASSERT_TRUE(TypeCheck(&u, unit->schema, &unit->program).ok());
  for (const auto& stage : unit->program.stages) {
    for (const Rule& rule : stage) {
      auto cr = CompileRule(unit->program, rule);
      ASSERT_TRUE(cr.has_value());
      EXPECT_TRUE(VerifyRule(*cr).empty());
      for (size_t d = 0; d < rule.body.size(); ++d) {
        auto dv = CompileRule(unit->program, rule, d);
        if (dv.has_value()) {
          EXPECT_TRUE(VerifyRule(*dv).empty());
        }
      }
    }
  }
}

TEST(IlDataflowTest, AbstractValuesAndDistinctness) {
  AbsVal any;
  AbsVal c1{AbsVal::Kind::kConst, 1, 0};
  AbsVal c2{AbsVal::Kind::kConst, 2, 0};
  AbsVal t0{AbsVal::Kind::kTuple, kInvalidSymbol, 0};
  AbsVal t1{AbsVal::Kind::kTuple, kInvalidSymbol, 1};
  AbsVal s{AbsVal::Kind::kSet, kInvalidSymbol, 0};
  AbsVal rel{AbsVal::Kind::kRelValue, 5, 0};
  EXPECT_FALSE(ProvablyDistinct(any, c1));
  EXPECT_TRUE(ProvablyDistinct(c1, c2));
  EXPECT_FALSE(ProvablyDistinct(c1, c1));
  EXPECT_TRUE(ProvablyDistinct(t0, t1));
  EXPECT_TRUE(ProvablyDistinct(c1, t0));
  // Set-family values may be extensionally equal however they were built.
  EXPECT_FALSE(ProvablyDistinct(s, rel));
  EXPECT_TRUE(NeverSet(c1));
  EXPECT_TRUE(NeverSet(t0));
  EXPECT_FALSE(NeverSet(any));
  EXPECT_FALSE(NeverSet(s));
  EXPECT_TRUE(NeverTuple(c1));
  EXPECT_TRUE(NeverTuple(s));
  EXPECT_FALSE(NeverTuple(any));
}

// ---- L-series lint --------------------------------------------------------

std::vector<Diagnostic> LintSource(const char* source) {
  Universe u;
  auto unit = ParseUnit(&u, source);
  EXPECT_TRUE(unit.ok()) << unit.status();
  if (!unit.ok()) return {};
  Status checked = TypeCheck(&u, unit->schema, &unit->program);
  EXPECT_TRUE(checked.ok()) << checked;
  DiagnosticSink sink;
  LintProgramIl(unit->program, u.symbols(), u.types(), &sink);
  return sink.diagnostics();
}

// Lints hand-built IL under a rule with no body: every span falls back to
// the (empty) rule span.
std::vector<Diagnostic> LintHandBuilt(const CompiledRule& cr) {
  Universe u;
  Rule rule;
  DiagnosticSink sink;
  LintCompiledRule(cr, rule, u.symbols(), u.types(), &sink);
  return sink.diagnostics();
}

int Count(const std::vector<Diagnostic>& diags, const std::string& code) {
  int n = 0;
  for (const Diagnostic& d : diags) n += d.code == code;
  return n;
}

// The single L003 message, or "" when the body is not statically empty.
std::string L003Message(const std::vector<Diagnostic>& diags) {
  EXPECT_LE(Count(diags, "L003"), 1);
  for (const Diagnostic& d : diags) {
    if (d.code == "L003") {
      EXPECT_EQ(d.severity, Severity::kWarning);
      return d.message;
    }
  }
  return "";
}

Instr Make(Op op, uint16_t dst = 0, uint16_t a = 0, uint16_t b = 0) {
  Instr in;
  in.op = op;
  in.dst = dst;
  in.a = a;
  in.b = b;
  return in;
}

Instr Const(uint16_t dst, Symbol sym) {
  Instr in = Make(Op::kLoadConst, dst);
  in.sym = sym;
  return in;
}

TEST(IlLintTest, CanonicalTcJoinIsLintClean) {
  // The join's E scan is keyed on y, and nothing is statically empty.
  std::vector<Diagnostic> diags = LintSource(kTc);
  EXPECT_TRUE(diags.empty()) << diags.size() << " diagnostics, first "
                             << diags[0].code << ": " << diags[0].message;
}

TEST(IlLintTest, UnbindableJoinScanReportsL002) {
  std::vector<Diagnostic> diags = LintSource(R"(
    schema { relation R : [D, D]; relation S : [D, D]; relation T : [D, D]; }
    input R, S; output T;
    program { T(x, w) :- R(x, y), S(z, w). }
  )");
  EXPECT_GE(Count(diags, "L002"), 1);
  for (const Diagnostic& d : diags) {
    EXPECT_TRUE(d.span.valid()) << d.code << ": " << d.message;
  }
}

TEST(IlLintTest, StaticallyEmptyBodyReportsL003Warning) {
  const char* source = R"(
    schema { relation R : D; relation S : D; }
    input R; output S;
    program { S(x) :- R(x), x = "a", x = "b". }
  )";
  std::vector<Diagnostic> diags = LintSource(source);
  EXPECT_EQ(Count(diags, "L003"), 1);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  // The span is the contradicting literal, not the whole rule.
  EXPECT_EQ(std::string(source).substr(diags[0].span.offset,
                                       diags[0].span.length),
            "x = \"b\"");
}

TEST(IlLintTest, MalformedIlReportsL004Error) {
  CompiledRule cr;
  cr.code = {Make(Op::kScanExtent, 0), Make(Op::kCmp, 0, 0, 40),
             Make(Op::kEmit)};
  cr.num_regs = 1;  // r40 is out of range
  std::vector<Diagnostic> diags = LintHandBuilt(cr);
  EXPECT_GE(Count(diags, "L004"), 1);
  // A malformed rule is not fed to the L003 pass: no L003 noise.
  EXPECT_EQ(Count(diags, "L003"), 0);
  for (const Diagnostic& d : diags) EXPECT_EQ(d.severity, Severity::kError);
}

// One case per reason FindStaticallyEmpty reports. Source programs cover
// what CompileRule lowers; the rest is built by hand.

TEST(IlLintTest, DistinctConstantsComparedEqualReportsL003) {
  EXPECT_NE(L003Message(LintSource(R"(
    schema { relation R : D; relation S : D; }
    input R; output S;
    program { S(x) :- R(x), y = "a", x = y, x = "b". }
  )")).find("equality of provably distinct values"),
            std::string::npos);
  // Through an equality class: r0 = "a" succeeded, so r0 = "b" cannot.
  CompiledRule cr;
  cr.code = {Make(Op::kScanExtent, 0), Const(1, 1), Make(Op::kCmp, 0, 0, 1),
             Const(2, 2), Make(Op::kCmp, 0, 0, 2), Make(Op::kEmit)};
  cr.num_regs = 3;
  EXPECT_EQ(L003Message(LintHandBuilt(cr)),
            "rule body is statically empty: equality of provably distinct "
            "values (%4: cmp r0, r2); the rule can never fire");
}

TEST(IlLintTest, ValueComparedUnequalToItselfReportsL003) {
  // x != x compares one register; "a" != "a" compares two loads of the
  // same constant, which value numbering merges.
  std::vector<Diagnostic> diags = LintSource(R"(
    schema { relation R : D; relation S : D; }
    input R; output S;
    program {
      S(x) :- R(x), x != x.
      S(x) :- R(x), "a" != "a".
    }
  )");
  ASSERT_EQ(Count(diags, "L003"), 2);
  for (const Diagnostic& d : diags) {
    EXPECT_NE(d.message.find("a value compared unequal to itself"),
              std::string::npos)
        << d.message;
  }
}

TEST(IlLintTest, TupleMatchOnNonTupleReportsL003) {
  CompiledRule cr;
  Instr match = Make(Op::kMatchTuple, 0, 0);
  match.imm = 0;
  cr.code = {Const(0, 1), match, Make(Op::kEmit)};
  cr.shapes = {{}};
  cr.num_regs = 1;
  EXPECT_NE(L003Message(LintHandBuilt(cr))
                .find("tuple match over a value that is never a tuple "
                      "(%1: match_tuple r0 [])"),
            std::string::npos);
}

TEST(IlLintTest, MembershipInNonSetReportsL003) {
  // kCheckIn fails on a non-set container in either polarity.
  for (bool pol : {true, false}) {
    CompiledRule cr;
    Instr check = Make(Op::kCheckIn, 0, /*a=*/0, /*b=*/1);
    check.pol = pol;
    cr.code = {Const(0, 1), Make(Op::kScanExtent, 1), check,
               Make(Op::kEmit)};
    cr.num_regs = 2;
    EXPECT_NE(L003Message(LintHandBuilt(cr))
                  .find("membership test in a value that is never a set "
                        "(%2: check_in r1"),
              std::string::npos)
        << "pol " << pol;
  }
  // A scan candidate the body matched as a tuple is never a set.
  CompiledRule cr;
  Instr match = Make(Op::kMatchTuple, 0, 0);
  match.imm = 0;
  cr.code = {Make(Op::kScanExtent, 0), match, Make(Op::kScanExtent, 1),
             Make(Op::kCheckIn, 0, /*a=*/0, /*b=*/1), Make(Op::kEmit)};
  cr.shapes = {{}};
  cr.num_regs = 2;
  EXPECT_NE(L003Message(LintHandBuilt(cr))
                .find("membership test in a value that is never a set "
                      "(%3: check_in r1 in r0)"),
            std::string::npos);
}

TEST(IlLintTest, ScanOfNonSetReportsL003) {
  CompiledRule cr;
  Instr tuple = Make(Op::kMakeTuple, 0);
  tuple.imm = 0;  // the empty tuple
  cr.code = {tuple, Make(Op::kScanSet, 1, 0), Make(Op::kEmit)};
  cr.shapes = {{}};
  cr.num_regs = 2;
  EXPECT_NE(L003Message(LintHandBuilt(cr))
                .find("scan of a value that is never a set "
                      "(%1: r1 = scan_set r0)"),
            std::string::npos);
}

TEST(IlLintTest, RepeatedEqualityIsNotStaticallyEmpty) {
  EXPECT_EQ(L003Message(LintSource(R"(
    schema { relation R : D; relation S : D; }
    input R; output S;
    program { S(x) :- R(x), x = "a", x = "a". }
  )")),
            "");
  // The second load of the same constant value-numbers into the class r0
  // already joined, so the repeated compare is no contradiction.
  CompiledRule cr;
  cr.code = {Make(Op::kScanExtent, 0), Const(1, 1), Make(Op::kCmp, 0, 0, 1),
             Const(2, 1), Make(Op::kCmp, 0, 0, 2), Make(Op::kEmit)};
  cr.num_regs = 3;
  EXPECT_EQ(L003Message(LintHandBuilt(cr)), "");
}

TEST(IlLintTest, InequalityOfDistinctConstantsIsNotStaticallyEmpty) {
  EXPECT_EQ(L003Message(LintSource(R"(
    schema { relation R : D; relation S : D; }
    input R; output S;
    program { S(x) :- R(x), "a" != "b". }
  )")),
            "");
}

}  // namespace
}  // namespace iqlkit::il
