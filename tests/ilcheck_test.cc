// The IL verifier and the dataflow analyses under it (iql/ilcheck.h):
// every compiled example rule (delta variants included) verifies clean,
// and a hand-written corpus of malformed rules -- use-before-def, double
// defs, bad aux/shape/probe encodings, misplaced terminators, broken
// theta -- is rejected with the expected violation. The corpus is exactly
// the invariant set the VM executes without runtime guards.

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

TEST(IlVerifierTest, StrictWithoutProbeSpec) {
  CompiledRule cr = Base();
  cr.code[0].op = Op::kScanRel;
  cr.code[0].strict = true;  // naux == 0
  ExpectViolation(cr, "strict flag without a container-scan probe spec");
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
        if (dv.has_value()) EXPECT_TRUE(VerifyRule(*dv).empty());
      }
    }
  }
}

TEST(IlDataflowTest, DefUseAndLiveness) {
  Universe u;
  auto unit = ParseUnit(&u, kTc);
  ASSERT_TRUE(unit.ok()) << unit.status();
  ASSERT_TRUE(TypeCheck(&u, unit->schema, &unit->program).ok());
  // Rule 1: TC(x, z) :- TC(x, y), E(y, z): two scans, the join register.
  const Rule& join = unit->program.stages[0][1];
  auto cr = CompileRule(unit->program, join);
  ASSERT_TRUE(cr.has_value());
  DefUse du = BuildDefUse(*cr);
  ASSERT_EQ(du.def.size(), cr->num_regs);
  for (uint16_t r = 0; r < cr->num_regs; ++r) {
    EXPECT_GE(du.def[r], 0) << "r" << r << " never defined";
    for (uint32_t use : du.uses[r]) {
      EXPECT_GT(static_cast<int>(use), du.def[r])
          << "use of r" << r << " at or before its def";
    }
  }
  // The outer tuple's first field (x) is read only before the inner scan
  // but stays live across it: it is a theta register, read at kEmit.
  std::vector<LiveRange> live = ComputeLiveRanges(*cr);
  int inner_scan = -1;
  int scans = 0;
  for (size_t pc = 0; pc < cr->code.size(); ++pc) {
    Op op = cr->code[pc].op;
    if (op == Op::kScanRel || op == Op::kScanDelta) {
      if (++scans == 2) inner_scan = static_cast<int>(pc);
    }
  }
  ASSERT_GT(inner_scan, 0);
  bool some_register_crosses = false;
  for (const LiveRange& lr : live) some_register_crosses |= lr.crosses_scan;
  EXPECT_TRUE(some_register_crosses);
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

}  // namespace
}  // namespace iqlkit::il
