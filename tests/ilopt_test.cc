// The verified IL optimizer (iql/ilopt.h): per-pass unit checks on small
// programs, idempotence of the pass pipeline, the L-series lint codes it
// powers, the strictness of optimized probe scans on both the indexed and
// unindexed paths, and -- the property everything else exists to protect --
// WriteFacts byte-identity of optimized runs against two independent
// oracles (the tree-walker and the unoptimized VM) across evaluation
// modes, with the vm_instructions metric shrinking, never growing.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "iql/eval.h"
#include "iql/il.h"
#include "iql/ilcheck.h"
#include "iql/ilopt.h"
#include "iql/parser.h"
#include "iql/typecheck.h"
#include "model/universe.h"

namespace iqlkit::il {
namespace {

// Keeps the universe and parsed unit alive next to the compiled rules.
struct Compiled {
  std::unique_ptr<Universe> u = std::make_unique<Universe>();
  std::optional<ParsedUnit> unit;

  explicit Compiled(const std::string& source) {
    auto parsed = ParseUnit(u.get(), source);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    if (!parsed.ok()) return;
    unit.emplace(std::move(*parsed));
    Status checked = TypeCheck(u.get(), unit->schema, &unit->program);
    EXPECT_TRUE(checked.ok()) << checked;
  }

  const Rule& rule(size_t stage, size_t index) const {
    return unit->program.stages[stage][index];
  }

  CompiledRule compile(size_t stage, size_t index,
                       size_t delta = kNoDelta) const {
    auto cr = CompileRule(unit->program, rule(stage, index), delta);
    EXPECT_TRUE(cr.has_value());
    return cr.value_or(CompiledRule{});
  }

  std::string disasm(const CompiledRule& cr) const {
    return Disassemble(cr, u->symbols(), u->types());
  }
};

const char* kTc = R"(
  schema { relation E : [D, D]; relation TC : [D, D]; }
  input E; output TC;
  program {
    TC(x, y) :- E(x, y).
    TC(x, z) :- TC(x, y), E(y, z).
  }
)";

bool HasReason(const OptResult& opt, RemoveReason reason) {
  for (const RemovedInstr& rm : opt.removed) {
    if (rm.reason == reason) return true;
  }
  return false;
}

// ---- pass units -----------------------------------------------------------

TEST(IlOptTest, JoinProbeBecomesStrictAndImpliedCompareDrops) {
  Compiled c(kTc);
  CompiledRule cr = c.compile(0, 1);
  OptResult opt = OptimizeRule(cr);
  EXPECT_TRUE(VerifyRule(opt.rule).empty());
  ASSERT_EQ(opt.strict_scans.size(), 1u);
  EXPECT_TRUE(HasReason(opt, RemoveReason::kProbeImplied));  // the cmp
  EXPECT_TRUE(HasReason(opt, RemoveReason::kDeadValue));     // the field
  EXPECT_FALSE(opt.statically_empty.has_value());
  EXPECT_LT(opt.rule.code.size(), cr.code.size());
  // The probe survives, strict; the original rule is untouched.
  EXPECT_NE(c.disasm(opt.rule).find("probe!["), std::string::npos);
  EXPECT_EQ(c.disasm(cr).find("probe!["), std::string::npos);
  // Every removal carries provenance into the source rule's body.
  for (const RemovedInstr& rm : opt.removed) {
    EXPECT_LT(rm.pc, cr.code.size());
    EXPECT_LT(rm.src, c.rule(0, 1).body.size());
  }
}

TEST(IlOptTest, DeltaVariantOptimizesLikeTheFullVariant) {
  Compiled c(kTc);
  CompiledRule dv = c.compile(0, 1, /*delta=*/0);
  OptResult opt = OptimizeRule(dv);
  EXPECT_TRUE(VerifyRule(opt.rule).empty());
  EXPECT_EQ(opt.rule.delta_literal, 0u);
  EXPECT_EQ(opt.strict_scans.size(), 1u);
}

TEST(IlOptTest, EqualityPropagationCollapsesDuplicateConstants) {
  Compiled c(R"(
    schema { relation R : D; relation S : D; }
    input R; output S;
    program { S(x) :- R(x), x = "a", x = "a". }
  )");
  CompiledRule cr = c.compile(0, 0);
  OptResult opt = OptimizeRule(cr);
  EXPECT_TRUE(VerifyRule(opt.rule).empty());
  // The two kLoadConst "a" value-number together and the repeated
  // equality is recognized (as a redundant check or a tautology on the
  // unified class).
  EXPECT_TRUE(HasReason(opt, RemoveReason::kValueNumbered));
  EXPECT_TRUE(HasReason(opt, RemoveReason::kRedundantCheck) ||
              HasReason(opt, RemoveReason::kTautology));
  EXPECT_FALSE(opt.statically_empty.has_value());
}

TEST(IlOptTest, ContradictoryConstantsAreStaticallyEmpty) {
  Compiled c(R"(
    schema { relation R : D; relation S : D; }
    input R; output S;
    program { S(x) :- R(x), x = "a", x = "b". }
  )");
  CompiledRule cr = c.compile(0, 0);
  OptResult opt = OptimizeRule(cr);
  EXPECT_TRUE(VerifyRule(opt.rule).empty());
  ASSERT_TRUE(opt.statically_empty.has_value());
  // The contradicting check stays in place: it fails fast at runtime and
  // the emitted set (empty) is unchanged.
  EXPECT_LT(opt.statically_empty->src, c.rule(0, 0).body.size());
}

TEST(IlOptTest, InequalityOfDistinctConstantsIsTautological) {
  Compiled c(R"(
    schema { relation R : D; relation S : D; }
    input R; output S;
    program { S(x) :- R(x), "a" != "b". }
  )");
  CompiledRule cr = c.compile(0, 0);
  OptResult opt = OptimizeRule(cr);
  EXPECT_TRUE(VerifyRule(opt.rule).empty());
  EXPECT_TRUE(HasReason(opt, RemoveReason::kTautology));
  EXPECT_FALSE(opt.statically_empty.has_value());
}

TEST(IlOptTest, OptimizeIsIdempotentOnEveryCompiledRule) {
  for (const char* source : {kTc, R"(
    schema { relation R : [D, D]; relation S : [D, D]; relation T : [D, D]; }
    input R, S; output T;
    program {
      T(x, z) :- R(x, y), S(y, z).
      T(x, y) :- R(x, y), S(x, y).
      T(x, x) :- R(x, x).
    }
  )"}) {
    Compiled c(source);
    for (const auto& stage : c.unit->program.stages) {
      for (const Rule& rule : stage) {
        auto cr = CompileRule(c.unit->program, rule);
        if (!cr.has_value()) continue;
        OptResult once = OptimizeRule(*cr);
        OptResult twice = OptimizeRule(once.rule);
        EXPECT_TRUE(twice.removed.empty())
            << "second pass still removes instructions";
        EXPECT_EQ(c.disasm(once.rule), c.disasm(twice.rule));
      }
    }
  }
}

// ---- L-series lint --------------------------------------------------------

std::map<std::string, int> CodeCounts(const DiagnosticSink& sink) {
  std::map<std::string, int> counts;
  for (const Diagnostic& d : sink.diagnostics()) ++counts[d.code];
  return counts;
}

TEST(IlLintTest, JoinRuleReportsDeadInstructions) {
  Compiled c(kTc);
  DiagnosticSink sink;
  LintProgramIl(c.unit->program, c.u->symbols(), c.u->types(), &sink);
  auto counts = CodeCounts(sink);
  EXPECT_GE(counts["L001"], 2);  // the implied cmp and the dead field
  EXPECT_EQ(counts["L003"], 0);
  EXPECT_EQ(counts["L004"], 0);
  for (const Diagnostic& d : sink.diagnostics()) {
    EXPECT_TRUE(d.span.valid()) << d.code << ": " << d.message;
  }
}

TEST(IlLintTest, UnbindableJoinScanReportsL002) {
  Compiled c(R"(
    schema { relation R : [D, D]; relation S : [D, D]; relation T : [D, D]; }
    input R, S; output T;
    program { T(x, w) :- R(x, y), S(z, w). }
  )");
  DiagnosticSink sink;
  LintProgramIl(c.unit->program, c.u->symbols(), c.u->types(), &sink);
  auto counts = CodeCounts(sink);
  EXPECT_GE(counts["L002"], 1);
}

TEST(IlLintTest, StaticallyEmptyBodyReportsL003Warning) {
  Compiled c(R"(
    schema { relation R : D; relation S : D; }
    input R; output S;
    program { S(x) :- R(x), x = "a", x = "b". }
  )");
  DiagnosticSink sink;
  LintProgramIl(c.unit->program, c.u->symbols(), c.u->types(), &sink);
  auto counts = CodeCounts(sink);
  EXPECT_EQ(counts["L003"], 1);
  EXPECT_EQ(sink.max_severity(), Severity::kWarning);
}

TEST(IlLintTest, MalformedIlReportsL004Error) {
  Compiled c(kTc);
  CompiledRule cr = c.compile(0, 1);
  cr.code[2].a = 40;  // corrupt: read of an out-of-range register
  DiagnosticSink sink;
  LintCompiledRule(cr, c.rule(0, 1), c.u->symbols(), c.u->types(), &sink);
  auto counts = CodeCounts(sink);
  EXPECT_GE(counts["L004"], 1);
  EXPECT_EQ(sink.max_severity(), Severity::kError);
  // A malformed rule is not fed to the optimizer: no L001/L003 noise.
  EXPECT_EQ(counts["L001"], 0);
  EXPECT_EQ(counts["L003"], 0);
}

// ---- execution equivalence ------------------------------------------------

std::string RunToFacts(const std::string& source, EvalOptions options,
                       EvalMetrics* metrics = nullptr) {
  Universe u;
  auto unit = ParseUnit(&u, source);
  EXPECT_TRUE(unit.ok()) << unit.status();
  if (!unit.ok()) return "<parse error>";
  std::shared_ptr<const Schema> input_schema;
  if (unit->input_names.empty()) {
    input_schema = std::make_shared<const Schema>(unit->schema);
  } else {
    auto projected = unit->schema.Project(unit->input_names);
    EXPECT_TRUE(projected.ok()) << projected.status();
    if (!projected.ok()) return "<projection error>";
    input_schema = std::make_shared<const Schema>(std::move(*projected));
  }
  Instance input(input_schema, &u);
  EXPECT_TRUE(ApplyFacts(*unit, &input).ok());
  options.metrics = metrics;
  auto out = RunUnit(&u, &*unit, input, options);
  EXPECT_TRUE(out.ok()) << out.status();
  if (!out.ok()) return "<eval error>";
  return WriteFacts(*out);
}

// A join-heavy program whose optimized IL contains a strict probe, with
// enough facts that hash buckets and candidate lists are non-trivial.
std::string JoinProgram() {
  std::string source =
      "schema { relation E : [D, D]; relation TC : [D, D]; }\n"
      "input E;\noutput TC;\ninstance {\n";
  uint64_t x = 11;
  for (int i = 0; i < 90; ++i) {
    x = x * 6364136223846793005u + 1442695040888963407u;
    source += "  E(" + std::to_string((x >> 33) % 30) + ", " +
              std::to_string((x >> 13) % 30) + ");\n";
  }
  source +=
      "}\nprogram {\n"
      "  TC(x, y) :- E(x, y).\n"
      "  TC(x, z) :- TC(x, y), E(y, z).\n"
      "}\n";
  return source;
}

TEST(IlOptDifferentialTest, OptimizedRunsMatchBothOracles) {
  std::string source = JoinProgram();
  for (bool seminaive : {false, true}) {
    for (bool indexing : {false, true}) {
      EvalOptions options;
      options.enable_seminaive = seminaive;
      options.enable_indexing = indexing;
      // Oracle 1: the tree-walker. Oracle 2: the unoptimized VM.
      std::string tree = RunToFacts(source, options);
      options.engine = EvalOptions::Engine::kVm;
      std::string vm = RunToFacts(source, options);
      options.il_opt = true;
      std::string vm_opt = RunToFacts(source, options);
      EXPECT_EQ(tree, vm) << "seminaive " << seminaive << ", indexing "
                          << indexing;
      EXPECT_EQ(vm, vm_opt) << "seminaive " << seminaive << ", indexing "
                            << indexing;
    }
  }
}

TEST(IlOptDifferentialTest, StaticallyEmptyRuleStillRunsByteIdentical) {
  std::string source = R"(
    schema { relation R : D; relation S : D; }
    input R; output S;
    instance { R("a"); R("b"); R("c"); }
    program {
      S(x) :- R(x), x = "a", x = "b".
      S(x) :- R(x), x = "c".
    }
  )";
  EvalOptions options;
  std::string tree = RunToFacts(source, options);
  options.engine = EvalOptions::Engine::kVm;
  options.il_opt = true;
  EXPECT_EQ(tree, RunToFacts(source, options));
}

TEST(IlOptDifferentialTest, OptimizerShrinksVmInstructionCount) {
  std::string source = JoinProgram();
  EvalOptions options;
  options.engine = EvalOptions::Engine::kVm;
  EvalMetrics plain;
  RunToFacts(source, options, &plain);
  options.il_opt = true;
  EvalMetrics optimized;
  RunToFacts(source, options, &optimized);
  uint64_t plain_instrs = 0;
  uint64_t opt_instrs = 0;
  for (const RuleMetrics& r : plain.rules) plain_instrs += r.vm_instructions;
  for (const RuleMetrics& r : optimized.rules) {
    opt_instrs += r.vm_instructions;
  }
  EXPECT_GT(plain_instrs, 0u);
  EXPECT_GT(opt_instrs, 0u);
  EXPECT_LT(opt_instrs, plain_instrs);
  // The JSON rendering exposes the counter for the bench harness.
  EXPECT_NE(optimized.ToJson().find("\"vm_instructions\":"),
            std::string::npos);
}

// vm_instructions is exactly one per dispatched instruction. Pinned on a
// hand-traced naive, serial TC run over the path 1 -> 2 -> 3 -> 4 (the
// raw and optimized IL are tests/golden_il{,_opt}/tc.expected):
//
//   * Rule 0 (7 instrs) costs 1 + 6|E| = 19 per round: the scan, then
//     match..emit per edge, each backtrack resuming at %1.
//   * Rule 1 costs 1 for the TC scan, then per TC tuple (x, y) 5 for
//     %1..%5, 1 for the E probe, and per successor of y the instructions
//     after the probe: 6 raw (match, field, cmp, field, bind, emit) or 4
//     optimized (the strict probe absorbed the field + cmp). A y with no
//     successor misses every bucket and fails at the probe.
//   * Rounds see TC = {}, {12, 23, 34}, + {13, 24}, + {14}; the fourth
//     derives nothing new. TC tuples ending in 2 or 3 have one successor,
//     those ending in 4 none.
//
// Raw rule 1 costs 1, 31, 49, 55 over the four rounds (136), with 12 per
// TC tuple that has a successor; optimized, 1, 27, 43, 49 (120), with 10.
// A backtrack that counted the resumed instruction twice would overshoot
// both.
TEST(IlOptDifferentialTest, VmInstructionsCountEachDispatchOnce) {
  const std::string source = R"(
    schema { relation E : [D, D]; relation TC : [D, D]; }
    input E;
    output TC;
    instance { E(1, 2); E(2, 3); E(3, 4); }
    program {
      TC(x, y) :- E(x, y).
      TC(x, z) :- TC(x, y), E(y, z).
    }
  )";
  EvalOptions options;
  options.engine = EvalOptions::Engine::kVm;
  options.enable_seminaive = false;
  options.num_threads = 1;
  for (bool il_opt : {false, true}) {
    options.il_opt = il_opt;
    EvalMetrics metrics;
    RunToFacts(source, options, &metrics);
    ASSERT_EQ(metrics.rules.size(), 2u);
    EXPECT_EQ(metrics.rules[0].invocations, 4u) << "il_opt " << il_opt;
    EXPECT_EQ(metrics.rules[0].vm_instructions, 4u * 19u)
        << "il_opt " << il_opt;
    EXPECT_EQ(metrics.rules[1].vm_instructions, il_opt ? 120u : 136u)
        << "il_opt " << il_opt;
  }
}

}  // namespace
}  // namespace iqlkit::il
