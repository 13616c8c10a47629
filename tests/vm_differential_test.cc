// The register VM against the tree-walker on hand-picked programs:
// WriteFacts byte-identity across evaluation modes on a join-heavy TC, a
// statically empty rule that still runs, and the exact per-rule
// vm_instructions count of a hand-traced run.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "iql/eval.h"
#include "iql/parser.h"
#include "model/universe.h"

namespace iqlkit {
namespace {

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

// A join-heavy program with enough facts that hash buckets and candidate
// lists are non-trivial.
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

TEST(VmDifferentialTest, VmMatchesTreeWalkerAcrossModes) {
  std::string source = JoinProgram();
  for (bool seminaive : {false, true}) {
    for (bool indexing : {false, true}) {
      EvalOptions options;
      options.engine = EvalOptions::Engine::kTreeWalk;
      options.enable_seminaive = seminaive;
      options.enable_indexing = indexing;
      std::string tree = RunToFacts(source, options);
      options.engine = EvalOptions::Engine::kVm;
      EXPECT_EQ(tree, RunToFacts(source, options))
          << "seminaive " << seminaive << ", indexing " << indexing;
    }
  }
}

// The first rule's body is statically empty (iqlint --il reports L003);
// the always-failing compare stays in the IL and fails fast at runtime.
TEST(VmDifferentialTest, StaticallyEmptyRuleStillRunsByteIdentical) {
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
  options.engine = EvalOptions::Engine::kTreeWalk;
  std::string tree = RunToFacts(source, options);
  options.engine = EvalOptions::Engine::kVm;
  EXPECT_EQ(tree, RunToFacts(source, options));
}

// vm_instructions is exactly one per dispatched instruction. Pinned on a
// hand-traced naive, serial TC run over the path 1 -> 2 -> 3 -> 4 (the IL
// is tests/golden_il/tc.expected):
//
//   * Rule 0 (7 instrs) costs 1 + 6|E| = 19 per round: the scan, then
//     match..emit per edge, each backtrack resuming at %1.
//   * Rule 1 costs 1 for the TC scan, then per TC tuple (x, y) 5 for
//     %1..%5, 1 for the E probe, and per successor of y the 6 instructions
//     after the probe (match, field, cmp, field, bind, emit). A y with no
//     successor misses every bucket and fails at the probe.
//   * Rounds see TC = {}, {12, 23, 34}, + {13, 24}, + {14}; the fourth
//     derives nothing new. TC tuples ending in 2 or 3 have one successor,
//     those ending in 4 none.
//
// Rule 1 costs 1, 31, 49, 55 over the four rounds (136), with 12 per TC
// tuple that has a successor. A backtrack that counted the resumed
// instruction twice would overshoot.
TEST(VmDifferentialTest, VmInstructionsCountEachDispatchOnce) {
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
  EvalMetrics metrics;
  RunToFacts(source, options, &metrics);
  ASSERT_EQ(metrics.rules.size(), 2u);
  EXPECT_EQ(metrics.rules[0].invocations, 4u);
  EXPECT_EQ(metrics.rules[0].vm_instructions, 4u * 19u);
  EXPECT_EQ(metrics.rules[1].vm_instructions, 136u);
  // The JSON rendering exposes the counter for the bench harness.
  EXPECT_NE(metrics.ToJson().find("\"vm_instructions\":136"),
            std::string::npos);
}

}  // namespace
}  // namespace iqlkit
