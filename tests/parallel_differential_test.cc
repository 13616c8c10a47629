// Bit-identity of the worker-pool parallel evaluator: for every example
// program and a set of inline invention / choose / deletion programs,
// running with num_threads in {2, 8} must serialize to *byte-identical*
// facts -- not merely O-isomorphic ones -- as the num_threads = 1 run, in
// both naive and semi-naive configurations. Each run uses a fresh
// universe, so invented oids only coincide if the parallel merge fires
// every derivation in exactly the serial order.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "iql/eval.h"
#include "iql/parser.h"
#include "model/universe.h"

namespace iqlkit {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<fs::path> ExamplePaths() {
  std::vector<fs::path> out;
  for (const auto& entry :
       fs::directory_iterator(fs::path(IQLKIT_SOURCE_DIR) / "examples" /
                              "iql")) {
    if (entry.path().extension() == ".iql") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Parses `source` into a fresh universe, applies its embedded instance
// block over the declared input projection, evaluates, and serializes the
// result. Everything oid-related restarts from zero, so two calls agree
// byte-for-byte only if evaluation is fully deterministic.
std::string RunToFacts(const std::string& source, EvalOptions options) {
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
  auto out = RunUnit(&u, &*unit, input, options);
  EXPECT_TRUE(out.ok()) << out.status();
  if (!out.ok()) return "<eval error>";
  return WriteFacts(*out);
}

struct ModeConfig {
  const char* name;
  bool seminaive;
  bool indexing;
  bool scheduling;
};

constexpr ModeConfig kModes[] = {
    {"naive", false, false, false},
    {"seminaive+indexed", true, true, true},
};

void ExpectBitIdenticalAcrossThreadCounts(const std::string& source) {
  for (const ModeConfig& mode : kModes) {
    EvalOptions options;
    options.engine = EvalOptions::Engine::kTreeWalk;
    options.enable_seminaive = mode.seminaive;
    options.enable_indexing = mode.indexing;
    options.enable_scheduling = mode.scheduling;
    options.allow_deletions = true;
    // Fan out even tiny candidate lists so the corpus actually exercises
    // the partition / private-buffer / rehoming merge pipeline.
    options.parallel_min_candidates = 1;
    options.num_threads = 1;
    std::string serial = RunToFacts(source, options);
    // Every (engine, thread count) cell must reproduce the serial
    // tree-walker byte-for-byte -- the VM included, at one thread and
    // under the fan-out.
    for (EvalOptions::Engine engine :
         {EvalOptions::Engine::kTreeWalk, EvalOptions::Engine::kVm}) {
      options.engine = engine;
      for (uint32_t threads : {1u, 2u, 8u}) {
        if (engine == EvalOptions::Engine::kTreeWalk && threads == 1) {
          continue;  // the baseline itself
        }
        options.num_threads = threads;
        EXPECT_EQ(RunToFacts(source, options), serial)
            << "mode " << mode.name << ", engine "
            << (engine == EvalOptions::Engine::kVm ? "vm" : "tree-walk")
            << ", num_threads " << threads;
      }
    }
  }
}

class ExampleParallelTest : public ::testing::TestWithParam<int> {};

TEST_P(ExampleParallelTest, BitIdenticalAcrossThreadCounts) {
  std::vector<fs::path> paths = ExamplePaths();
  ASSERT_LT(static_cast<size_t>(GetParam()), paths.size());
  const fs::path& path = paths[GetParam()];
  SCOPED_TRACE(path.filename().string());
  ExpectBitIdenticalAcrossThreadCounts(ReadFile(path));
}

// One instantiation per examples/iql/*.iql (sorted): genesis,
// graph_encoding (invention + weak assignment), powerset (set-type
// extents), tc, updates (IQL* deletions).
INSTANTIATE_TEST_SUITE_P(Examples, ExampleParallelTest,
                         ::testing::Range(0, 5));

TEST(ParallelDifferentialTest, ExampleCorpusIsWhatWeExpect) {
  // If examples are added, widen the Range above so they are covered.
  EXPECT_EQ(ExamplePaths().size(), 5u);
}

// A relational workload wide enough that every thread count above actually
// splits it into multiple chunks per round.
TEST(ParallelDifferentialTest, WideTransitiveClosure) {
  std::ostringstream source;
  source << "schema { relation E : [D, D]; relation TC : [D, D]; }\n"
            "input E;\noutput TC;\ninstance {\n";
  uint64_t x = 7;
  for (int i = 0; i < 120; ++i) {
    x = x * 6364136223846793005u + 1442695040888963407u;
    source << "  E(" << (x >> 33) % 40 << ", " << (x >> 13) % 40 << ");\n";
  }
  source << "}\nprogram {\n"
            "  TC(x, y) :- E(x, y).\n"
            "  TC(x, z) :- TC(x, y), E(y, z).\n"
            "}\n";
  ExpectBitIdenticalAcrossThreadCounts(source.str());
}

// Invention inside the fan-out: one oid minted per satisfying valuation,
// in canonical order, plus weak assignment of its nu-value.
TEST(ParallelDifferentialTest, InventionOrderIsCanonical) {
  std::ostringstream source;
  source << "schema {\n"
            "  relation E : [D, D];\n"
            "  class P : [D, D];\n"
            "  relation Tag : [D, P];\n"
            "}\n"
            "input E;\noutput Tag, P;\ninstance {\n";
  uint64_t x = 3;
  for (int i = 0; i < 60; ++i) {
    x = x * 6364136223846793005u + 1442695040888963407u;
    source << "  E(" << (x >> 33) % 24 << ", " << (x >> 13) % 24 << ");\n";
  }
  source << "}\nprogram {\n"
            "  Tag(a, p) :- E(a, b).\n"
            "  ;\n"
            "  p^ = [a, a] :- Tag(a, p).\n"
            "}\n";
  ExpectBitIdenticalAcrossThreadCounts(source.str());
}

// Choose (IQL+) after a parallel stage: the choose policy must see the
// same class extent and the same derivation order under every thread
// count, including the seeded kRandom policy.
TEST(ParallelDifferentialTest, ChooseSeesCanonicalOrder) {
  std::string source = R"(
    schema {
      relation R : D;
      class M : D;
      relation Mark : [D, M];
      relation Picked : M;
    }
    input R;
    output Picked, M;
    instance {
      R("a"); R("b"); R("c"); R("d"); R("e"); R("f"); R("g"); R("h");
    }
    program {
      Mark(x, m) :- R(x).
      ;
      Picked(m) :- choose.
    }
  )";
  for (auto policy : {EvalOptions::ChoosePolicy::kMinOid,
                      EvalOptions::ChoosePolicy::kMaxOid,
                      EvalOptions::ChoosePolicy::kRandom}) {
    EvalOptions options;
    options.engine = EvalOptions::Engine::kTreeWalk;
    options.choose_policy = policy;
    options.choose_seed = 42;
    options.parallel_min_candidates = 1;
    options.num_threads = 1;
    std::string serial = RunToFacts(source, options);
    // Under engine=kVm the choose rule itself falls back to the
    // tree-walker (its pick is enumeration-order sensitive) while the
    // first stage runs compiled; the composition must stay byte-stable.
    for (EvalOptions::Engine engine :
         {EvalOptions::Engine::kTreeWalk, EvalOptions::Engine::kVm}) {
      options.engine = engine;
      for (uint32_t threads : {1u, 2u, 8u}) {
        if (engine == EvalOptions::Engine::kTreeWalk && threads == 1) {
          continue;
        }
        options.num_threads = threads;
        EXPECT_EQ(RunToFacts(source, options), serial)
            << "policy " << static_cast<int>(policy) << ", engine "
            << (engine == EvalOptions::Engine::kVm ? "vm" : "tree-walk")
            << ", num_threads " << threads;
      }
    }
  }
}

// Deletions (IQL*) mixed with inserts: the canonical derivation order
// must also drive the deletion application order.
TEST(ParallelDifferentialTest, DeletionsStayDeterministic) {
  std::ostringstream source;
  source << "schema {\n"
            "  relation Active : D;\n"
            "  relation Flagged : D;\n"
            "  relation Alumni : D;\n"
            "}\ninstance {\n";
  for (int i = 0; i < 30; ++i) {
    source << "  Active(" << i << ");\n";
    if (i % 3 == 0) source << "  Flagged(" << i << ");\n";
  }
  source << "}\nprogram {\n"
            "  Alumni(x)  :- Active(x), Flagged(x).\n"
            "  !Active(x) :- Flagged(x).\n"
            "}\n";
  ExpectBitIdenticalAcrossThreadCounts(source.str());
}

// The metrics satellite: a parallel run reports its thread count and the
// partitions its rules were split into, and the shard sums match the
// serial derivation counts.
TEST(ParallelDifferentialTest, MetricsReportThreadsAndPartitions) {
  std::ostringstream source;
  source << "schema { relation E : [D, D]; relation TC : [D, D]; }\n"
            "input E;\noutput TC;\ninstance {\n";
  for (int i = 0; i < 30; ++i) {
    source << "  E(" << i << ", " << (i + 1) % 30 << ");\n";
  }
  source << "}\nprogram {\n"
            "  TC(x, y) :- E(x, y).\n"
            "  TC(x, z) :- TC(x, y), E(y, z).\n"
            "}\n";

  EvalMetrics serial_metrics;
  EvalOptions options;
  options.parallel_min_candidates = 1;
  options.num_threads = 1;
  options.metrics = &serial_metrics;
  RunToFacts(source.str(), options);
  EXPECT_EQ(serial_metrics.threads, 1u);

  EvalMetrics metrics;
  options.num_threads = 4;
  options.metrics = &metrics;
  RunToFacts(source.str(), options);
  EXPECT_EQ(metrics.threads, 4u);
  ASSERT_EQ(metrics.rules.size(), serial_metrics.rules.size());
  uint64_t partitions = 0;
  for (size_t i = 0; i < metrics.rules.size(); ++i) {
    partitions += metrics.rules[i].parallel_partitions;
    EXPECT_EQ(metrics.rules[i].derivations, serial_metrics.rules[i].derivations)
        << "rule " << i;
  }
  EXPECT_GT(partitions, 0u);
  std::string json = metrics.ToJson();
  EXPECT_NE(json.find("\"threads\":4"), std::string::npos);
  EXPECT_NE(json.find("\"parallel_partitions\":"), std::string::npos);
}

// Trace output stays in step order under parallelism (the coordinator
// writes it after each merge), and annotates partitioned steps.
TEST(ParallelDifferentialTest, TraceStaysInStepOrder) {
  std::string source =
      "schema { relation E : [D, D]; relation TC : [D, D]; }\n"
      "input E;\noutput TC;\ninstance {\n"
      "  E(1, 2); E(2, 3); E(3, 4); E(4, 5); E(5, 6); E(6, 7);\n"
      "}\nprogram {\n"
      "  TC(x, y) :- E(x, y).\n"
      "  TC(x, z) :- TC(x, y), E(y, z).\n"
      "}\n";
  std::ostringstream trace;
  EvalOptions options;
  options.num_threads = 4;
  options.parallel_min_candidates = 1;
  options.enable_seminaive = false;
  options.trace = &trace;
  RunToFacts(source, options);
  std::string text = trace.str();
  EXPECT_NE(text.find("parallel partitions"), std::string::npos);
  // Step numbers appear in ascending order.
  size_t last_pos = 0;
  for (int step = 0;; ++step) {
    std::string needle = "step " + std::to_string(step) + ":";
    size_t pos = text.find(needle);
    if (pos == std::string::npos) {
      EXPECT_GE(step, 2) << "expected at least two traced steps:\n" << text;
      break;
    }
    EXPECT_GE(pos, last_pos) << text;
    last_pos = pos;
  }
}

}  // namespace
}  // namespace iqlkit
