// Golden IL corpus: for every examples/iql/*.iql program, the flat IL its
// rules compile to (il::DumpProgramIl after parse + type check) is
// compared against tests/golden_il/<name>.expected. The dump includes the
// semi-naive delta variants, so the corpus pins every lowering the
// evaluator can request. Unlike the evaluation goldens, which compare up
// to O-isomorphism, IL text is fully deterministic -- registers, shapes,
// and probe specs depend only on the source -- so the comparison is exact
// string equality. Pass --regen to rewrite the corpus after an intentional
// lowering change (then review the diff: a changed dump means a changed
// plan, which the differential suites must still prove byte-equivalent to
// the tree-walker).

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "iql/il.h"
#include "iql/parser.h"
#include "iql/typecheck.h"
#include "model/universe.h"

namespace iqlkit::golden_il {

bool regen = false;

namespace {

namespace fs = std::filesystem;

fs::path ExampleDir() {
  return fs::path(IQLKIT_SOURCE_DIR) / "examples" / "iql";
}

fs::path GoldenDir() {
  return fs::path(IQLKIT_SOURCE_DIR) / "tests" / "golden_il";
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::set<std::string> ListStems(const fs::path& dir, const char* ext) {
  std::set<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ext) {
      out.insert(entry.path().stem().string());
    }
  }
  return out;
}

// Parses and type checks examples/iql/<name>.iql and renders its IL,
// delta variants included.
std::string DumpFor(const std::string& name) {
  Universe u;
  auto unit = ParseUnit(&u, ReadFile(ExampleDir() / (name + ".iql")));
  EXPECT_TRUE(unit.ok()) << unit.status();
  if (!unit.ok()) return "<parse error>";
  Status checked = TypeCheck(&u, unit->schema, &unit->program);
  EXPECT_TRUE(checked.ok()) << checked;
  if (!checked.ok()) return "<type error>";
  return il::DumpProgramIl(unit->program, u.symbols(), u.types(),
                           /*delta_variants=*/true);
}

void RunIlGolden(const std::string& name) {
  std::string dump = DumpFor(name);
  fs::path golden = GoldenDir() / (name + ".expected");
  if (regen) {
    fs::create_directories(GoldenDir());
    std::ofstream out(golden);
    ASSERT_TRUE(out.good()) << "cannot write " << golden;
    out << dump;
    return;
  }
  ASSERT_TRUE(fs::exists(golden))
      << golden << " is missing; run il_golden_test --regen";
  EXPECT_EQ(ReadFile(golden), dump)
      << "IL drift for " << name
      << "; if intentional, run il_golden_test --regen and review the diff";
}

TEST(IlGoldenTest, Genesis) { RunIlGolden("genesis"); }
TEST(IlGoldenTest, GraphEncoding) { RunIlGolden("graph_encoding"); }
TEST(IlGoldenTest, Powerset) { RunIlGolden("powerset"); }
TEST(IlGoldenTest, Tc) { RunIlGolden("tc"); }
TEST(IlGoldenTest, Updates) { RunIlGolden("updates"); }

// Coverage guard: a new example without goldens (or a TEST above), or a
// stale golden without an example, fails here.
TEST(IlGoldenTest, EveryExampleHasAGolden) {
  if (regen) GTEST_SKIP() << "goldens are being regenerated";
  std::set<std::string> examples = ListStems(ExampleDir(), ".iql");
  EXPECT_EQ(examples, ListStems(GoldenDir(), ".expected"));
  std::set<std::string> covered = {"genesis", "graph_encoding", "powerset",
                                   "tc", "updates"};
  EXPECT_EQ(examples, covered)
      << "examples/iql changed: add an IlGoldenTest case and regen";
}

}  // namespace
}  // namespace iqlkit::golden_il

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regen") iqlkit::golden_il::regen = true;
  }
  return RUN_ALL_TESTS();
}
