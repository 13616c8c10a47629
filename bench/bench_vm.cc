// Register-VM engine vs the tree-walking solver on matched workloads.
//
// Every series below runs the same program on the same input twice, once
// per `EvalOptions::engine`, so the _TreeWalk/_Vm pairs differ only in
// how rule bodies are executed: recursive Solver descent vs the flat IL
// interpreted by vm::VmSolver. The outputs are byte-identical by the
// differential suites; this file measures the cost of that equivalence.
// `bench/run_all.sh` matches the pairs by name and records the mean
// speedup under `.vm` in BENCH_RESULTS.json. The powerset series keeps
// its invention rules on the tree-walker (IL compilation declines them),
// so it bounds the win when only part of a program is VM-eligible; the
// Datalog pair compares EvalMode::kVm against kSemiNaiveIndexed.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "datalog/datalog.h"

namespace iqlkit::bench {
namespace {

constexpr std::string_view kTC = R"(
  schema { relation E : [D, D]; relation TC : [D, D]; }
  input E;
  output TC;
  program {
    TC(x, y) :- E(x, y).
    TC(x, z) :- TC(x, y), E(y, z).
  }
)";

// Three-way cyclic join: every body is a pure scan/probe/compare chain,
// the best case for the flat IL.
constexpr std::string_view kTriangles = R"(
  schema { relation E : [D, D]; relation T : [D, D]; }
  input E;
  output T;
  program {
    T(x, z) :- E(x, y), E(y, z), E(z, x).
  }
)";

constexpr std::string_view kPowerset = R"(
  schema {
    relation R  : D;
    relation R1 : {D};
    relation R2 : [{D}, {D}, P];
    class P : {D};
  }
  input R;
  output R1;
  program {
    R1({}).
    R1({x}) :- R(x).
    R2(X, Y, z) :- R1(X), R1(Y).
    z^(x) :- R2(X, Y, z), X(x).
    z^(y) :- R2(X, Y, z), Y(y).
    R1(z^) :- P(z).
  }
)";

EvalOptions EngineOptions(EvalOptions::Engine engine) {
  EvalOptions options;
  options.engine = engine;
  return options;
}

void RunGraphProgram(benchmark::State& state, std::string_view source,
                     std::string_view out_rel, EvalOptions::Engine engine) {
  int n = static_cast<int>(state.range(0));
  auto edges = RandomGraph(n, 2 * n, 17);
  size_t result_size = 0;
  EvalMetrics metrics;
  for (auto _ : state) {
    metrics = EvalMetrics{};
    PreparedRun run(source);
    for (auto [a, b] : edges) run.AddEdge("E", a, b);
    EvalOptions options = EngineOptions(engine);
    options.metrics = &metrics;
    auto start = std::chrono::steady_clock::now();
    auto out = run.Run(options);
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(out.ok()) << out.status();
    result_size = out->Relation(run.universe.Intern(out_rel)).size();
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
  state.counters["output_facts"] = static_cast<double>(result_size);
  ExportMetrics(state, metrics);
}

void BM_Vm_Tc_TreeWalk(benchmark::State& state) {
  RunGraphProgram(state, kTC, "TC", EvalOptions::Engine::kTreeWalk);
}
BENCHMARK(BM_Vm_Tc_TreeWalk)
    ->RangeMultiplier(2)
    ->Range(32, 128)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_Vm_Tc_Vm(benchmark::State& state) {
  RunGraphProgram(state, kTC, "TC", EvalOptions::Engine::kVm);
}
BENCHMARK(BM_Vm_Tc_Vm)
    ->RangeMultiplier(2)
    ->Range(32, 128)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_Vm_Join_TreeWalk(benchmark::State& state) {
  RunGraphProgram(state, kTriangles, "T", EvalOptions::Engine::kTreeWalk);
}
BENCHMARK(BM_Vm_Join_TreeWalk)
    ->RangeMultiplier(2)
    ->Range(64, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_Vm_Join_Vm(benchmark::State& state) {
  RunGraphProgram(state, kTriangles, "T", EvalOptions::Engine::kVm);
}
BENCHMARK(BM_Vm_Join_Vm)
    ->RangeMultiplier(2)
    ->Range(64, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void RunPowerset(benchmark::State& state, EvalOptions::Engine engine) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    PreparedRun run(kPowerset);
    for (int i = 0; i < n; ++i) run.AddUnary("R", i);
    auto start = std::chrono::steady_clock::now();
    auto out = run.Run(EngineOptions(engine));
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(out.ok()) << out.status();
    size_t subsets = out->Relation(run.universe.Intern("R1")).size();
    IQL_CHECK(subsets == (size_t{1} << n));
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
}

void BM_Vm_Powerset_TreeWalk(benchmark::State& state) {
  RunPowerset(state, EvalOptions::Engine::kTreeWalk);
}
BENCHMARK(BM_Vm_Powerset_TreeWalk)
    ->DenseRange(3, 5, 1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_Vm_Powerset_Vm(benchmark::State& state) {
  RunPowerset(state, EvalOptions::Engine::kVm);
}
BENCHMARK(BM_Vm_Powerset_Vm)
    ->DenseRange(3, 5, 1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Datalog core: the compiled bind/check plans (EvalMode::kVm) against the
// indexed interpreter they were lowered from.
void RunDatalogTc(benchmark::State& state, datalog::EvalMode mode) {
  int n = static_cast<int>(state.range(0));
  auto edges = RandomGraph(n, 2 * n, 17);
  size_t result_size = 0;
  for (auto _ : state) {
    datalog::Database db;
    int e = *db.AddRelation("E", 2);
    int tc = *db.AddRelation("TC", 2);
    datalog::Program prog;
    using datalog::Atom;
    using datalog::Term;
    prog.rules.push_back(datalog::Rule{
        Atom{tc, {Term::Var(0), Term::Var(1)}},
        {Atom{e, {Term::Var(0), Term::Var(1)}}},
        {}});
    prog.rules.push_back(datalog::Rule{
        Atom{tc, {Term::Var(0), Term::Var(2)}},
        {Atom{tc, {Term::Var(0), Term::Var(1)}},
         Atom{e, {Term::Var(1), Term::Var(2)}}},
        {}});
    for (auto [a, b] : edges) {
      db.AddFact(e, {db.InternConstant(a), db.InternConstant(b)});
    }
    auto start = std::chrono::steady_clock::now();
    Status s = datalog::Evaluate(prog, &db, mode);
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(s.ok()) << s;
    result_size = db.FactCount(tc);
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
  state.counters["output_facts"] = static_cast<double>(result_size);
}

void BM_Vm_Datalog_TreeWalk(benchmark::State& state) {
  RunDatalogTc(state, datalog::EvalMode::kSemiNaiveIndexed);
}
BENCHMARK(BM_Vm_Datalog_TreeWalk)
    ->RangeMultiplier(2)
    ->Range(64, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_Vm_Datalog_Vm(benchmark::State& state) {
  RunDatalogTc(state, datalog::EvalMode::kVm);
}
BENCHMARK(BM_Vm_Datalog_Vm)
    ->RangeMultiplier(2)
    ->Range(64, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace iqlkit::bench
