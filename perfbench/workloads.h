#ifndef IQLKIT_PERFBENCH_WORKLOADS_H_
#define IQLKIT_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// One traffic mix. Every query of a mix carries its own seeded random
// graph in its source text, so no two queries share input.
struct Workload {
  std::string name;
  int nodes = 0;
  int edges = 0;
  // Example 1.2 graph encoding (oid invention, set-valued objects, two
  // stages) instead of transitive closure.
  bool invent = false;
  // Served with --data-dir=<fresh dir> --no-fsync.
  bool durable = false;
  // Phase-1 open-loop offered rate, about half (durable_invent: a third)
  // of the closed-loop throughput of a fresh server on this mix.
  double rate_qps = 0;
  // Closed-loop throughput of the parent server over phase 2; phase 2
  // serves this many queries per second of its nominal length.
  double closed_qps = 0;
};

// nullptr for an unknown name.
const Workload* FindWorkload(std::string_view name);
const std::vector<Workload>& AllWorkloads();

struct Query {
  uint64_t index = 0;
  std::vector<std::pair<int, int>> edges;  // distinct, no self loops
  std::string source;                      // the IQL unit sent on the wire
};

// Query `index` of the stream drawn from `seed`: a pure function of the
// three arguments, so the oracle can rebuild any query after the run.
Query MakeQuery(const Workload& workload, uint64_t seed, uint64_t index);

// The answer oracle. Returns "" when `answer` (the concatenated PAGE data
// of a completed query) is right, else what is wrong with it.
//   TC:        the TC facts equal the transitive closure of the query's
//              edges computed here by BFS, each pair exactly once.
//   invention: byte-identical to a standalone RunUnit + WriteFacts in a
//              fresh Universe, and |P| = |P'| = number of distinct nodes.
std::string CheckAnswer(const Workload& workload, const Query& query,
                        std::string_view answer);

}  // namespace perfbench

#endif  // IQLKIT_PERFBENCH_WORKLOADS_H_
