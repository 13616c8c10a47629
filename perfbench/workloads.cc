#include "workloads.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "iql/eval.h"
#include "iql/parser.h"
#include "model/instance.h"
#include "model/universe.h"

namespace perfbench {

namespace {

// splitmix64: a tiny seeded generator whose stream is fixed by the
// standard, unlike the distributions of <random>.
struct SplitMix {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
};

std::string TcSource(const std::vector<std::pair<int, int>>& edges) {
  std::ostringstream out;
  out << "schema { relation E : [D, D]; relation TC : [D, D]; }\n"
         "input E;\noutput TC;\ninstance {\n";
  for (auto [a, b] : edges) out << "  E([\"" << a << "\", \"" << b << "\"]);\n";
  out << "}\nprogram {\n"
         "  TC(x, y) :- E(x, y).\n"
         "  TC(x, z) :- TC(x, y), E(y, z).\n"
         "}\n";
  return out.str();
}

// Example 1.2: flat edges -> cyclic objects, one P object per node whose
// value pairs the node with the set of its successors' objects.
std::string InventSource(const std::vector<std::pair<int, int>>& edges) {
  std::ostringstream out;
  out << "schema {\n"
         "  relation R  : [D, D];\n"
         "  relation R0 : D;\n"
         "  relation R9 : [D, P, P'];\n"
         "  class P  : [D, {P}];\n"
         "  class P' : {P};\n"
         "}\n"
         "input R;\noutput P, P';\ninstance {\n";
  for (auto [a, b] : edges) out << "  R(\"v" << a << "\", \"v" << b << "\");\n";
  out << "}\nprogram {\n"
         "  R0(x) :- R(x, y).\n"
         "  R0(x) :- R(y, x).\n"
         "  R9(x, p, p') :- R0(x).\n"
         "  p'^(q) :- R9(x, p, p'), R9(y, q, q'), R(x, y).\n"
         "  ;\n"
         "  p^ = [x, p'^] :- R9(x, p, p').\n"
         "}\n";
  return out.str();
}

// Splits a WriteFacts listing into its fact lines; false when the
// `instance { ... }` frame around them is missing.
bool FactLines(std::string_view answer, std::vector<std::string_view>* lines) {
  constexpr std::string_view kOpen = "instance {\n";
  constexpr std::string_view kClose = "}\n";
  if (answer.size() < kOpen.size() + kClose.size() ||
      answer.substr(0, kOpen.size()) != kOpen ||
      answer.substr(answer.size() - kClose.size()) != kClose) {
    return false;
  }
  std::string_view body = answer.substr(
      kOpen.size(), answer.size() - kOpen.size() - kClose.size());
  while (!body.empty()) {
    size_t eol = body.find('\n');
    if (eol == std::string_view::npos) return false;
    lines->push_back(body.substr(0, eol));
    body.remove_prefix(eol + 1);
  }
  return true;
}

// `  TC(["a", "b"]);` -> (a, b); false on any other shape.
bool ParseTcLine(std::string_view line, int n, std::pair<int, int>* pair) {
  constexpr std::string_view kHead = "  TC([\"";
  constexpr std::string_view kMid = "\", \"";
  constexpr std::string_view kTail = "\"]);";
  if (line.substr(0, kHead.size()) != kHead) return false;
  line.remove_prefix(kHead.size());
  auto number = [&](int* out) {
    size_t digits = 0;
    int value = 0;
    while (digits < line.size() && digits < 6 && line[digits] >= '0' &&
           line[digits] <= '9') {
      value = value * 10 + (line[digits] - '0');
      ++digits;
    }
    if (digits == 0 || value >= n) return false;
    line.remove_prefix(digits);
    *out = value;
    return true;
  };
  if (!number(&pair->first) || line.substr(0, kMid.size()) != kMid) {
    return false;
  }
  line.remove_prefix(kMid.size());
  return number(&pair->second) && line == kTail;
}

std::string CheckTc(const Workload& workload, const Query& query,
                    std::string_view answer) {
  const int n = workload.nodes;
  std::vector<std::vector<int>> succ(static_cast<size_t>(n));
  for (auto [a, b] : query.edges) succ[static_cast<size_t>(a)].push_back(b);
  std::vector<std::pair<int, int>> expected;
  std::vector<char> seen(static_cast<size_t>(n));
  std::vector<int> frontier;
  for (int u = 0; u < n; ++u) {
    std::fill(seen.begin(), seen.end(), 0);
    frontier.assign(succ[static_cast<size_t>(u)].begin(),
                    succ[static_cast<size_t>(u)].end());
    for (int v : frontier) seen[static_cast<size_t>(v)] = 1;
    while (!frontier.empty()) {
      int v = frontier.back();
      frontier.pop_back();
      for (int w : succ[static_cast<size_t>(v)]) {
        if (!seen[static_cast<size_t>(w)]) {
          seen[static_cast<size_t>(w)] = 1;
          frontier.push_back(w);
        }
      }
    }
    for (int v = 0; v < n; ++v) {
      if (seen[static_cast<size_t>(v)]) expected.emplace_back(u, v);
    }
  }

  std::vector<std::string_view> lines;
  if (!FactLines(answer, &lines)) return "answer is not an instance block";
  std::vector<std::pair<int, int>> got;
  got.reserve(lines.size());
  for (std::string_view line : lines) {
    std::pair<int, int> pair;
    if (!ParseTcLine(line, n, &pair)) {
      return "unexpected fact line '" + std::string(line) + "'";
    }
    got.push_back(pair);
  }
  std::sort(got.begin(), got.end());
  if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
    return "a TC fact is listed twice";
  }
  if (got != expected) {
    return "TC has " + std::to_string(got.size()) + " facts, BFS closure has " +
           std::to_string(expected.size()) + " (or they differ)";
  }
  return "";
}

// The standalone evaluation an invention answer must equal byte for byte:
// WriteFacts text, or an "error: ..." line.
std::string StandaloneAnswer(const std::string& source) {
  iqlkit::Universe universe;
  auto unit = iqlkit::ParseUnit(&universe, source);
  if (!unit.ok()) return "error: " + unit.status().ToString();
  iqlkit::Instance input(&unit->schema, &universe);
  iqlkit::Status applied = iqlkit::ApplyFacts(*unit, &input);
  if (!applied.ok()) return "error: " + applied.ToString();
  iqlkit::EvalOptions options;
  options.num_threads = 1;  // what the scheduler runs every query with
  auto output = iqlkit::RunUnit(&universe, &*unit, input, options);
  if (!output.ok()) return "error: " + output.status().ToString();
  return iqlkit::WriteFacts(*output);
}

std::string CheckInvent(const Query& query, std::string_view answer) {
  std::string standalone = StandaloneAnswer(query.source);
  if (answer != standalone) {
    return "differs from the standalone RunUnit + WriteFacts output";
  }
  std::set<int> nodes;
  for (auto [a, b] : query.edges) {
    nodes.insert(a);
    nodes.insert(b);
  }
  std::vector<std::string_view> lines;
  if (!FactLines(answer, &lines)) return "answer is not an instance block";
  size_t p = 0, p_prime = 0;
  for (std::string_view line : lines) {
    if (line.substr(0, 5) == "  P(@") ++p;
    if (line.substr(0, 6) == "  P'(@") ++p_prime;
  }
  if (p != nodes.size() || p_prime != nodes.size()) {
    return "|P| = " + std::to_string(p) + ", |P'| = " +
           std::to_string(p_prime) + ", distinct nodes = " +
           std::to_string(nodes.size());
  }
  return "";
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  // durable_invent is offered a third of its closed-loop rate, not half:
  // at half, the CPU a busy host takes away brings it near saturation
  // and its p50 swung 2.7x between runs of the same code.
  static const std::vector<Workload> kWorkloads = {
      {"small_tc", 16, 32, /*invent=*/false, /*durable=*/false, 300, 570},
      {"large_tc", 48, 96, /*invent=*/false, /*durable=*/false, 90, 177},
      {"durable_invent", 128, 256, /*invent=*/true, /*durable=*/true, 100, 260},
  };
  return kWorkloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Query MakeQuery(const Workload& workload, uint64_t seed, uint64_t index) {
  SplitMix rng{seed * 0xD1B54A32D192ED03ull ^ (index + 1) * 0x9E3779B97F4A7C15ull};
  Query query;
  query.index = index;
  std::set<std::pair<int, int>> picked;
  while (static_cast<int>(picked.size()) < workload.edges) {
    int a = rng.Below(workload.nodes);
    int b = rng.Below(workload.nodes);
    if (a != b && picked.emplace(a, b).second) query.edges.emplace_back(a, b);
  }
  query.source =
      workload.invent ? InventSource(query.edges) : TcSource(query.edges);
  return query;
}

std::string CheckAnswer(const Workload& workload, const Query& query,
                        std::string_view answer) {
  return workload.invent ? CheckInvent(query, answer)
                         : CheckTc(workload, query, answer);
}

}  // namespace perfbench
