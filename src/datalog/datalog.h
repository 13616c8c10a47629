#ifndef IQLKIT_DATALOG_DATALOG_H_
#define IQLKIT_DATALOG_DATALOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/governor.h"
#include "base/result.h"
#include "base/status.h"

// A stand-alone relational Datalog engine: the classical baseline that IQL
// strictly generalizes ("each Datalog program can be viewed as a valid IQL
// program", §3.4). It exists so the benchmark harness can compare the
// object-based naive inflationary evaluator against a conventional
// relational engine -- both naive and semi-naive -- on the shared
// relational fragment (transitive closure and friends), and so stratified
// negation has a reference implementation.
//
// Deliberately flat and fast: constants are dense ints, tuples are
// fixed-arity vectors, relations are hashed tuple sets.
namespace iqlkit::datalog {

using Value = uint32_t;
using Tuple = std::vector<Value>;

struct TupleHash {
  size_t operator()(const Tuple& t) const;
};

// Mutable fact store with dense relation ids.
class Database {
 public:
  // Declares a relation; returns its id. Redeclaring a name is an error.
  Result<int> AddRelation(std::string_view name, int arity);
  int relation_count() const { return static_cast<int>(arities_.size()); }
  int arity(int rel) const { return arities_[rel]; }
  std::string_view name(int rel) const { return names_[rel]; }
  Result<int> FindRelation(std::string_view name) const;

  // Interns a constant string into a dense Value.
  Value InternConstant(std::string_view c);
  Value InternConstant(int64_t c) {
    return InternConstant(std::to_string(c));
  }

  // Adds a fact; duplicates are eliminated. Returns true if new.
  bool AddFact(int rel, Tuple t);
  bool Contains(int rel, const Tuple& t) const;
  const std::vector<Tuple>& Facts(int rel) const { return facts_[rel]; }
  size_t FactCount(int rel) const { return facts_[rel].size(); }
  size_t TotalFacts() const;

 private:
  std::vector<std::string> names_;
  std::vector<int> arities_;
  std::vector<std::vector<Tuple>> facts_;  // insertion order
  std::vector<std::unordered_set<Tuple, TupleHash>> index_;
  std::unordered_map<std::string, Value> constants_;

  friend class Engine;
};

// A term in an atom: a variable (id >= 0) or a constant.
struct Term {
  static Term Var(int id) { return Term{true, static_cast<Value>(id)}; }
  static Term Const(Value v) { return Term{false, v}; }
  bool is_var = false;
  Value value = 0;  // variable id or constant value
};

struct Atom {
  int relation = -1;
  std::vector<Term> terms;
};

// head <- body, !negated. Variables in the head or in negated atoms must
// occur in a positive body atom (safety).
struct Rule {
  Atom head;
  std::vector<Atom> body;
  std::vector<Atom> negated;
};

struct Program {
  std::vector<Rule> rules;
};

enum class EvalMode {
  kNaive,      // recompute all joins every round
  kSemiNaive,  // delta-driven joins
  // Delta-driven joins where each body atom with at least one bound
  // position probes an on-demand positional hash index instead of scanning
  // the relation. Indexes are keyed on (relation, bound-position mask),
  // built lazily, and extended incrementally: facts_ vectors are
  // append-only, so a per-index stamp marks the indexed prefix and new
  // facts are absorbed on the next probe. Bucket entries are fact
  // positions in ascending order, so the delta-atom constraint (position
  // >= delta_begin) is a binary search away.
  kSemiNaiveIndexed,
  // kSemiNaiveIndexed joins executed by a compiled engine instead of the
  // recursive interpreter: each body atom is lowered once per run to a
  // flat action list (check-constant / bind / check-variable per position
  // -- which positions bind is static, because atoms always join in body
  // order) plus a static bound-position mask, and an iterative executor
  // drives the candidate cursors with an explicit level stack. Candidate
  // enumeration order, index probes, and governor polls are those of the
  // interpreter, so the fixpoint -- and facts_ insertion order -- is
  // bit-for-bit identical at every thread count.
  kVm,
};

struct Stats {
  uint64_t iterations = 0;
  uint64_t derivations = 0;  // satisfying body valuations found
  uint64_t facts_added = 0;
  uint64_t index_probes = 0;  // kSemiNaiveIndexed: bucket lookups
  uint64_t index_hits = 0;    // probes that found a non-empty bucket
  // Per-rule derivation counts (indexed like Program::rules), sized by
  // Evaluate.
  std::vector<uint64_t> rule_derivations;
};

// Evaluates `program` over `db` in place, to the stratified fixpoint.
// Negation must be stratifiable (no recursion through negation) and rules
// must be safe; violations are reported as errors. All modes produce the
// same result; kSemiNaive avoids rediscovering old derivations, and
// kSemiNaiveIndexed additionally replaces inner-loop relation scans with
// hash-index probes.
//
// `num_threads` mirrors EvalOptions::num_threads on the IQL side: 0 means
// hardware concurrency, 1 the serial engine. With N > 1 workers, each
// (rule, delta-atom) join partitions its outermost fact range across
// workers; each worker joins into a private pending buffer (with private
// positional indexes for the inner atoms), and buffers are concatenated in
// slice order, so facts_ insertion order -- and therefore every later
// delta range -- is bit-for-bit the serial one.
//
// `governor` (optional) bounds the run: join loops poll it per fact, every
// round starts with a full check, and a trip aborts *before* the round's
// pending facts are applied, so the database always equals the last
// completed round. Worker-task fault injection is honored when a governor
// is present (a forced fault trips it, draining the pool).
Status Evaluate(const Program& program, Database* db, EvalMode mode,
                Stats* stats = nullptr, uint32_t num_threads = 1,
                Governor* governor = nullptr);

// Computes the stratification: stratum index per relation, or an error if
// the program recurses through negation.
Result<std::vector<int>> Stratify(const Program& program, int relation_count);

}  // namespace iqlkit::datalog

#endif  // IQLKIT_DATALOG_DATALOG_H_
