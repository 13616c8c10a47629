#include "datalog/datalog.h"

#include <algorithm>
#include <optional>

#include "analysis/diagnostic.h"
#include "base/fault_injection.h"
#include "base/hash.h"
#include "base/logging.h"
#include "base/thread_pool.h"

namespace iqlkit::datalog {

size_t TupleHash::operator()(const Tuple& t) const {
  return static_cast<size_t>(HashRange(t.begin(), t.end(), t.size()));
}

Result<int> Database::AddRelation(std::string_view name, int arity) {
  for (const std::string& existing : names_) {
    if (existing == name) {
      return AlreadyExistsError("relation already declared: " +
                                std::string(name));
    }
  }
  names_.emplace_back(name);
  arities_.push_back(arity);
  facts_.emplace_back();
  index_.emplace_back();
  return static_cast<int>(names_.size()) - 1;
}

Result<int> Database::FindRelation(std::string_view name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return NotFoundError("unknown relation: " + std::string(name));
}

Value Database::InternConstant(std::string_view c) {
  auto it = constants_.find(std::string(c));
  if (it != constants_.end()) return it->second;
  Value v = static_cast<Value>(constants_.size());
  constants_.emplace(std::string(c), v);
  return v;
}

bool Database::AddFact(int rel, Tuple t) {
  IQL_CHECK(rel >= 0 && rel < relation_count());
  IQL_CHECK(static_cast<int>(t.size()) == arities_[rel])
      << "arity mismatch for " << names_[rel];
  auto [it, inserted] = index_[rel].insert(t);
  if (inserted) facts_[rel].push_back(std::move(t));
  return inserted;
}

bool Database::Contains(int rel, const Tuple& t) const {
  return index_[rel].count(t) > 0;
}

size_t Database::TotalFacts() const {
  size_t n = 0;
  for (const auto& f : facts_) n += f.size();
  return n;
}

Result<std::vector<int>> Stratify(const Program& program,
                                  int relation_count) {
  // edges[r] = list of (source, negative?) with an arc source -> r.
  // stratum[head] >= stratum[body]; strictly greater across negation.
  std::vector<int> stratum(relation_count, 0);
  bool changed = true;
  int guard = 0;
  while (changed) {
    changed = false;
    if (++guard > relation_count + 2) {
      return InvalidArgumentError(
          "program is not stratifiable (recursion through negation)");
    }
    for (const Rule& rule : program.rules) {
      int h = rule.head.relation;
      for (const Atom& a : rule.body) {
        if (stratum[h] < stratum[a.relation]) {
          stratum[h] = stratum[a.relation];
          changed = true;
        }
      }
      for (const Atom& a : rule.negated) {
        if (stratum[h] < stratum[a.relation] + 1) {
          stratum[h] = stratum[a.relation] + 1;
          changed = true;
        }
      }
    }
  }
  return stratum;
}

namespace {

// Checks rule safety and computes the number of variables. `rule_index`
// labels the rule in error messages (rules carry no source positions, so
// the diagnostic anchors on the program-order index instead).
Status CheckRule(const Rule& rule, const Database& db, int rule_index,
                 int* var_count) {
  std::unordered_set<int> positive_vars;
  int max_var = -1;
  auto scan = [&](const Atom& a, bool collect) -> Status {
    if (a.relation < 0 || a.relation >= db.relation_count()) {
      return InvalidArgumentError("atom references unknown relation");
    }
    if (static_cast<int>(a.terms.size()) != db.arity(a.relation)) {
      return InvalidArgumentError("atom arity mismatch for relation " +
                                  std::string(db.name(a.relation)));
    }
    for (const Term& t : a.terms) {
      if (!t.is_var) continue;
      max_var = std::max(max_var, static_cast<int>(t.value));
      if (collect) positive_vars.insert(static_cast<int>(t.value));
    }
    return Status::Ok();
  };
  for (const Atom& a : rule.body) IQL_RETURN_IF_ERROR(scan(a, true));
  for (const Atom& a : rule.negated) IQL_RETURN_IF_ERROR(scan(a, false));
  IQL_RETURN_IF_ERROR(scan(rule.head, false));
  // Safety: every head / negated variable occurs positively.
  auto check_covered = [&](const Atom& a, std::string_view where) -> Status {
    for (const Term& t : a.terms) {
      if (t.is_var && !positive_vars.count(static_cast<int>(t.value))) {
        Diagnostic d;
        d.code = "E005";
        d.severity = Severity::kError;
        d.message = "unsafe rule " + std::to_string(rule_index) +
                    ": variable v" + std::to_string(t.value) + " in the " +
                    std::string(where) + " atom '" +
                    std::string(db.name(a.relation)) +
                    "' is not bound by a positive body atom";
        return ToStatus(d, StatusCode::kInvalidArgument);
      }
    }
    return Status::Ok();
  };
  IQL_RETURN_IF_ERROR(check_covered(rule.head, "head"));
  for (const Atom& a : rule.negated) {
    IQL_RETURN_IF_ERROR(check_covered(a, "negated"));
  }
  *var_count = max_var + 1;
  return Status::Ok();
}

constexpr Value kUnbound = 0xFFFFFFFFu;

// Below this many facts in the outermost atom's range, a join runs
// serially: the fork/join handshake costs more than the scan.
constexpr size_t kParallelMinFacts = 4;

// Nested-loop join driver shared by naive and semi-naive evaluation. For
// semi-naive, `delta_pos` forces one body atom to range over the delta
// facts of the previous round.
class Engine {
 public:
  Engine(const Program& program, Database* db, Stats* stats, ThreadPool* pool,
         Governor* governor)
      : program_(program),
        db_(db),
        stats_(stats),
        pool_(pool),
        governor_(governor) {}

  Status Run(EvalMode mode) {
    IQL_ASSIGN_OR_RETURN(std::vector<int> strata,
                         Stratify(program_, db_->relation_count()));
    var_counts_.resize(program_.rules.size());
    for (size_t i = 0; i < program_.rules.size(); ++i) {
      IQL_RETURN_IF_ERROR(CheckRule(program_.rules[i], *db_,
                                    static_cast<int>(i), &var_counts_[i]));
    }
    vm_ = mode == EvalMode::kVm;
    indexed_ = mode == EvalMode::kSemiNaiveIndexed || vm_;
    if (vm_) CompilePlans();
    stats_->rule_derivations.assign(program_.rules.size(), 0);
    // Context 0 serves serial joins; 1..workers are fan-out slots. Each
    // keeps its own positional indexes, so workers never share an index.
    ctxs_.resize(pool_ != nullptr ? pool_->workers() + 1 : 1);
    for (JoinCtx& ctx : ctxs_) {
      ctx.rule_derivations.assign(program_.rules.size(), 0);
      if (indexed_) ctx.pos_indexes.resize(db_->relation_count());
    }
    int max_stratum = 0;
    for (const Rule& rule : program_.rules) {
      max_stratum = std::max(max_stratum, strata[rule.head.relation]);
    }
    Status run_status = Status::Ok();
    for (int s = 0; s <= max_stratum; ++s) {
      std::vector<size_t> active;
      for (size_t i = 0; i < program_.rules.size(); ++i) {
        if (strata[program_.rules[i].head.relation] == s) active.push_back(i);
      }
      if (active.empty()) continue;
      run_status = mode == EvalMode::kNaive ? RunStratumNaive(active)
                                            : RunStratumSemiNaive(active);
      if (!run_status.ok()) break;
    }
    // Fold worker counters even on a governor trip, so the resource report
    // attached by Evaluate() reflects the work actually done.
    for (const JoinCtx& ctx : ctxs_) {
      stats_->derivations += ctx.derivations;
      stats_->index_probes += ctx.index_probes;
      stats_->index_hits += ctx.index_hits;
      for (size_t i = 0; i < program_.rules.size(); ++i) {
        stats_->rule_derivations[i] += ctx.rule_derivations[i];
      }
    }
    return run_status;
  }

 private:
  // One position of one body atom, lowered for the kVm engine. Which
  // variable positions bind is static -- atoms join strictly in body
  // order, so a variable's first occurrence (scanning atoms, then
  // positions) binds and every later occurrence checks, exactly the
  // decisions MatchAtom makes dynamically through the kUnbound sentinel.
  struct Action {
    enum Kind : uint8_t { kCheckConst, kBind, kCheckVar };
    Kind kind = kCheckConst;
    uint16_t pos = 0;  // tuple position
    Value val = 0;     // constant value (kCheckConst) or variable id
  };

  struct AtomPlan {
    std::vector<Action> actions;  // one per position, in position order
    std::vector<Value> binds;     // variable ids this atom's kBind set
    // Static bound-position mask: constants plus variables bound by an
    // earlier atom (within-atom repeats stay unmasked, as in the dynamic
    // computation). 0 when the atom has no bound position or its arity
    // exceeds the 32-bit mask, forcing the dense scan either way.
    uint32_t mask = 0;
  };

  struct RulePlan {
    std::vector<AtomPlan> atoms;  // indexed like Rule::body
  };

  // A lazily built, incrementally extended hash index over the bound
  // positions of one relation. facts_ vectors are append-only, so `stamp`
  // (the indexed prefix length) is all the invalidation state needed.
  struct PosIndex {
    size_t stamp = 0;
    std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  };

  // Join-time state private to one worker (or to the serial path): the
  // derivation buffer, counters folded into Stats at the end of the run,
  // and -- under kSemiNaiveIndexed -- this worker's positional indexes.
  // Indexes persist across rounds (facts_ is append-only), so each worker
  // amortizes its own builds exactly like the serial engine does.
  struct JoinCtx {
    std::vector<std::pair<int, Tuple>> pending;
    uint64_t derivations = 0;
    uint64_t index_probes = 0;
    uint64_t index_hits = 0;
    std::vector<uint64_t> rule_derivations;
    std::vector<std::unordered_map<uint32_t, PosIndex>> pos_indexes;
  };

  Status RunStratumNaive(const std::vector<size_t>& active) {
    bool changed = true;
    while (changed) {
      IQL_RETURN_IF_ERROR(RoundCheck());
      changed = false;
      ++stats_->iterations;
      std::vector<std::pair<int, Tuple>> pending;
      for (size_t i : active) SolveRule(i, -1, 0, &pending);
      // A trip during the joins discards the whole round's pending buffer:
      // the database stays at the last completed round.
      IQL_RETURN_IF_ERROR(TrippedStatus());
      for (auto& [rel, t] : pending) {
        if (db_->AddFact(rel, std::move(t))) {
          changed = true;
          ++stats_->facts_added;
          ChargeFact(rel);
        }
      }
    }
    return Status::Ok();
  }

  Status RunStratumSemiNaive(const std::vector<size_t>& active) {
    // delta[rel] = (begin, end) range of facts_ that are new this round.
    std::vector<size_t> frontier(db_->relation_count(), 0);
    bool first = true;
    while (true) {
      IQL_RETURN_IF_ERROR(RoundCheck());
      ++stats_->iterations;
      std::vector<size_t> snapshot(db_->relation_count());
      for (int r = 0; r < db_->relation_count(); ++r) {
        snapshot[r] = db_->FactCount(r);
      }
      std::vector<std::pair<int, Tuple>> pending;
      for (size_t i : active) {
        const Rule& rule = program_.rules[i];
        if (first) {
          SolveRule(i, -1, 0, &pending);
        } else {
          // One delta atom per evaluation; others range over all facts.
          for (size_t d = 0; d < rule.body.size(); ++d) {
            int rel = rule.body[d].relation;
            if (frontier[rel] >= snapshot[rel]) continue;  // empty delta
            SolveRule(i, static_cast<int>(d), frontier[rel], &pending);
          }
        }
      }
      IQL_RETURN_IF_ERROR(TrippedStatus());
      bool changed = false;
      for (auto& [rel, t] : pending) {
        if (db_->AddFact(rel, std::move(t))) {
          changed = true;
          ++stats_->facts_added;
          ChargeFact(rel);
        }
      }
      // Next round's deltas are exactly the facts appended by this round:
      // positions [snapshot[rel], FactCount(rel)).
      frontier = std::move(snapshot);
      first = false;
      if (!changed) break;
    }
    return Status::Ok();
  }

  // Full governor check at a round boundary (no-op without a governor).
  // The round budget is checked before the round starts, like the IQL
  // evaluator's top-of-round check, so a kSteps trip always leaves exactly
  // max_steps_per_stage completed rounds in the database.
  Status RoundCheck() {
    if (governor_ == nullptr) return Status::Ok();
    if (stats_->iterations >= governor_->max_steps()) {
      return governor_->TripNow(TripReason::kSteps);
    }
    return governor_->CheckNow();
  }

  // The sticky trip Status if the governor tripped mid-round (the join
  // loops only *record* trips -- SolveRule is fan-out plumbing with no
  // Status channel -- so round drivers re-surface them here, before any
  // pending fact is applied).
  Status TrippedStatus() {
    if (governor_ != nullptr && governor_->tripped()) {
      return governor_->Poll();
    }
    return Status::Ok();
  }

  void ChargeFact(int rel) {
    if (governor_ != nullptr) {
      governor_->accountant()->Charge(48 + db_->arity(rel) * sizeof(Value));
    }
  }

  // Evaluates rule `i` (with an optional delta atom) and appends its
  // derivations, in canonical enumeration order, to `pending`. With a
  // worker pool and a wide enough outermost range, that range is sliced
  // contiguously across workers and the per-worker buffers are
  // concatenated in slice order -- exactly the serial scan order, so
  // facts_ insertion order (and with it every later delta range) is
  // independent of the worker count. Workers skip the level-0 index probe
  // (a bucket scan visits the same facts in the same ascending order a
  // slice scan does) and keep private indexes for the inner levels.
  void SolveRule(size_t i, int delta_atom, size_t delta_begin,
                 std::vector<std::pair<int, Tuple>>* pending) {
    const Rule& rule = program_.rules[i];
    current_rule_ = i;
    if (pool_ != nullptr && !rule.body.empty()) {
      const std::vector<Tuple>& facts = db_->Facts(rule.body[0].relation);
      size_t begin = delta_atom == 0 ? delta_begin : 0;
      size_t width = facts.size() > begin ? facts.size() - begin : 0;
      if (width >= kParallelMinFacts) {
        size_t workers = std::min<size_t>(pool_->workers(), width);
        pool_->ParallelRun(workers, [&](size_t w) {
          if (governor_ != nullptr &&
              FaultInjector::Global().ShouldFail(FaultSite::kWorkerTask)) {
            governor_->TripNow(TripReason::kFault);
            return;
          }
          JoinCtx& ctx = ctxs_[w + 1];
          std::vector<Value> env(var_counts_[i], kUnbound);
          size_t lo = begin + width * w / workers;
          size_t hi = begin + width * (w + 1) / workers;
          for (size_t f = lo; f < hi; ++f) {
            if (governor_ != nullptr && governor_->tripped()) return;
            if (vm_) {
              if (MatchPlanned(plans_[i].atoms[0], facts[f], env)) {
                JoinBodyVm(rule, plans_[i], env, 1, delta_atom, delta_begin,
                           ctx);
              }
              UnbindPlanned(plans_[i].atoms[0], env);
              continue;
            }
            std::vector<int> trail;
            if (MatchAtom(rule.body[0], facts[f], &env, &trail)) {
              JoinBody(rule, env, 1, delta_atom, delta_begin, ctx);
            }
            for (int v : trail) env[v] = kUnbound;
          }
        });
        for (size_t w = 0; w < workers; ++w) {
          JoinCtx& ctx = ctxs_[w + 1];
          std::move(ctx.pending.begin(), ctx.pending.end(),
                    std::back_inserter(*pending));
          ctx.pending.clear();
        }
        return;
      }
    }
    std::vector<Value> env(var_counts_[i], kUnbound);
    if (vm_) {
      JoinBodyVm(rule, plans_[i], env, 0, delta_atom, delta_begin, ctxs_[0]);
    } else {
      JoinBody(rule, env, 0, delta_atom, delta_begin, ctxs_[0]);
    }
    std::move(ctxs_[0].pending.begin(), ctxs_[0].pending.end(),
              std::back_inserter(*pending));
    ctxs_[0].pending.clear();
  }

  bool MatchAtom(const Atom& atom, const Tuple& fact,
                 std::vector<Value>* env, std::vector<int>* trail) {
    for (size_t k = 0; k < atom.terms.size(); ++k) {
      const Term& t = atom.terms[k];
      if (!t.is_var) {
        if (t.value != fact[k]) return false;
        continue;
      }
      Value& slot = (*env)[t.value];
      if (slot == kUnbound) {
        slot = fact[k];
        trail->push_back(static_cast<int>(t.value));
      } else if (slot != fact[k]) {
        return false;
      }
    }
    return true;
  }

  // Lowers every rule body to flat per-atom action lists (kVm).
  void CompilePlans() {
    plans_.resize(program_.rules.size());
    for (size_t i = 0; i < program_.rules.size(); ++i) {
      RulePlan& plan = plans_[i];
      plan.atoms.assign(program_.rules[i].body.size(), AtomPlan());
      std::unordered_set<Value> bound;  // vars bound by earlier atoms
      for (size_t j = 0; j < program_.rules[i].body.size(); ++j) {
        const Atom& atom = program_.rules[i].body[j];
        AtomPlan& ap = plan.atoms[j];
        std::unordered_set<Value> here;  // vars this atom binds
        for (size_t k = 0; k < atom.terms.size(); ++k) {
          const Term& t = atom.terms[k];
          Action a;
          a.pos = static_cast<uint16_t>(k);
          a.val = t.value;
          if (!t.is_var) {
            a.kind = Action::kCheckConst;
          } else if (bound.count(t.value) || here.count(t.value)) {
            a.kind = Action::kCheckVar;
          } else {
            a.kind = Action::kBind;
            here.insert(t.value);
            ap.binds.push_back(t.value);
          }
          ap.actions.push_back(a);
          if (atom.terms.size() <= 32 &&
              (!t.is_var || bound.count(t.value))) {
            ap.mask |= uint32_t{1} << k;
          }
        }
        bound.insert(here.begin(), here.end());
      }
    }
  }

  // The compiled analogue of MatchAtom: applies one atom's action list to
  // a candidate fact. On failure every bind the plan owns is cleared --
  // those variables were necessarily unbound on entry (each is a rule-wide
  // first occurrence), so blanket clearing equals the dynamic trail.
  static bool MatchPlanned(const AtomPlan& ap, const Tuple& fact,
                           std::vector<Value>& env) {
    for (const Action& a : ap.actions) {
      switch (a.kind) {
        case Action::kCheckConst:
          if (fact[a.pos] != a.val) {
            UnbindPlanned(ap, env);
            return false;
          }
          break;
        case Action::kBind:
          env[a.val] = fact[a.pos];
          break;
        case Action::kCheckVar:
          if (env[a.val] != fact[a.pos]) {
            UnbindPlanned(ap, env);
            return false;
          }
          break;
      }
    }
    return true;
  }

  static void UnbindPlanned(const AtomPlan& ap, std::vector<Value>& env) {
    for (Value v : ap.binds) env[v] = kUnbound;
  }

  // The kVm executor: iterates body levels j0..end with an explicit
  // cursor stack instead of recursion. Candidate order, index probes, and
  // governor polls mirror JoinBody exactly; a poll failure exhausts the
  // innermost level, and the (tripped) parents then fail their own next
  // poll, reproducing the recursive unwind.
  void JoinBodyVm(const Rule& rule, const RulePlan& plan,
                  std::vector<Value>& env, size_t j0, int delta_atom,
                  size_t delta_begin, JoinCtx& ctx) {
    struct Lvl {
      const std::vector<Tuple>* facts = nullptr;
      const std::vector<size_t>* bucket = nullptr;  // null: dense range
      size_t idx = 0;  // next bucket slot, or next fact position
      size_t end = 0;
    };
    const size_t n = rule.body.size();
    std::vector<Lvl> stack;
    stack.reserve(n - j0);
    bool descend = true;
    for (;;) {
      if (descend) {
        size_t j = j0 + stack.size();
        if (j == n) {
          // Negated atoms, then emit -- as the interpreter's base case.
          bool blocked = false;
          for (const Atom& a : rule.negated) {
            Tuple t(a.terms.size());
            for (size_t k = 0; k < a.terms.size(); ++k) {
              t[k] = a.terms[k].is_var ? env[a.terms[k].value]
                                       : a.terms[k].value;
            }
            if (db_->Contains(a.relation, t)) {
              blocked = true;
              break;
            }
          }
          if (!blocked) {
            ++ctx.derivations;
            ++ctx.rule_derivations[current_rule_];
            Tuple t(rule.head.terms.size());
            for (size_t k = 0; k < rule.head.terms.size(); ++k) {
              const Term& term = rule.head.terms[k];
              t[k] = term.is_var ? env[term.value] : term.value;
            }
            ctx.pending.emplace_back(rule.head.relation, std::move(t));
          }
          descend = false;
          continue;
        }
        const Atom& atom = rule.body[j];
        const AtomPlan& ap = plan.atoms[j];
        const std::vector<Tuple>& facts = db_->Facts(atom.relation);
        size_t begin = static_cast<int>(j) == delta_atom ? delta_begin : 0;
        Lvl lvl;
        lvl.facts = &facts;
        if (indexed_ && ap.mask != 0) {
          const std::vector<size_t>* bucket =
              ProbeIndex(atom, ap.mask, env, ctx);
          if (bucket == nullptr) {
            descend = false;  // guaranteed miss: no frame, advance parent
            continue;
          }
          lvl.bucket = bucket;
          lvl.idx = static_cast<size_t>(
              std::lower_bound(bucket->begin(), bucket->end(), begin) -
              bucket->begin());
          lvl.end = bucket->size();
        } else {
          lvl.idx = begin;
          lvl.end = facts.size();
        }
        stack.push_back(lvl);
      }
      // Advance the innermost open level to its next matching candidate.
      if (stack.empty()) return;
      size_t j = j0 + stack.size() - 1;
      Lvl& lvl = stack.back();
      const AtomPlan& ap = plan.atoms[j];
      UnbindPlanned(ap, env);  // clear the previous candidate's binds
      bool found = false;
      while (lvl.idx < lvl.end) {
        if (governor_ != nullptr && !governor_->Poll().ok()) break;
        size_t f = lvl.bucket != nullptr ? (*lvl.bucket)[lvl.idx] : lvl.idx;
        ++lvl.idx;
        if (MatchPlanned(ap, (*lvl.facts)[f], env)) {
          found = true;
          break;
        }
      }
      if (found) {
        descend = true;
      } else {
        stack.pop_back();
        descend = false;
      }
    }
  }

  // Recursively joins body atoms j..end; atom delta_atom (if >= 0) ranges
  // only over facts at positions >= delta_begin. Derivations and counters
  // go to `ctx`, which must be private to the calling thread.
  void JoinBody(const Rule& rule, std::vector<Value>& env, size_t j,
                int delta_atom, size_t delta_begin, JoinCtx& ctx) {
    if (j == rule.body.size()) {
      // Negated atoms, then emit.
      for (const Atom& a : rule.negated) {
        Tuple t(a.terms.size());
        for (size_t k = 0; k < a.terms.size(); ++k) {
          t[k] = a.terms[k].is_var ? env[a.terms[k].value]
                                   : a.terms[k].value;
        }
        if (db_->Contains(a.relation, t)) return;
      }
      ++ctx.derivations;
      ++ctx.rule_derivations[current_rule_];
      Tuple t(rule.head.terms.size());
      for (size_t k = 0; k < rule.head.terms.size(); ++k) {
        const Term& term = rule.head.terms[k];
        t[k] = term.is_var ? env[term.value] : term.value;
      }
      ctx.pending.emplace_back(rule.head.relation, std::move(t));
      return;
    }
    const Atom& atom = rule.body[j];
    const std::vector<Tuple>& facts = db_->Facts(atom.relation);
    size_t begin =
        static_cast<int>(j) == delta_atom ? delta_begin : 0;
    if (indexed_ && atom.terms.size() <= 32) {
      uint32_t mask = 0;
      for (size_t k = 0; k < atom.terms.size(); ++k) {
        const Term& t = atom.terms[k];
        if (!t.is_var || env[t.value] != kUnbound) mask |= uint32_t{1} << k;
      }
      if (mask != 0) {
        const std::vector<size_t>* bucket = ProbeIndex(atom, mask, env, ctx);
        if (bucket != nullptr) {
          // Bucket positions ascend, so the delta constraint is a lower
          // bound; every candidate is still re-verified by MatchAtom
          // (bucket keys are hashes, collisions only enlarge buckets).
          auto it = std::lower_bound(bucket->begin(), bucket->end(), begin);
          for (; it != bucket->end(); ++it) {
            if (governor_ != nullptr && !governor_->Poll().ok()) return;
            std::vector<int> trail;
            if (MatchAtom(atom, facts[*it], &env, &trail)) {
              JoinBody(rule, env, j + 1, delta_atom, delta_begin, ctx);
            }
            for (int v : trail) env[v] = kUnbound;
          }
        }
        return;
      }
    }
    for (size_t f = begin; f < facts.size(); ++f) {
      if (governor_ != nullptr && !governor_->Poll().ok()) return;
      std::vector<int> trail;
      if (MatchAtom(atom, facts[f], &env, &trail)) {
        JoinBody(rule, env, j + 1, delta_atom, delta_begin, ctx);
      }
      for (int v : trail) env[v] = kUnbound;
    }
  }

  static uint64_t MaskKey(const Tuple& fact, uint32_t mask) {
    uint64_t h = 0;
    for (size_t k = 0; k < fact.size(); ++k) {
      if (mask & (uint32_t{1} << k)) h = HashCombine(h, fact[k]);
    }
    return h;
  }

  // Returns the bucket of fact positions whose masked fields hash like the
  // current environment's bound values, or nullptr for a guaranteed miss.
  // Builds and extends only `ctx`'s own index.
  const std::vector<size_t>* ProbeIndex(const Atom& atom, uint32_t mask,
                                        const std::vector<Value>& env,
                                        JoinCtx& ctx) {
    PosIndex& index = ctx.pos_indexes[atom.relation][mask];
    const std::vector<Tuple>& facts = db_->Facts(atom.relation);
    for (; index.stamp < facts.size(); ++index.stamp) {
      index.buckets[MaskKey(facts[index.stamp], mask)].push_back(index.stamp);
    }
    ++ctx.index_probes;
    uint64_t key = 0;
    for (size_t k = 0; k < atom.terms.size(); ++k) {
      if (!(mask & (uint32_t{1} << k))) continue;
      const Term& t = atom.terms[k];
      key = HashCombine(key, t.is_var ? env[t.value] : t.value);
    }
    auto it = index.buckets.find(key);
    if (it == index.buckets.end() || it->second.empty()) return nullptr;
    ++ctx.index_hits;
    return &it->second;
  }

  const Program& program_;
  Database* db_;
  Stats* stats_;
  ThreadPool* pool_ = nullptr;
  Governor* governor_ = nullptr;
  std::vector<int> var_counts_;
  std::vector<RulePlan> plans_;  // kVm: one compiled plan per rule
  bool indexed_ = false;
  bool vm_ = false;
  size_t current_rule_ = 0;
  // ctxs_[0] is the serial context; ctxs_[1 + w] belongs to worker w.
  std::vector<JoinCtx> ctxs_;
};

}  // namespace

Status Evaluate(const Program& program, Database* db, EvalMode mode,
                Stats* stats, uint32_t num_threads, Governor* governor) {
  Stats local;
  if (stats == nullptr) stats = &local;
  size_t threads = ResolveThreadCount(num_threads);
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  Engine engine(program, db, stats, pool.has_value() ? &*pool : nullptr,
                governor);
  Status run = engine.Run(mode);
  if (!run.ok() && governor != nullptr && governor->tripped()) {
    ResourceReport report = governor->Report();
    report.steps = stats->iterations;
    report.derivations = stats->derivations;
    run = Status(run.code(),
                 run.message() + " [resource report: " + report.ToString() +
                     "]");
  }
  return run;
}

}  // namespace iqlkit::datalog
