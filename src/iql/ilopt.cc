#include "iql/ilopt.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

namespace iqlkit::il {
namespace {

bool IsContainerScan(Op op) {
  return op == Op::kScanRel || op == Op::kScanClass || op == Op::kScanSet;
}

bool IsScan(Op op) {
  return IsContainerScan(op) || op == Op::kScanDelta || op == Op::kScanExtent;
}

// One instruction of the working list: the (operand-rewritten) copy, its
// original pc, and the unpacked aux payload -- kMakeTuple/kMakeSet operand
// registers or a container scan's probe spec -- so passes can edit it
// without aux-offset bookkeeping. aux is repacked at rebuild.
struct WorkInstr {
  Instr in;
  uint32_t orig_pc = 0;
  std::vector<uint16_t> elems;                    // kMakeTuple / kMakeSet
  std::vector<std::pair<Symbol, uint16_t>> spec;  // container-scan probe
  bool removed = false;
  RemoveReason reason = RemoveReason::kDeadValue;
};

// Union-find over registers; the representative is the class member with
// the earliest definition in the working order, so rewriting a later read
// to the representative always reads an already-assigned register.
class RegEq {
 public:
  RegEq(uint16_t n, const std::vector<uint32_t>& defpos) : defpos_(defpos) {
    parent_.resize(n);
    for (uint16_t r = 0; r < n; ++r) parent_[r] = r;
  }

  uint16_t Find(uint16_t r) {
    while (parent_[r] != r) {
      parent_[r] = parent_[parent_[r]];
      r = parent_[r];
    }
    return r;
  }

  void Union(uint16_t a, uint16_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (defpos_[b] < defpos_[a]) std::swap(a, b);
    parent_[b] = a;
  }

 private:
  std::vector<uint16_t> parent_;
  const std::vector<uint32_t>& defpos_;
};

// Value-numbering key for pure producers: op + discriminants + canonical
// operand representatives. Hash-consing makes two instructions with equal
// keys produce the same ValueId.
using VnKey = std::tuple<uint8_t, uint16_t, Symbol, uint32_t,
                         std::vector<uint16_t>>;
// Availability key for checks that already succeeded on every path here.
using CheckKey = std::tuple<uint8_t, bool, Symbol, uint32_t, uint16_t,
                            uint16_t>;

}  // namespace

std::string_view RemoveReasonName(RemoveReason reason) {
  switch (reason) {
    case RemoveReason::kValueNumbered:
      return "value-numbered";
    case RemoveReason::kRedundantCheck:
      return "redundant-check";
    case RemoveReason::kTautology:
      return "tautology";
    case RemoveReason::kProbeImplied:
      return "probe-implied";
    case RemoveReason::kDeadValue:
      return "dead-value";
  }
  return "unknown";
}

OptResult OptimizeRule(const CompiledRule& cr) {
  OptResult result;
  const uint16_t nregs = cr.num_regs;

  // ---- setup: working copies with unpacked aux payloads -------------------
  std::vector<WorkInstr> work;
  work.reserve(cr.code.size());
  for (size_t pc = 0; pc < cr.code.size(); ++pc) {
    WorkInstr w;
    w.in = cr.code[pc];
    w.orig_pc = static_cast<uint32_t>(pc);
    if (w.in.op == Op::kMakeTuple || w.in.op == Op::kMakeSet) {
      for (uint32_t k = 0; k < w.in.naux; ++k) {
        w.elems.push_back(static_cast<uint16_t>(cr.aux[w.in.aux + k]));
      }
    } else if (IsContainerScan(w.in.op)) {
      for (uint32_t k = 0; k + 1 < w.in.naux; k += 2) {
        w.spec.emplace_back(static_cast<Symbol>(cr.aux[w.in.aux + k]),
                            static_cast<uint16_t>(cr.aux[w.in.aux + k + 1]));
      }
    }
    work.push_back(std::move(w));
  }

  // ---- pass 1: hoist pure operand-free loads to the top -------------------
  // They cannot fail and read only the frozen instance, so this is
  // loop-invariant code motion (a load under a scan re-executes per
  // candidate for the same hash-consed id) and it makes constants
  // available as probe keys for every scan (pass 4).
  std::stable_partition(work.begin(), work.end(), [](const WorkInstr& w) {
    return w.in.op == Op::kLoadConst || w.in.op == Op::kLoadRel ||
           w.in.op == Op::kLoadClass;
  });

  std::vector<uint32_t> defpos(nregs, 0xFFFFFFFFu);
  for (size_t i = 0; i < work.size(); ++i) {
    int d = DefOf(work[i].in);
    if (d >= 0 && d < nregs && defpos[d] == 0xFFFFFFFFu) {
      defpos[d] = static_cast<uint32_t>(i);
    }
  }

  RegEq eq(nregs, defpos);
  std::vector<AbsVal> abs(nregs);
  std::map<VnKey, uint16_t> available;
  std::set<CheckKey> succeeded;

  auto mark_removed = [&](WorkInstr& w, RemoveReason reason) {
    w.removed = true;
    w.reason = reason;
    result.removed.push_back({w.orig_pc, w.in.src, reason});
  };
  auto note_empty = [&](const WorkInstr& w, std::string detail) {
    if (!result.statically_empty.has_value()) {
      result.statically_empty =
          EmptyReason{w.orig_pc, w.in.src, std::move(detail)};
    }
  };

  // ---- pass 4 helper: filter sinking at one container scan ----------------
  // For each top-level tuple field of the scan's match guard that is
  // compared against a register assigned before the scan, sink the
  // equality into the probe spec, mark the scan strict (the VM verifies
  // the keyed fields per candidate, so the spec is exact, not a hash
  // prefilter), and drop the now-implied compare. The field register joins
  // the key's equivalence class: for every candidate that survives the
  // strict check and the match guard, field #i *is* the key value.
  auto sink_filters = [&](size_t i) {
    WorkInstr& scan = work[i];
    size_t mi = i + 1;
    while (mi < work.size() && work[mi].removed) ++mi;
    if (mi >= work.size()) return;
    const Instr& match = work[mi].in;
    if (match.op != Op::kMatchTuple || match.a != scan.in.dst) return;
    if (match.imm >= cr.shapes.size()) return;
    const std::vector<Symbol>& shape = cr.shapes[match.imm];

    std::vector<std::pair<Symbol, uint16_t>> pairs;
    std::vector<size_t> implied;                         // cmp positions
    std::vector<std::pair<uint16_t, uint16_t>> unions;   // (field, key)
    auto have_attr = [&](Symbol attr) {
      for (const auto& [a, k] : pairs) {
        if (a == attr) return true;
      }
      return false;
    };
    for (size_t j = mi + 1; j < work.size(); ++j) {
      if (work[j].removed) continue;
      const Instr& g = work[j].in;
      if (g.op != Op::kGetField || g.a != scan.in.dst) continue;
      if (g.imm >= shape.size() || have_attr(shape[g.imm])) continue;
      for (size_t c = j + 1; c < work.size(); ++c) {
        if (work[c].removed) continue;
        const Instr& f = work[c].in;
        bool is_eq = f.op == Op::kCmp || (f.op == Op::kCheckEq && f.pol);
        if (!is_eq) continue;
        uint16_t other;
        if (f.a == g.dst && f.b != g.dst) {
          other = f.b;
        } else if (f.b == g.dst && f.a != g.dst) {
          other = f.a;
        } else {
          continue;
        }
        uint16_t key = eq.Find(other);
        // The key must already be assigned when the scan resolves.
        if (defpos[key] >= i) continue;
        pairs.emplace_back(shape[g.imm], key);
        implied.push_back(c);
        unions.emplace_back(g.dst, key);
        break;  // first equality on this field; repeats become tautologies
      }
    }
    if (pairs.empty()) return;
    // Keep any compiler-derived keys the lookahead did not re-derive.
    for (const auto& [attr, key] : scan.spec) {
      if (!have_attr(attr)) pairs.emplace_back(attr, key);
    }
    std::sort(pairs.begin(), pairs.end());
    scan.spec = std::move(pairs);
    scan.in.strict = true;
    result.strict_scans.push_back(scan.orig_pc);
    for (size_t c : implied) {
      mark_removed(work[c], RemoveReason::kProbeImplied);
    }
    for (const auto& [field, key] : unions) eq.Union(field, key);
  };

  // ---- passes 2-4: one forward pass (pc order is dominance) ---------------
  for (size_t i = 0; i < work.size(); ++i) {
    WorkInstr& w = work[i];
    if (w.removed) continue;
    Instr& in = w.in;

    // Resolve reads through the equivalences established so far. Never
    // resolve `dst`: a def keeps its own register.
    switch (in.op) {
      case Op::kDeref:
      case Op::kGetField:
      case Op::kMatchTuple:
      case Op::kBindType:
      case Op::kScanSet:
        in.a = eq.Find(in.a);
        break;
      case Op::kCheckRel:
      case Op::kCheckClass:
      case Op::kCheckDelta:
        in.b = eq.Find(in.b);
        break;
      case Op::kCmp:
      case Op::kCheckIn:
      case Op::kCheckEq:
        in.a = eq.Find(in.a);
        in.b = eq.Find(in.b);
        break;
      default:
        break;
    }
    for (uint16_t& r : w.elems) r = eq.Find(r);
    for (auto& [attr, key] : w.spec) key = eq.Find(key);

    switch (in.op) {
      case Op::kLoadConst:
      case Op::kLoadRel:
      case Op::kLoadClass:
      case Op::kDeref:
      case Op::kGetField:
      case Op::kMakeTuple:
      case Op::kMakeSet: {
        // Value numbering. kDeref is not pure (it can fail), but a repeat
        // of an earlier deref on the same register is reached only after
        // the first succeeded, with the same input -- same outcome.
        uint16_t operand = 0;
        if (in.op == Op::kDeref || in.op == Op::kGetField) operand = in.a;
        VnKey key{static_cast<uint8_t>(in.op), operand, in.sym, in.imm,
                  w.elems};
        auto [it, inserted] = available.emplace(key, in.dst);
        if (!inserted) {
          eq.Union(in.dst, it->second);
          mark_removed(w, RemoveReason::kValueNumbered);
          break;
        }
        AbsVal v;
        switch (in.op) {
          case Op::kLoadConst:
            v.kind = AbsVal::Kind::kConst;
            v.sym = in.sym;
            break;
          case Op::kLoadRel:
            v.kind = AbsVal::Kind::kRelValue;
            v.sym = in.sym;
            break;
          case Op::kLoadClass:
            v.kind = AbsVal::Kind::kClassValue;
            v.sym = in.sym;
            break;
          case Op::kMakeTuple:
            v.kind = AbsVal::Kind::kTuple;
            v.shape = in.imm;
            break;
          case Op::kMakeSet:
            v.kind = AbsVal::Kind::kSet;
            break;
          default:
            break;
        }
        abs[in.dst] = v;
        break;
      }

      case Op::kMatchTuple: {
        if (NeverTuple(abs[in.a])) {
          note_empty(w, "tuple match over a value that is never a tuple");
          break;
        }
        CheckKey ck{static_cast<uint8_t>(in.op), true, kInvalidSymbol,
                    in.imm, in.a, 0};
        if (!succeeded.insert(ck).second) {
          mark_removed(w, RemoveReason::kRedundantCheck);
          break;
        }
        // From here on the register is a tuple of this shape.
        if (abs[in.a].kind == AbsVal::Kind::kAny) {
          abs[in.a].kind = AbsVal::Kind::kTuple;
          abs[in.a].shape = in.imm;
        }
        break;
      }

      case Op::kBindType: {
        CheckKey ck{static_cast<uint8_t>(in.op), true, kInvalidSymbol,
                    in.imm, in.a, 0};
        if (!succeeded.insert(ck).second) {
          mark_removed(w, RemoveReason::kRedundantCheck);
        }
        break;
      }

      case Op::kCmp:
      case Op::kCheckEq: {
        bool pol = in.op == Op::kCmp ? true : in.pol;
        uint16_t x = in.a;
        uint16_t y = in.b;
        if (x == y) {
          if (pol) {
            mark_removed(w, RemoveReason::kTautology);
          } else {
            note_empty(w, "a value compared unequal to itself");
          }
          break;
        }
        if (ProvablyDistinct(abs[x], abs[y])) {
          if (pol) {
            note_empty(w, "equality of provably distinct values");
          } else {
            mark_removed(w, RemoveReason::kTautology);
          }
          break;
        }
        if (x > y) std::swap(x, y);
        CheckKey ck{static_cast<uint8_t>(Op::kCmp), pol, kInvalidSymbol, 0,
                    x, y};
        if (!succeeded.insert(ck).second) {
          mark_removed(w, RemoveReason::kRedundantCheck);
          break;
        }
        if (pol) eq.Union(x, y);
        break;
      }

      case Op::kCheckRel:
      case Op::kCheckClass: {
        CheckKey ck{static_cast<uint8_t>(in.op), in.pol, in.sym, 0, in.b, 0};
        if (!succeeded.insert(ck).second) {
          mark_removed(w, RemoveReason::kRedundantCheck);
        }
        break;
      }

      case Op::kCheckIn: {
        if (NeverSet(abs[in.a])) {
          // A non-set container fails either polarity (mirror Check).
          note_empty(w, "membership test in a value that is never a set");
          break;
        }
        CheckKey ck{static_cast<uint8_t>(in.op), in.pol, kInvalidSymbol, 0,
                    in.a, in.b};
        if (!succeeded.insert(ck).second) {
          mark_removed(w, RemoveReason::kRedundantCheck);
          break;
        }
        if (in.pol && abs[in.a].kind == AbsVal::Kind::kAny) {
          abs[in.a].kind = AbsVal::Kind::kSet;
        }
        break;
      }

      case Op::kCheckDelta: {
        CheckKey ck{static_cast<uint8_t>(in.op), true, kInvalidSymbol, 0,
                    in.b, 0};
        if (!succeeded.insert(ck).second) {
          mark_removed(w, RemoveReason::kRedundantCheck);
        }
        break;
      }

      case Op::kScanRel:
      case Op::kScanClass:
      case Op::kScanSet: {
        if (in.op == Op::kScanSet && NeverSet(abs[in.a])) {
          note_empty(w, "scan of a value that is never a set");
        } else {
          sink_filters(i);
        }
        if (in.op == Op::kScanSet && abs[in.a].kind == AbsVal::Kind::kAny) {
          abs[in.a].kind = AbsVal::Kind::kSet;  // candidates imply a set
        }
        break;
      }

      case Op::kScanDelta:
      case Op::kScanExtent:
      case Op::kEmit:
        break;
    }
  }

  // ---- final theta: canonical representatives -----------------------------
  std::vector<std::pair<Symbol, uint16_t>> theta;
  theta.reserve(cr.theta.size());
  for (const auto& [var, r] : cr.theta) theta.emplace_back(var, eq.Find(r));

  // ---- pass 5: dead-value elimination to a fixpoint -----------------------
  // Only pure producers drop: scans shape the loop nest (and the parallel
  // partition point), kDeref is a filter, checks are filters, kEmit is the
  // terminator.
  auto dce_candidate = [](Op op) {
    switch (op) {
      case Op::kLoadConst:
      case Op::kLoadRel:
      case Op::kLoadClass:
      case Op::kGetField:
      case Op::kMakeTuple:
      case Op::kMakeSet:
        return true;
      default:
        return false;
    }
  };
  for (bool changed = true; changed;) {
    changed = false;
    std::vector<uint32_t> uses(nregs, 0);
    auto count = [&](uint16_t r) {
      if (r < nregs) ++uses[r];
    };
    for (const WorkInstr& w : work) {
      if (w.removed) continue;
      switch (w.in.op) {
        case Op::kDeref:
        case Op::kGetField:
        case Op::kMatchTuple:
        case Op::kBindType:
        case Op::kScanSet:
          count(w.in.a);
          break;
        case Op::kCheckRel:
        case Op::kCheckClass:
        case Op::kCheckDelta:
          count(w.in.b);
          break;
        case Op::kCmp:
        case Op::kCheckIn:
        case Op::kCheckEq:
          count(w.in.a);
          count(w.in.b);
          break;
        default:
          break;
      }
      for (uint16_t r : w.elems) count(r);
      for (const auto& [attr, key] : w.spec) count(key);
    }
    for (const auto& [var, r] : theta) count(r);
    for (WorkInstr& w : work) {
      if (w.removed || !dce_candidate(w.in.op)) continue;
      if (uses[w.in.dst] == 0) {
        mark_removed(w, RemoveReason::kDeadValue);
        changed = true;
      }
    }
  }

  // ---- pass 6: rebuild with compacted registers and fresh aux -------------
  CompiledRule out;
  out.shapes = cr.shapes;
  out.delta_literal = cr.delta_literal;
  std::vector<uint16_t> remap(nregs, 0xFFFF);
  uint16_t next = 0;
  auto map_use = [&](uint16_t r) {
    assert(r < nregs && remap[r] != 0xFFFF && "read of an unmapped register");
    return remap[r];
  };
  for (const WorkInstr& w : work) {
    if (w.removed) continue;
    Instr in = w.in;
    switch (in.op) {
      case Op::kDeref:
      case Op::kGetField:
      case Op::kMatchTuple:
      case Op::kBindType:
      case Op::kScanSet:
        in.a = map_use(in.a);
        break;
      case Op::kCheckRel:
      case Op::kCheckClass:
      case Op::kCheckDelta:
        in.b = map_use(in.b);
        break;
      case Op::kCmp:
      case Op::kCheckIn:
      case Op::kCheckEq:
        in.a = map_use(in.a);
        in.b = map_use(in.b);
        break;
      default:
        break;
    }
    if (!w.elems.empty() || !w.spec.empty()) {
      in.aux = static_cast<uint32_t>(out.aux.size());
      if (!w.elems.empty()) {
        in.naux = static_cast<uint32_t>(w.elems.size());
        for (uint16_t r : w.elems) out.aux.push_back(map_use(r));
      } else {
        in.naux = static_cast<uint32_t>(2 * w.spec.size());
        for (const auto& [attr, key] : w.spec) {
          out.aux.push_back(attr);
          out.aux.push_back(map_use(key));
        }
      }
    } else {
      in.aux = 0;
      in.naux = 0;
    }
    int d = DefOf(in);
    if (d >= 0) {
      if (remap[d] == 0xFFFF) remap[d] = next++;
      in.dst = remap[d];
    }
    out.code.push_back(in);
  }
  out.num_regs = next;
  out.theta.reserve(theta.size());
  for (const auto& [var, r] : theta) out.theta.emplace_back(var, map_use(r));

  std::sort(result.removed.begin(), result.removed.end(),
            [](const RemovedInstr& a, const RemovedInstr& b) {
              return a.pc < b.pc;
            });
  result.rule = std::move(out);
#ifndef NDEBUG
  {
    std::vector<IlViolation> violations = VerifyRule(result.rule);
    assert(violations.empty() &&
           "OptimizeRule produced IL rejected by VerifyRule");
  }
#endif
  return result;
}

CompiledRule OptimizeForExecution(const CompiledRule& cr) {
  return OptimizeRule(cr).rule;
}

// ---- L-series lint --------------------------------------------------------

namespace {

std::string ReasonPhrase(RemoveReason reason) {
  switch (reason) {
    case RemoveReason::kValueNumbered:
      return "a duplicate of an earlier value";
    case RemoveReason::kRedundantCheck:
      return "a repeat of a check that already succeeded";
    case RemoveReason::kTautology:
      return "a check that can never fail";
    case RemoveReason::kProbeImplied:
      return "implied by the scan's strict probe key";
    case RemoveReason::kDeadValue:
      return "a value that is never read";
  }
  return "unused";
}

}  // namespace

void LintCompiledRule(const CompiledRule& cr, const Rule& rule,
                      const SymbolTable& syms, const TypePool& types,
                      DiagnosticSink* sink) {
  auto span_for = [&](uint32_t src) {
    if (src != kNoSrc && src < rule.body.size()) return rule.body[src].span;
    return rule.span;
  };

  // L004: malformed IL. CompileRule never produces it (debug-asserted),
  // so in practice this fires only on hand-built or corrupted IL; the
  // later checks assume verifier-clean input, so stop here.
  std::vector<IlViolation> violations = VerifyRule(cr);
  if (!violations.empty()) {
    for (const IlViolation& v : violations) {
      uint32_t src =
          v.pc < cr.code.size() ? cr.code[v.pc].src : kNoSrc;
      std::ostringstream msg;
      msg << "malformed IL at %" << v.pc << ": " << v.detail;
      sink->Error("L004", span_for(src), msg.str());
    }
    return;
  }

  // L002: a join scan (any container scan after the first loop) with no
  // probe key rescans its whole container once per outer candidate.
  bool seen_scan = false;
  for (size_t pc = 0; pc < cr.code.size(); ++pc) {
    const Instr& in = cr.code[pc];
    if (!IsScan(in.op)) continue;
    if (seen_scan && IsContainerScan(in.op) && in.naux == 0) {
      std::string what = in.op == Op::kScanSet
                             ? std::string("a set value")
                             : "'" + std::string(syms.name(in.sym)) + "'";
      sink->Hint("L002", span_for(in.src),
                 "join scan of " + what +
                     " has no bindable key: the whole container is "
                     "rescanned per outer candidate");
    }
    seen_scan = true;
  }

  OptResult opt = OptimizeRule(cr);
  if (opt.statically_empty.has_value()) {
    const EmptyReason& e = *opt.statically_empty;
    std::ostringstream msg;
    msg << "rule body is statically empty: " << e.detail << " (%" << e.pc
        << ": " << RenderInstruction(cr, e.pc, syms, types)
        << "); the rule can never fire";
    sink->Warning("L003", span_for(e.src), msg.str());
  }
  for (const RemovedInstr& rm : opt.removed) {
    std::ostringstream msg;
    msg << "dead instruction: '" << RenderInstruction(cr, rm.pc, syms, types)
        << "' is " << ReasonPhrase(rm.reason);
    sink->Hint("L001", span_for(rm.src), msg.str());
  }
}

void LintProgramIl(const Program& prog, const SymbolTable& syms,
                   const TypePool& types, DiagnosticSink* sink) {
  for (const auto& stage : prog.stages) {
    for (const Rule& rule : stage) {
      std::optional<CompiledRule> cr = CompileRule(prog, rule);
      if (!cr.has_value()) continue;  // tree-walk fallback: no IL to lint
      LintCompiledRule(*cr, rule, syms, types, sink);
    }
  }
}

// ---- extended IL dump -----------------------------------------------------

std::string DumpProgramIl(const Program& prog, const SymbolTable& syms,
                          const TypePool& types, const IlDumpOptions& opts) {
  std::ostringstream out;
  for (size_t s = 0; s < prog.stages.size(); ++s) {
    out << "stage " << s << ":\n";
    const auto& rules = prog.stages[s];
    std::set<Symbol> heads;
    if (opts.delta_variants) {
      for (const Rule& rule : rules) {
        if (rule.head.kind != Literal::Kind::kMembership ||
            rule.head_negative) {
          continue;
        }
        const Term& lhs = prog.term(rule.head.lhs);
        if (lhs.kind == Term::Kind::kRelName) heads.insert(lhs.name);
      }
    }
    for (size_t r = 0; r < rules.size(); ++r) {
      const Rule& rule = rules[r];
      out << "  rule " << r << ": " << prog.RuleToString(rule, syms) << "\n";
      std::optional<CompiledRule> cr = CompileRule(prog, rule);
      if (!cr.has_value()) {
        const char* why = !rule.invented_vars.empty() ? "oid invention"
                          : rule.has_choose          ? "choose"
                                                     : "planner bail";
        out << "    fallback (tree-walk): " << why << "\n";
        continue;
      }
      if (opts.optimize) {
        out << Disassemble(OptimizeForExecution(*cr), syms, types, "    ");
      } else {
        out << Disassemble(*cr, syms, types, "    ");
      }
      if (!opts.delta_variants) continue;
      for (size_t d = 0; d < rule.body.size(); ++d) {
        const Literal& lit = rule.body[d];
        if (lit.kind != Literal::Kind::kMembership || !lit.positive) {
          continue;
        }
        const Term& lhs = prog.term(lit.lhs);
        if (lhs.kind != Term::Kind::kRelName || heads.count(lhs.name) == 0) {
          continue;
        }
        out << "    delta variant (literal " << d << ": "
            << prog.LiteralToString(lit, syms) << "):\n";
        std::optional<CompiledRule> dv = CompileRule(prog, rule, d);
        if (!dv.has_value()) {
          out << "      fallback (tree-walk): planner bail\n";
          continue;
        }
        if (opts.optimize) {
          out << Disassemble(OptimizeForExecution(*dv), syms, types,
                             "      ");
        } else {
          out << Disassemble(*dv, syms, types, "      ");
        }
      }
    }
  }
  return out.str();
}

}  // namespace iqlkit::il
