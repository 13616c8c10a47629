#include "iql/vm.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "model/universe.h"

namespace iqlkit::vm {

PreparedRule PrepareRule(const il::CompiledRule& cr, const Instance& inst,
                         ValueArena& values, bool indexing_enabled) {
  PreparedRule p;
  p.at.resize(cr.code.size());
  for (size_t pc = 0; pc < cr.code.size(); ++pc) {
    const il::Instr& in = cr.code[pc];
    PreparedRule::Entry& e = p.at[pc];
    switch (in.op) {
      case il::Op::kLoadRel: {
        const ValueIdSet& tuples = inst.Relation(in.sym);
        e.value =
            values.Set(std::vector<ValueId>(tuples.begin(), tuples.end()));
        e.has_value = true;
        break;
      }
      case il::Op::kLoadClass: {
        std::vector<ValueId> oids;
        for (Oid o : inst.ClassExtent(in.sym)) oids.push_back(values.OfOid(o));
        e.value = values.Set(std::move(oids));
        e.has_value = true;
        break;
      }
      case il::Op::kScanRel: {
        // With an index the scan borrows the index's candidate list; only
        // the index-off materialized copy is worth caching.
        if (indexing_enabled) break;
        const ValueIdSet& tuples = inst.Relation(in.sym);
        e.elems.assign(tuples.begin(), tuples.end());
        e.has_elems = true;
        break;
      }
      case il::Op::kScanClass: {
        if (indexing_enabled) break;
        for (Oid o : inst.ClassExtent(in.sym)) {
          e.elems.push_back(values.OfOid(o));
        }
        e.has_elems = true;
        break;
      }
      default:
        // kScanSet / kScanDelta candidate lists and probe buckets depend
        // on registers or per-round deltas: not cacheable.
        break;
    }
  }
  return p;
}

VmSolver::VmSolver(const il::CompiledRule& cr, const Instance& inst,
                   const VmContext& ctx,
                   const std::vector<ValueId>* delta_facts)
    : cr_(cr),
      inst_(inst),
      ctx_(ctx),
      delta_facts_(delta_facts),
      membership_(&inst.universe()->types(), ctx.values, &inst) {
  assert(ctx.prepared == nullptr ||
         ctx.prepared->at.size() == cr.code.size());
}

Status VmSolver::Solve(const Callback& cb) {
  const std::vector<il::Instr>& code = cr_.code;
  ValueArena& values = *ctx_.values;
  const PreparedRule* prepared = ctx_.prepared;
  regs_.assign(cr_.num_regs, kInvalidValue);
  frames_.clear();
  at_first_branch_ = true;

  // Dispatched-instruction count, accumulated locally and flushed once on
  // every exit path (including the early returns the error macros expand
  // to) by the guard's destructor.
  uint64_t dispatched = 0;
  struct Flusher {
    const uint64_t& count;
    RuleMetrics* metrics;
    ~Flusher() {
      if (metrics != nullptr) metrics->vm_instructions += count;
    }
  } flusher{dispatched, ctx_.rule_metrics};

  auto frame_elem = [](const Frame& f, size_t i) {
    return (f.elems != nullptr) ? (*f.elems)[i] : f.owned[i];
  };

  size_t pc = 0;
  for (;;) {
    const il::Instr& in = code[pc];
    bool fail = false;
    ++dispatched;
    switch (in.op) {
      case il::Op::kLoadConst:
        regs_[in.dst] = values.ConstSymbol(in.sym);
        break;
      case il::Op::kLoadRel:
        if (prepared != nullptr && prepared->at[pc].has_value) {
          regs_[in.dst] = prepared->at[pc].value;
        } else {
          const ValueIdSet& tuples = inst_.Relation(in.sym);
          regs_[in.dst] =
              values.Set(std::vector<ValueId>(tuples.begin(), tuples.end()));
        }
        break;
      case il::Op::kLoadClass:
        if (prepared != nullptr && prepared->at[pc].has_value) {
          regs_[in.dst] = prepared->at[pc].value;
        } else {
          std::vector<ValueId> oids;
          for (Oid o : inst_.ClassExtent(in.sym)) {
            oids.push_back(values.OfOid(o));
          }
          regs_[in.dst] = values.Set(std::move(oids));
        }
        break;
      case il::Op::kDeref: {
        const ValueNode& n = values.node(regs_[in.a]);
        if (n.kind != ValueKind::kOid) {
          fail = true;
          break;
        }
        std::optional<ValueId> v = inst_.ValueOf(n.oid);
        if (!v.has_value()) {
          fail = true;  // nu undefined, as EvalTerm's nullopt
          break;
        }
        regs_[in.dst] = *v;
        break;
      }
      case il::Op::kGetField:
        // Guarded by a dominating kMatchTuple (VerifyRule enforces it).
        regs_[in.dst] = values.node(regs_[in.a]).fields[in.imm].second;
        break;
      case il::Op::kMakeTuple: {
        const std::vector<Symbol>& shape = cr_.shapes[in.imm];
        std::vector<std::pair<Symbol, ValueId>> fields;
        fields.reserve(in.naux);
        for (uint32_t k = 0; k < in.naux; ++k) {
          fields.emplace_back(shape[k], regs_[cr_.aux[in.aux + k]]);
        }
        regs_[in.dst] = values.Tuple(std::move(fields));
        break;
      }
      case il::Op::kMakeSet: {
        std::vector<ValueId> elems;
        elems.reserve(in.naux);
        for (uint32_t k = 0; k < in.naux; ++k) {
          elems.push_back(regs_[cr_.aux[in.aux + k]]);
        }
        regs_[in.dst] = values.Set(std::move(elems));
        break;
      }
      case il::Op::kMatchTuple: {
        const ValueNode& n = values.node(regs_[in.a]);
        const std::vector<Symbol>& shape = cr_.shapes[in.imm];
        if (n.kind != ValueKind::kTuple || n.fields.size() != shape.size()) {
          fail = true;
          break;
        }
        for (size_t k = 0; k < shape.size(); ++k) {
          if (n.fields[k].first != shape[k]) {
            fail = true;
            break;
          }
        }
        break;
      }
      case il::Op::kBindType:
        fail = !membership_.Contains(static_cast<TypeId>(in.imm), regs_[in.a]);
        break;
      case il::Op::kCmp:
        fail = regs_[in.a] != regs_[in.b];
        break;
      case il::Op::kCheckRel: {
        // A side-store id is structurally new, hence never in a shared
        // relation extent; otherwise raw-id membership is structural.
        ValueId v = regs_[in.b];
        bool contains = !values.IsSide(v) && inst_.RelationContains(in.sym, v);
        fail = contains != in.pol;
        break;
      }
      case il::Op::kCheckClass: {
        // No side shortcut here: a side OfOid value is structurally equal
        // to the shared one for the same oid.
        const ValueNode& n = values.node(regs_[in.b]);
        bool contains =
            n.kind == ValueKind::kOid && inst_.OidInClass(n.oid, in.sym);
        fail = contains != in.pol;
        break;
      }
      case il::Op::kCheckIn: {
        const ValueNode& n = values.node(regs_[in.a]);
        if (n.kind != ValueKind::kSet) {
          fail = true;  // non-set lhs fails either polarity (mirror Check)
          break;
        }
        fail = values.ElemsContain(n.elems, regs_[in.b]) != in.pol;
        break;
      }
      case il::Op::kCheckEq:
        fail = (regs_[in.a] == regs_[in.b]) != in.pol;
        break;
      case il::Op::kCheckDelta:
        fail = delta_facts_ == nullptr ||
               !std::binary_search(delta_facts_->begin(), delta_facts_->end(),
                                   regs_[in.b]);
        break;

      case il::Op::kScanRel:
      case il::Op::kScanClass:
      case il::Op::kScanSet:
      case il::Op::kScanDelta:
      case il::Op::kScanExtent: {
        // Resolve the candidate list: delta facts, an extent, an index
        // probe or scan, a prepared list, or a materialized copy when
        // indexing is off. `present` distinguishes an unresolved list --
        // a probe that missed every bucket, or a non-set container --
        // from a resolved but empty one: only a resolved list consumes
        // the first-branch probe/slice state, exactly as in
        // GenerateMembership.
        Frame f;
        f.pc = static_cast<uint32_t>(pc);
        f.dst = in.dst;
        bool present = true;
        if (in.op == il::Op::kScanDelta) {
          if (delta_facts_ == nullptr) {
            present = false;
          } else {
            f.elems = delta_facts_;
          }
        } else if (in.op == il::Op::kScanExtent) {
          auto extent = ctx_.extents->Enumerate(static_cast<TypeId>(in.imm));
          if (!extent.ok()) return extent.status();
          f.elems = *extent;
        } else if (in.op == il::Op::kScanSet &&
                   values.node(regs_[in.a]).kind != ValueKind::kSet) {
          present = false;  // the tree-walker's "impossible" container
        } else {
          RelationIndex::Container c;
          if (in.op == il::Op::kScanRel) {
            c = RelationIndex::Container::Relation(in.sym);
          } else if (in.op == il::Op::kScanClass) {
            c = RelationIndex::Container::Class(in.sym);
          } else {
            c = RelationIndex::Container::SetValue(regs_[in.a]);
          }
          if (ctx_.index != nullptr && in.naux > 0) {
            std::vector<Symbol> attrs;
            std::vector<ValueId> key;
            attrs.reserve(in.naux / 2);
            key.reserve(in.naux / 2);
            for (uint32_t k = 0; k + 1 < in.naux; k += 2) {
              attrs.push_back(static_cast<Symbol>(cr_.aux[in.aux + k]));
              key.push_back(regs_[cr_.aux[in.aux + k + 1]]);
            }
            const std::vector<ValueId>* bucket =
                ctx_.index->Probe(c, attrs, key);
            if (ctx_.rule_metrics != nullptr) {
              ++ctx_.rule_metrics->index_probes;
            }
            if (bucket == nullptr) {
              present = false;
            } else {
              f.elems = bucket;
            }
          } else if (ctx_.index != nullptr) {
            f.elems = &ctx_.index->Elems(c);
            if (ctx_.rule_metrics != nullptr) {
              ++ctx_.rule_metrics->index_scans;
            }
          } else {
            // No index: a prepared candidate list when the coordinator
            // built one, else materialize a private copy, as the
            // tree-walker's ContainerElems does per generator visit.
            if (prepared != nullptr && prepared->at[pc].has_elems) {
              f.elems = &prepared->at[pc].elems;
            } else if (in.op == il::Op::kScanRel) {
              const ValueIdSet& tuples = inst_.Relation(in.sym);
              f.owned.assign(tuples.begin(), tuples.end());
            } else if (in.op == il::Op::kScanClass) {
              for (Oid o : inst_.ClassExtent(in.sym)) {
                f.owned.push_back(values.OfOid(o));
              }
            } else {
              f.owned = values.node(regs_[in.a]).elems;
            }
            if (ctx_.rule_metrics != nullptr) {
              ++ctx_.rule_metrics->index_scans;
            }
          }
        }
        size_t lo = 0;
        size_t hi = 0;
        if (present) {
          hi = (f.elems != nullptr) ? f.elems->size() : f.owned.size();
          // The first executed scan is the parallel partition point:
          // report its width in probe mode, or clamp to this worker's
          // slice of the candidates.
          if (at_first_branch_) {
            at_first_branch_ = false;
            if (probe_width_ != nullptr) {
              *probe_width_ = hi;
              return Status::Ok();
            }
            lo = std::min(slice_begin_, hi);
            hi = std::min(slice_end_, hi);
          }
        }
        f.idx = lo;
        f.end = hi;
        if (f.idx >= f.end) {
          fail = true;
          break;
        }
        frames_.push_back(std::move(f));
        // Poll once per candidate, as the tree-walker does per generator
        // visit.
        if (ctx_.governor != nullptr) {
          IQL_RETURN_IF_ERROR(ctx_.governor->Poll());
        }
        const Frame& top = frames_.back();
        regs_[top.dst] = frame_elem(top, top.idx);
        break;
      }

      case il::Op::kEmit: {
        theta_.clear();
        for (const auto& [var, r] : cr_.theta) {
          theta_.emplace_hint(theta_.end(), var, regs_[r]);
        }
        IQL_RETURN_IF_ERROR(cb(theta_));
        fail = true;  // backtrack into the next valuation
        break;
      }
    }

    if (!fail) {
      ++pc;
      continue;
    }
    // Backtrack: advance the innermost open scan, or finish. The resumed
    // instruction is counted by the next loop iteration's dispatch, not
    // here.
    for (;;) {
      if (frames_.empty()) return Status::Ok();
      Frame& fr = frames_.back();
      ++fr.idx;
      if (fr.idx >= fr.end) {
        frames_.pop_back();
        continue;
      }
      if (ctx_.governor != nullptr) {
        IQL_RETURN_IF_ERROR(ctx_.governor->Poll());
      }
      regs_[fr.dst] = frame_elem(fr, fr.idx);
      pc = fr.pc + 1;
      break;
    }
  }
}

}  // namespace iqlkit::vm
