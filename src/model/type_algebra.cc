#include "model/type_algebra.h"

#include <algorithm>
#include <vector>

#include "base/hash.h"
#include "base/logging.h"

namespace iqlkit {

bool TypeMembership::Contains(TypeId t, ValueId v) {
  uint64_t key = (static_cast<uint64_t>(t) << 32) | v;
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  // Insert a tentative value to cut (impossible, since values are finite
  // trees, but cheap) recursion; overwritten below.
  const TypeNode& tn = types_->node(t);
  const ValueNode& vn = NodeOf(v);
  bool result = false;
  switch (tn.kind) {
    case TypeKind::kEmpty:
      result = false;
      break;
    case TypeKind::kBase:
      result = vn.kind == ValueKind::kConst;
      break;
    case TypeKind::kClass:
      result = vn.kind == ValueKind::kOid &&
               classes_->OidInClass(vn.oid, tn.class_name);
      break;
    case TypeKind::kTuple: {
      if (vn.kind != ValueKind::kTuple) {
        result = false;
        break;
      }
      if (star_) {
        // *-interpretation (§6): the value may have extra attributes; every
        // attribute of the type must be present with a member value.
        result = true;
        for (const auto& [attr, ft] : tn.fields) {
          auto fit = std::find_if(
              vn.fields.begin(), vn.fields.end(),
              [&](const auto& f) { return f.first == attr; });
          if (fit == vn.fields.end() || !Contains(ft, fit->second)) {
            result = false;
            break;
          }
        }
      } else {
        // Exact interpretation: identical attribute sets (both are sorted
        // by attribute symbol).
        if (tn.fields.size() != vn.fields.size()) {
          result = false;
          break;
        }
        result = true;
        for (size_t i = 0; i < tn.fields.size(); ++i) {
          if (tn.fields[i].first != vn.fields[i].first ||
              !Contains(tn.fields[i].second, vn.fields[i].second)) {
            result = false;
            break;
          }
        }
      }
      break;
    }
    case TypeKind::kSet: {
      if (vn.kind != ValueKind::kSet) {
        result = false;
        break;
      }
      result = true;
      for (ValueId elem : vn.elems) {
        if (!Contains(tn.children[0], elem)) {
          result = false;
          break;
        }
      }
      break;
    }
    case TypeKind::kUnion: {
      result = false;
      for (TypeId child : tn.children) {
        if (Contains(child, v)) {
          result = true;
          break;
        }
      }
      break;
    }
    case TypeKind::kIntersect: {
      result = true;
      for (TypeId child : tn.children) {
        if (!Contains(child, v)) {
          result = false;
          break;
        }
      }
      break;
    }
  }
  cache_.emplace(key, result);
  return result;
}

namespace {

// Meet of two intersection-reduced types; sound over every oid assignment.
// Exploits the pairwise disjointness of the *top-level value shapes*:
// constants, oids, tuples and sets are syntactically distinct o-values, so
// e.g. ⟦D⟧ and ⟦P⟧ or ⟦P⟧ and ⟦[..]⟧ never share elements.
TypeId Meet(TypePool* pool, TypeId a, TypeId b);

bool IsClassLike(const TypeNode& n) {
  // After reduction, an intersection node's children are class names only.
  return n.kind == TypeKind::kClass || n.kind == TypeKind::kIntersect;
}

TypeId Meet(TypePool* pool, TypeId a, TypeId b) {
  if (a == b) return a;
  const TypeNode an = pool->node(a);  // copy: pool may grow below
  const TypeNode bn = pool->node(b);
  if (an.kind == TypeKind::kEmpty || bn.kind == TypeKind::kEmpty) {
    return pool->Empty();
  }
  // Distribute over unions first: (t1|t2) & s == (t1&s) | (t2&s).
  if (an.kind == TypeKind::kUnion) {
    std::vector<TypeId> members;
    members.reserve(an.children.size());
    for (TypeId child : an.children) members.push_back(Meet(pool, child, b));
    return pool->Union(std::move(members));
  }
  if (bn.kind == TypeKind::kUnion) return Meet(pool, b, a);

  switch (an.kind) {
    case TypeKind::kBase:
      // D & D handled by a == b; D & anything-else is empty (constants are
      // disjoint from oids, tuples, sets).
      return pool->Empty();
    case TypeKind::kClass:
    case TypeKind::kIntersect: {
      if (!IsClassLike(bn)) return pool->Empty();
      // Keep a residual class intersection; under disjoint assignments
      // EliminateIntersection maps it to empty.
      return pool->Intersect2(a, b);
    }
    case TypeKind::kTuple: {
      if (bn.kind != TypeKind::kTuple) return pool->Empty();
      if (an.fields.size() != bn.fields.size()) return pool->Empty();
      std::vector<std::pair<Symbol, TypeId>> fields;
      fields.reserve(an.fields.size());
      for (size_t i = 0; i < an.fields.size(); ++i) {
        if (an.fields[i].first != bn.fields[i].first) return pool->Empty();
        fields.emplace_back(
            an.fields[i].first,
            Meet(pool, an.fields[i].second, bn.fields[i].second));
      }
      return pool->Tuple(std::move(fields));
    }
    case TypeKind::kSet: {
      if (bn.kind != TypeKind::kSet) return pool->Empty();
      // {t} & {s} == {t & s}: a finite set lies in both interpretations
      // iff each element lies in both element types.
      return pool->Set(Meet(pool, an.children[0], bn.children[0]));
    }
    case TypeKind::kEmpty:
    case TypeKind::kUnion:
      break;  // handled above
  }
  IQL_CHECK(false) << "unreachable Meet case";
  return pool->Empty();
}

}  // namespace

TypeId IntersectionReduce(TypePool* pool, TypeId t) {
  const TypeNode n = pool->node(t);  // copy: pool may grow below
  switch (n.kind) {
    case TypeKind::kEmpty:
    case TypeKind::kBase:
    case TypeKind::kClass:
      return t;
    case TypeKind::kTuple: {
      std::vector<std::pair<Symbol, TypeId>> fields = n.fields;
      for (auto& [attr, child] : fields) {
        child = IntersectionReduce(pool, child);
      }
      return pool->Tuple(std::move(fields));
    }
    case TypeKind::kSet:
      return pool->Set(IntersectionReduce(pool, n.children[0]));
    case TypeKind::kUnion: {
      std::vector<TypeId> members = n.children;
      for (TypeId& child : members) child = IntersectionReduce(pool, child);
      return pool->Union(std::move(members));
    }
    case TypeKind::kIntersect: {
      std::vector<TypeId> members = n.children;
      for (TypeId& child : members) child = IntersectionReduce(pool, child);
      TypeId acc = members[0];
      for (size_t i = 1; i < members.size(); ++i) {
        acc = Meet(pool, acc, members[i]);
      }
      return acc;
    }
  }
  return t;
}

namespace {

// Maps residual class-class intersections to empty (valid for disjoint
// assignments) in an already intersection-reduced type.
TypeId EraseResidualIntersections(TypePool* pool, TypeId t) {
  const TypeNode n = pool->node(t);  // copy: pool may grow below
  switch (n.kind) {
    case TypeKind::kEmpty:
    case TypeKind::kBase:
    case TypeKind::kClass:
      return t;
    case TypeKind::kIntersect:
      return pool->Empty();
    case TypeKind::kTuple: {
      std::vector<std::pair<Symbol, TypeId>> fields = n.fields;
      for (auto& [attr, child] : fields) {
        child = EraseResidualIntersections(pool, child);
      }
      return pool->Tuple(std::move(fields));
    }
    case TypeKind::kSet:
      return pool->Set(EraseResidualIntersections(pool, n.children[0]));
    case TypeKind::kUnion: {
      std::vector<TypeId> members = n.children;
      for (TypeId& child : members) {
        child = EraseResidualIntersections(pool, child);
      }
      return pool->Union(std::move(members));
    }
  }
  return t;
}

// Distributes unions upward through tuple constructors.
TypeId DistributeUnions(TypePool* pool, TypeId t) {
  const TypeNode n = pool->node(t);  // copy: pool may grow below
  switch (n.kind) {
    case TypeKind::kEmpty:
    case TypeKind::kBase:
    case TypeKind::kClass:
    case TypeKind::kIntersect:
      return t;
    case TypeKind::kSet:
      return pool->Set(DistributeUnions(pool, n.children[0]));
    case TypeKind::kUnion: {
      std::vector<TypeId> members = n.children;
      for (TypeId& child : members) child = DistributeUnions(pool, child);
      return pool->Union(std::move(members));
    }
    case TypeKind::kTuple: {
      // Normalize fields, then expand the cross product of union fields.
      std::vector<std::pair<Symbol, TypeId>> fields = n.fields;
      for (auto& [attr, child] : fields) {
        child = DistributeUnions(pool, child);
      }
      std::vector<std::vector<std::pair<Symbol, TypeId>>> expansions = {{}};
      for (const auto& [attr, child] : fields) {
        const TypeNode& cn = pool->node(child);
        std::vector<TypeId> options;
        if (cn.kind == TypeKind::kUnion) {
          options = cn.children;
        } else {
          options = {child};
        }
        std::vector<std::vector<std::pair<Symbol, TypeId>>> next;
        next.reserve(expansions.size() * options.size());
        for (const auto& partial : expansions) {
          for (TypeId opt : options) {
            auto extended = partial;
            extended.emplace_back(attr, opt);
            next.push_back(std::move(extended));
          }
        }
        expansions = std::move(next);
      }
      if (expansions.size() == 1) {
        return pool->Tuple(std::move(expansions[0]));
      }
      std::vector<TypeId> members;
      members.reserve(expansions.size());
      for (auto& fieldset : expansions) {
        members.push_back(pool->Tuple(std::move(fieldset)));
      }
      return pool->Union(std::move(members));
    }
  }
  return t;
}

}  // namespace

TypeId EliminateIntersection(TypePool* pool, TypeId t) {
  return EraseResidualIntersections(pool, IntersectionReduce(pool, t));
}

TypeId NormalizeDisjoint(TypePool* pool, TypeId t) {
  return DistributeUnions(pool, EliminateIntersection(pool, t));
}

bool EquivalentOverDisjoint(TypePool* pool, TypeId a, TypeId b) {
  return NormalizeDisjoint(pool, a) == NormalizeDisjoint(pool, b);
}

}  // namespace iqlkit
