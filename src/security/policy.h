// Access-control policies and the four server-side operations of §III.E:
// match(), union(), intersect(), override().
//
// A Policy is the *resolved* form of one sp-batch: the bitmap of roles it
// authorizes plus the timestamp at which it went into effect. Sign handling
// (positive/negative authorizations, denial-takes-precedence within a batch)
// happens in PolicyBuilder when a batch is assembled; after that, all engine
// operations are word-parallel bitmap algebra.
#pragma once

#include <memory>
#include <string>

#include "common/types.h"
#include "security/role_set.h"

namespace spstream {

/// \brief A resolved access-control policy: who may read the objects it
/// covers, effective from `ts` until overridden.
class Policy {
 public:
  Policy() = default;
  Policy(RoleSet allowed, Timestamp ts)
      : allowed_(std::move(allowed)), ts_(ts) {}

  /// \brief The policy that authorizes nobody — denial-by-default.
  static Policy DenyAll(Timestamp ts = kMinTimestamp) {
    return Policy(RoleSet(), ts);
  }

  const RoleSet& allowed() const { return allowed_; }
  Timestamp ts() const { return ts_; }

  /// \brief True iff a subject holding `query_roles` may access objects under
  /// this policy: allowed ∩ query_roles ≠ ∅ (Table I's Pt ∩ p test).
  bool Authorizes(const RoleSet& query_roles) const {
    return allowed_.Intersects(query_roles);
  }

  /// \brief True iff no role is authorized.
  bool DeniesEveryone() const { return allowed_.Empty(); }

  /// \brief union(): access *increases* — used when multiple sps from the
  /// same data provider share a timestamp (one sp-batch = one policy).
  static Policy Union(const Policy& a, const Policy& b) {
    return Policy(RoleSet::Union(a.allowed_, b.allowed_),
                  a.ts_ > b.ts_ ? a.ts_ : b.ts_);
  }

  /// \brief intersect(): access *decreases* — used to combine data-provider
  /// policies with server-specified ones so the server can only refine,
  /// never widen, access (§II.B).
  static Policy Intersect(const Policy& a, const Policy& b) {
    return Policy(RoleSet::Intersect(a.allowed_, b.allowed_),
                  a.ts_ > b.ts_ ? a.ts_ : b.ts_);
  }

  /// \brief override(): the more recent policy wins; on a timestamp tie the
  /// incumbent is kept (equal-ts sps belong to one batch and should have been
  /// union-ed instead).
  static Policy Override(const Policy& current, const Policy& incoming) {
    return incoming.ts_ > current.ts_ ? incoming : current;
  }

  bool operator==(const Policy& other) const {
    return ts_ == other.ts_ && allowed_ == other.allowed_;
  }
  bool operator!=(const Policy& other) const { return !(*this == other); }

  std::string ToString() const;
  std::string ToString(const RoleCatalog& catalog) const;

  size_t MemoryBytes() const {
    return sizeof(Policy) - sizeof(RoleSet) + allowed_.MemoryBytes();
  }

 private:
  RoleSet allowed_;
  Timestamp ts_ = kMinTimestamp;
};

/// \brief Shared immutable policy handle. Segments, window entries and output
/// elements share one Policy object per sp-batch — the memory-sharing
/// advantage the punctuation approach has over tuple-embedded policies.
using PolicyPtr = std::shared_ptr<const Policy>;

inline PolicyPtr MakePolicy(RoleSet allowed, Timestamp ts) {
  return std::make_shared<const Policy>(std::move(allowed), ts);
}

/// \brief The shared deny-all policy (denial-by-default sentinel).
PolicyPtr DenyAllPolicy();

/// \brief Assembles one Policy from the signed role sets of an sp-batch.
///
/// Within a batch, positive authorizations union together and negative
/// authorizations are then subtracted (denial takes precedence, following
/// Bertino's extended authorization model cited by the paper).
class PolicyBuilder {
 public:
  explicit PolicyBuilder(Timestamp ts) : ts_(ts) {}

  void AddPositive(const RoleSet& roles) { positive_.UnionWith(roles); }
  void AddNegative(const RoleSet& roles) { negative_.UnionWith(roles); }

  Policy Build() const {
    return Policy(RoleSet::Difference(positive_, negative_), ts_);
  }

  Timestamp ts() const { return ts_; }

 private:
  Timestamp ts_;
  RoleSet positive_;
  RoleSet negative_;
};

}  // namespace spstream
