// The security punctuation (Definition 3.1):
//
//   sp = < DDP | SRP | Sign | Immutable | ts >
//
// DDP = (e_s, e_t, e_a): which objects the policy applies to, as patterns
// against stream names, tuple identifiers and attribute names.
// SRP = access-control model type + role pattern: who is (dis)authorized.
// Sign: positive or negative authorization. Immutable: whether server-side
// policies may refine this sp. ts: when the policy goes into effect — all
// sps of one batch share a ts and are interpreted as a single policy.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "security/pattern.h"
#include "security/policy.h"
#include "security/role_set.h"

namespace spstream {

/// \brief Access-control model tag carried in the SRP. The framework is
/// model-agnostic (§II.A); RBAC is the model exercised throughout.
enum class AccessControlModel : uint8_t { kRbac = 0, kDac, kMac };

const char* AccessControlModelToString(AccessControlModel model);
Result<AccessControlModel> AccessControlModelFromString(std::string_view s);

/// \brief Positive authorizations grant, negative ones deny.
enum class Sign : uint8_t { kPositive = 0, kNegative };

/// \brief Granularity of the objects a punctuation covers.
enum class PolicyGranularity : uint8_t { kStream, kTuple, kAttribute };

/// \brief A security punctuation — access-control metadata embedded in a
/// data stream, always preceding the tuples it covers.
class SecurityPunctuation {
 public:
  SecurityPunctuation() = default;

  SecurityPunctuation(Pattern stream_pattern, Pattern tuple_pattern,
                      Pattern attr_pattern, Pattern role_pattern,
                      Sign sign, bool immutable, Timestamp ts,
                      AccessControlModel model = AccessControlModel::kRbac)
      : stream_pattern_(std::move(stream_pattern)),
        tuple_pattern_(std::move(tuple_pattern)),
        attr_pattern_(std::move(attr_pattern)),
        role_pattern_(std::move(role_pattern)),
        model_(model),
        sign_(sign),
        immutable_(immutable),
        ts_(ts) {}

  /// \brief Builder-style factory for the common positive tuple-level sp:
  /// "tuples matching e_t in streams matching e_s may be read by roles
  /// matching e_r from ts on".
  static SecurityPunctuation TupleLevel(Pattern stream_pattern,
                                        Pattern tuple_pattern,
                                        Pattern role_pattern, Timestamp ts,
                                        Sign sign = Sign::kPositive,
                                        bool immutable = false) {
    return SecurityPunctuation(std::move(stream_pattern),
                               std::move(tuple_pattern), Pattern::Any(),
                               std::move(role_pattern), sign, immutable, ts);
  }

  /// \brief Stream-level positive sp covering every tuple and attribute.
  static SecurityPunctuation StreamLevel(Pattern stream_pattern,
                                         Pattern role_pattern, Timestamp ts,
                                         Sign sign = Sign::kPositive,
                                         bool immutable = false) {
    return SecurityPunctuation(std::move(stream_pattern), Pattern::Any(),
                               Pattern::Any(), std::move(role_pattern), sign,
                               immutable, ts);
  }

  // --- DDP ------------------------------------------------------------
  const Pattern& stream_pattern() const { return stream_pattern_; }
  const Pattern& tuple_pattern() const { return tuple_pattern_; }
  const Pattern& attr_pattern() const { return attr_pattern_; }

  bool AppliesToStream(std::string_view stream_name) const {
    return stream_pattern_.MatchesString(stream_name);
  }
  bool AppliesToTupleId(TupleId tid) const {
    return tuple_pattern_.MatchesInt(tid);
  }
  bool AppliesToAttribute(std::string_view attr_name) const {
    return attr_pattern_.MatchesString(attr_name);
  }

  /// \brief True iff the policy covers every attribute of matched tuples
  /// (stream- or tuple-granularity sp).
  bool CoversWholeTuple() const { return attr_pattern_.IsAny(); }

  PolicyGranularity granularity() const {
    if (!attr_pattern_.IsAny()) return PolicyGranularity::kAttribute;
    if (!tuple_pattern_.IsAny()) return PolicyGranularity::kTuple;
    return PolicyGranularity::kStream;
  }

  // --- SRP ------------------------------------------------------------
  AccessControlModel model() const { return model_; }
  const Pattern& role_pattern() const { return role_pattern_; }

  /// \brief Resolve the SRP role pattern to a bitmap against `catalog` and
  /// cache it; subsequent roles() calls are free. Called once at admission
  /// by the SP Analyzer.
  const RoleSet& ResolveRoles(const RoleCatalog& catalog);

  /// \brief Cached resolved roles; empty set if ResolveRoles not called yet.
  const RoleSet& roles() const {
    static const RoleSet kEmpty;
    return resolved_roles_ ? *resolved_roles_ : kEmpty;
  }
  bool roles_resolved() const { return resolved_roles_.has_value(); }

  /// \brief Overwrite the resolved role bitmap directly (used by the wire
  /// codec, which ships bitmaps rather than pattern text).
  void SetResolvedRoles(RoleSet roles) {
    resolved_roles_ = std::move(roles);
  }

  // --- Flags ------------------------------------------------------------
  Sign sign() const { return sign_; }
  bool immutable() const { return immutable_; }
  Timestamp ts() const { return ts_; }

  /// \brief Incremental policy change (the paper's §IX future-work
  /// extension): instead of *overriding* the policy in force, an
  /// incremental batch edits it — positive sps add roles, negative sps
  /// remove them. Absolute (non-incremental) semantics is the default.
  bool incremental() const { return incremental_; }
  void set_incremental(bool incremental) { incremental_ = incremental; }

  /// \brief Two sps belong to one sp-batch iff their timestamps are equal
  /// (§III.A: "All sps of the same policy have the same timestamp").
  bool SameBatchAs(const SecurityPunctuation& other) const {
    return ts_ == other.ts_;
  }

  /// \brief Render as "SP[ddp=(s, t, a), srp=(RBAC, r), sign=+,
  /// immutable=false, ts=N]".
  std::string ToString() const;

  /// \brief Parse the ToString format; round-trips.
  static Result<SecurityPunctuation> Parse(std::string_view text);

  bool operator==(const SecurityPunctuation& other) const;

  size_t MemoryBytes() const;

 private:
  Pattern stream_pattern_ = Pattern::Any();
  Pattern tuple_pattern_ = Pattern::Any();
  Pattern attr_pattern_ = Pattern::Any();
  Pattern role_pattern_ = Pattern::Any();
  AccessControlModel model_ = AccessControlModel::kRbac;
  Sign sign_ = Sign::kPositive;
  bool immutable_ = false;
  bool incremental_ = false;
  Timestamp ts_ = 0;
  std::optional<RoleSet> resolved_roles_;
};

/// \brief Assemble the single Policy an sp-batch denotes (§III.E union()
/// semantics for same-timestamp sps; negative sps subtract afterwards).
/// Every sp must have resolved roles. Batches are formed by consecutive sps
/// with equal timestamps.
Policy BuildBatchPolicy(const std::vector<SecurityPunctuation>& batch);

}  // namespace spstream
