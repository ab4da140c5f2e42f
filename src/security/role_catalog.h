// Flat RBAC substrate (Sandhu-style RBAC0): the system-wide role catalog and
// the subjects (query specifiers) that activate roles when they sign in.
//
// The paper's evaluation names roles r1 = family member, r2 = manager,
// r3 = retail store, plus the hospital roles of Fig. 4; the catalog maps such
// names to dense integer ids so policies can be carried as bitmaps.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace spstream {

/// \brief Dense id of a role. Ids are assigned in registration order, which
/// is also the total order the SPIndex skipping rule (Lemma 5.1) relies on.
using RoleId = uint32_t;

/// \brief System-wide registry of roles, name <-> dense id, with optional
/// role inheritance (hierarchical RBAC / RBAC1 — an extension beyond the
/// paper's flat-RBAC evaluation; a total-order hierarchy also models
/// MAC-style sensitivity levels).
class RoleCatalog {
 public:
  RoleCatalog() = default;

  /// \brief Register a role; returns the existing id if already present.
  RoleId RegisterRole(const std::string& name);

  /// \brief Id for a name, or NotFound.
  Result<RoleId> Lookup(const std::string& name) const;

  bool Contains(const std::string& name) const {
    return by_name_.count(name) > 0;
  }

  const std::string& Name(RoleId id) const { return names_.at(id); }

  /// \brief Number of registered roles (ids are [0, size)).
  size_t size() const { return names_.size(); }

  /// \brief Convenience: register "r1".."rN" style synthetic roles, returning
  /// their ids. Used by workload generators and benchmarks.
  std::vector<RoleId> RegisterSyntheticRoles(size_t count,
                                             const std::string& prefix = "r");

  // ---- hierarchy (RBAC1 extension) ---------------------------------------

  /// \brief Declare that `senior` inherits every permission of `junior`
  /// (a grant to the junior role also authorizes the senior role).
  /// Rejects edges that would create a cycle.
  Status AddInheritance(RoleId senior, RoleId junior);

  /// \brief True if any inheritance edges were declared.
  bool has_hierarchy() const { return has_hierarchy_; }

  /// \brief All roles that inherit from `junior` (transitively), including
  /// `junior` itself.
  std::vector<RoleId> SeniorsOf(RoleId junior) const;

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, RoleId> by_name_;
  // seniors_[junior] = direct seniors (roles inheriting junior's grants).
  std::unordered_map<RoleId, std::vector<RoleId>> direct_seniors_;
  bool has_hierarchy_ = false;
};

class RoleSet;

/// \brief Close a granted role set upward through the hierarchy: the result
/// additionally authorizes every (transitive) senior of each granted role.
/// Identity when the catalog has no hierarchy. Applied at sp admission by
/// the SP Analyzer, so operators keep working on plain bitmaps.
RoleSet ExpandWithSeniors(const RoleSet& granted, const RoleCatalog& catalog);

/// \brief A query specifier: a subject that registers continuous queries.
///
/// Per §II.A the subject activates roles at sign-in and the assignment is
/// frozen while any of its queries run; `Freeze()` models that rule.
class Subject {
 public:
  Subject(std::string name, std::vector<RoleId> roles)
      : name_(std::move(name)), roles_(std::move(roles)) {}

  const std::vector<RoleId>& roles() const { return roles_; }

  /// \brief Activate an additional role; fails once frozen.
  Status ActivateRole(RoleId role);

  /// \brief Replace the whole activated-role set, ignoring the freeze —
  /// the §IX future-work extension (runtime changes in subjects' role
  /// assignments). Engines using this must re-plan the subject's queries;
  /// see SpStreamEngine::UpdateSubjectRoles.
  void ReplaceRolesUnchecked(std::vector<RoleId> roles) {
    roles_ = std::move(roles);
  }

  /// \brief Called when the subject registers a query; role set becomes
  /// immutable until all its queries are deregistered.
  void Freeze() { ++active_queries_; }
  void Unfreeze() {
    if (active_queries_ > 0) --active_queries_;
  }
  bool frozen() const { return active_queries_ > 0; }

 private:
  std::string name_;
  std::vector<RoleId> roles_;
  int active_queries_ = 0;
};

}  // namespace spstream
