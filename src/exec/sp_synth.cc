#include "exec/sp_synth.h"

namespace spstream {

SecurityPunctuation SynthesizeSp(const RoleSet& roles, Timestamp ts,
                                 const std::string& stream_name,
                                 const RoleCatalog& catalog) {
  std::vector<std::string> names;
  roles.ForEach([&](RoleId id) {
    names.push_back(id < catalog.size() ? catalog.Name(id)
                                        : "#" + std::to_string(id));
  });
  Pattern role_pattern = names.empty() ? Pattern::Literal("__nobody__")
                                       : Pattern::LiteralList(names);
  SecurityPunctuation sp(
      Pattern::Literal(stream_name), Pattern::Any(), Pattern::Any(),
      std::move(role_pattern), Sign::kPositive, /*immutable=*/false, ts);
  sp.SetResolvedRoles(roles);
  return sp;
}

bool OutputPolicyEmitter::NeedsSp(const RoleSet& policy_roles, Timestamp ts) {
  if (has_current_ && current_ == policy_roles) {
    return false;
  }
  has_current_ = true;
  current_ = policy_roles;
  // The watermark only moves forward: MonotoneTs() keeps the emitted sp
  // stream ts-ordered even when the proposed event time runs behind.
  if (ts > last_ts_) last_ts_ = ts;
  return true;
}

}  // namespace spstream
