#include "exec/sa_setops.h"

namespace spstream {

SaSetOp::SaSetOp(ExecContext* ctx, SaSetOpOptions options, std::string label)
    : Operator(ctx, std::move(label), /*num_inputs=*/2),
      options_(std::move(options)),
      trackers_{PolicyTracker(ctx->roles, options_.left_stream_name),
                PolicyTracker(ctx->roles, options_.right_stream_name)},
      window_(options_.window_size) {}

bool SaSetOp::ValuesEqual(const Tuple& a, const Tuple& b) {
  return a.values == b.values;
}

void SaSetOp::Process(StreamElement&& elem, int port) {
  if (elem.is_sp()) {
    ++metrics_.sps_in;
    ScopedTimer t(&metrics_.sp_maintenance_nanos);
    if (trackers_[port].OnSp(elem.sp())) ++metrics_.policy_installs;
    return;
  }
  if (!elem.is_tuple()) {
    Emit(std::move(elem));
    return;
  }

  ++metrics_.tuples_in;
  Tuple t = std::move(elem.tuple());

  {
    ScopedTimer tm(&metrics_.tuple_maintenance_nanos);
    window_.Invalidate(t.ts);
  }

  if (port == 1) {
    // Right side: only window maintenance.
    PolicyPtr policy = trackers_[1].PolicyFor(t);
    ScopedTimer tm(&metrics_.tuple_maintenance_nanos);
    window_.InsertTuple(std::move(t), policy,
                        trackers_[1].current_batch());
    return;
  }

  // Left side: probe the right window.
  PolicyPtr left_policy = trackers_[0].PolicyFor(t);
  if (left_policy->DeniesEveryone()) {
    ++metrics_.tuples_dropped_security;
    return;
  }

  RoleSet out_roles;
  {
    ScopedTimer tj(&metrics_.join_nanos);
    if (options_.kind == SaSetOpOptions::Kind::kIntersect) {
      // Roles receiving the tuple: P_L ∩ (∪ compatible matching P_R).
      RoleSet matched;
      for (Segment& seg : window_.segments()) {
        if (!seg.policy->allowed().Intersects(left_policy->allowed())) {
          continue;
        }
        for (const Tuple& u : seg.tuples) {
          if (ValuesEqual(t, u)) {
            matched.UnionWith(seg.policy->allowed());
            break;
          }
        }
      }
      out_roles = RoleSet::Intersect(left_policy->allowed(), matched);
    } else {
      // EXCEPT: P_L minus every policy that can see a matching right tuple.
      out_roles = left_policy->allowed();
      for (Segment& seg : window_.segments()) {
        for (const Tuple& u : seg.tuples) {
          if (ValuesEqual(t, u)) {
            out_roles.SubtractAll(seg.policy->allowed());
            break;
          }
        }
        if (out_roles.Empty()) break;
      }
    }
  }

  if (out_roles.Empty()) {
    ++metrics_.tuples_dropped_security;
    return;
  }
  if (output_emitter_.NeedsSp(out_roles, t.ts)) {
    EmitSp(SynthesizeSp(out_roles, output_emitter_.MonotoneTs(t.ts),
                        options_.output_stream_name, *ctx_->roles));
  }
  t.sid = 0;  // derived streams carry sid 0
  EmitTuple(std::move(t));
}

}  // namespace spstream
