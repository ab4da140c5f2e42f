// Security-aware windowed set operations — the operators the paper's
// footnote 5 leaves out ("we do not describe security-aware set operations
// ... to keep the presentation concise"), completed here with the same
// role-faithful semantics as the rest of the algebra (∪ is UnionOp).
//
//   intersect: a left tuple is emitted when a value-equal tuple resides in
//   the right window and their policies are compatible; the result carries
//   the policy *intersection* (join semantics of Table I).
//
//   except: a left tuple is emitted for exactly the roles that may read it
//   but may NOT see any value-equal right tuple: P_out = P_L − ∪ P_R over
//   value-equal right residents. (From a role's viewpoint, a right tuple it
//   cannot see does not exclude the left tuple — the same per-role
//   reasoning as duplicate elimination's three cases.)
#pragma once

#include "exec/operator.h"
#include "exec/policy_tracker.h"
#include "exec/sp_synth.h"
#include "exec/window.h"

namespace spstream {

struct SaSetOpOptions {
  enum class Kind { kIntersect, kExcept };
  Kind kind = Kind::kIntersect;
  Timestamp window_size = 1000;
  std::string left_stream_name;
  std::string right_stream_name;
  std::string output_stream_name = "setop_out";
};

/// \brief Windowed security-aware INTERSECT / EXCEPT over full tuple
/// values. Left (port 0) is the probe side whose tuples are emitted; right
/// (port 1) only maintains window state.
class SaSetOp : public Operator {
 public:
  SaSetOp(ExecContext* ctx, SaSetOpOptions options,
          std::string label = "setop");

  const SegmentedWindow& right_window() const { return window_; }

 protected:
  void Process(StreamElement&& elem, int port) override;

 private:
  static bool ValuesEqual(const Tuple& a, const Tuple& b);

  SaSetOpOptions options_;
  PolicyTracker trackers_[2];
  SegmentedWindow window_;  // right-side residents
  OutputPolicyEmitter output_emitter_;
};

}  // namespace spstream
