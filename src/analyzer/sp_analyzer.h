// The DSMS-side Security Punctuation Analyzer (Figure 1, §II.B).
//
// Two jobs:
//  (1) combine security punctuations with similar policies, cutting memory
//      and per-sp processing downstream;
//  (2) let the *server* specify additional policies: server policies are
//      translated to sp form and intersected with arriving data-provider
//      sps — so the server can only refine (never widen) access — unless
//      the data provider marked the sp immutable.
#pragma once

#include <optional>
#include <vector>

#include "security/role_catalog.h"
#include "security/security_punctuation.h"
#include "stream/stream_element.h"

namespace spstream {

struct SpAnalyzerStats {
  int64_t sps_in = 0;
  int64_t sps_out = 0;
  int64_t sps_combined = 0;          ///< merged into a preceding same-batch sp
  int64_t sps_refined_by_server = 0; ///< intersected with a server policy
  int64_t immutable_preserved = 0;   ///< immutable sps that skipped refining
};

/// \brief Per-stream admission pipeline for punctuated streams.
class SpAnalyzer {
 public:
  SpAnalyzer(const RoleCatalog* catalog, std::string stream_name)
      : catalog_(catalog), stream_name_(std::move(stream_name)) {}

  /// \brief Register a server-side policy applying to this stream. It is
  /// translated into sp form and intersected with every arriving mutable sp
  /// whose DDP it overlaps.
  Status AddServerPolicy(SecurityPunctuation sp);

  /// \brief Admit one element. Sps may be rewritten (role resolution,
  /// server-policy intersection) or absorbed into the pending batch; tuples
  /// flush the pending batch first. Returns the elements to forward, in
  /// order.
  std::vector<StreamElement> Process(StreamElement elem);

  /// \brief Flush any buffered batch (end of stream).
  std::vector<StreamElement> Flush();

  const SpAnalyzerStats& stats() const { return stats_; }

 private:
  /// Apply server policies to a resolved sp (intersection semantics).
  void RefineWithServerPolicies(SecurityPunctuation* sp);

  /// Try to merge `sp` into an equal-shape sp already in the batch
  /// (same DDP, sign, immutability): role bitmaps union.
  bool CombineIntoBatch(SecurityPunctuation* sp);

  /// Release the pending batch into `out`.
  void ReleasePending(std::vector<StreamElement>* out);

  const RoleCatalog* catalog_;
  std::string stream_name_;
  std::vector<SecurityPunctuation> server_policies_;
  std::vector<SecurityPunctuation> pending_batch_;
  std::optional<Timestamp> batch_ts_;
  SpAnalyzerStats stats_;
};

}  // namespace spstream
