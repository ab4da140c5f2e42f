// Shard-key analysis for intra-query parallelism.
//
// A query plan can run as N parallel clones only when tuples can be
// hash-partitioned so that every stateful operator sees all tuples relevant
// to each piece of its state in one shard:
//   * stateless operators (SS, select, project, union) accept any partition;
//   * an equijoin requires both inputs partitioned on their join key
//     (equal keys co-locate, so each clone joins exactly its key range);
//   * group-by / distinct require the input partitioned on the grouping
//     (resp. distinct) key.
// Security punctuations are NOT partitioned — the engine broadcasts every
// sp to every shard, so each clone's PolicyTracker converges to the same
// policy state (the punctuation-semantics invariant the differential-oracle
// suite proves).
//
// AnalyzeShardRouting walks the logical plan top-down carrying the
// partition requirement, composes it through projections and joins, and
// produces one routing key per source leaf (plan DFS order — the same order
// the plan builder registers sources). Plans whose requirements conflict
// (e.g. a join key that is not the grouping key above it) report
// shardable = false and fall back to the single-threaded path.
#pragma once

#include <vector>

#include "query/logical_plan.h"
#include "stream/tuple.h"

namespace spstream {

/// \brief Routing decision for one source leaf.
struct LeafShardKey {
  /// Column whose value partitions this leaf's tuples; kByTupleId (-1)
  /// hashes the tuple id instead (any partition is correct for the plan).
  int key_col = -1;

  static constexpr int kByTupleId = -1;
};

/// \brief Result of analyzing a plan for shardability.
struct ShardRouting {
  bool shardable = false;
  /// One entry per source leaf, in plan DFS order (matches the
  /// PhysicalPlan::sources order).
  std::vector<LeafShardKey> leaf_keys;
  /// Human-readable reason when !shardable (EXPLAIN / logging).
  std::string reason;
};

/// \brief Analyze `plan` and derive per-leaf routing keys.
ShardRouting AnalyzeShardRouting(const LogicalNodePtr& plan);

/// \brief Shard index of a tuple under a leaf's routing key: hash of the
/// key column's value (or of the tuple id) modulo `num_shards`. The hash is
/// deterministic across runs and shard counts, so results are reproducible.
size_t ShardOf(const Tuple& t, const LeafShardKey& key, size_t num_shards);

}  // namespace spstream
