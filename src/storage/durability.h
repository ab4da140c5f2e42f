// DurabilityManager: the one object the engine and the stream server talk
// to for persistence (docs/DURABILITY.md).
//
// It owns the data directory through a DiskManager and implements the epoch
// commit protocol:
//
//   1. write ckpt/<epoch>.delta (incremental operator-state deltas), fsync;
//   2. append the epoch's buffered forensic records (sp admits, audit tail)
//      plus an epoch-commit record to the WAL, one group-commit fsync;
//   3. atomically rename a new MANIFEST into place.
//
// Step 3 is the single commit point: a crash anywhere before it leaves the
// previous manifest authoritative, and recovery ignores every file the
// manifest does not reference. Catalog mutations (roles, streams, subjects,
// queries) and net-session updates are logged write-ahead and group-
// committed immediately, because they must survive even when no epoch ever
// commits.
//
// Every `rebase_every` committed epochs the manager compacts: a fresh WAL
// segment is seeded with a replica of the live catalog + session table
// (opened by a kRebaseReplica marker so an uncommitted compaction is
// ignored on replay), the delta chain collapses to one full snapshot, and
// old segments/deltas are deleted. Buffered forensic records are dropped at
// compaction — the audit ring is a bounded trail, not an archive.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/wal.h"

namespace spstream {
class AuditLog;
class MetricsRegistry;
}  // namespace spstream

namespace spstream::storage {

/// \brief One net session as persisted in the WAL.
struct DurableSession {
  uint64_t id = 0;
  uint64_t token = 0;
  std::string client_name;
  std::vector<uint32_t> subscriptions;  ///< QueryIds
  int64_t detached_at_ms = -1;
};

void EncodeSession(const DurableSession& s, std::string* out);
Result<DurableSession> DecodeSession(std::string_view data);

/// \brief Address of one operator-state blob: query, shard, and the
/// operator's index in its pipeline's DAG order.
struct StateBlobKey {
  uint32_t query = 0;
  uint32_t shard = 0;
  uint32_t op_index = 0;
};

/// \brief One operator-state delta inside a checkpoint. `label` is the
/// operator label, validated on restore so a plan mismatch fails loudly
/// instead of feeding a blob to the wrong operator.
struct StateEntry {
  StateBlobKey key;
  std::string label;
  std::string blob;
};

/// \brief Everything recovery reconstructs from disk.
struct RecoveredState {
  bool found = false;       ///< any durable state (manifest or WAL) present
  uint64_t epoch = 0;       ///< last committed epoch (0 = none)
  int64_t next_default_ts = 1;
  int num_shards = 1;
  uint64_t batch_size = 64;
  std::vector<WalRecord> catalog;  ///< catalog mutations in WAL order
  /// How many of `catalog` were logged before the last committed epoch's
  /// commit record; the rest came after the delta chain was cut.
  size_t catalog_committed = 0;
  std::vector<DurableSession> sessions;
  uint64_t next_session_id = 1;
  std::vector<StateEntry> blobs;   ///< delta-chain entries, oldest first
  bool tail_torn = false;          ///< the crash left a torn WAL tail
};

/// \brief Engine-level metadata carried by the manifest.
struct EpochMeta {
  uint64_t epoch = 0;
  int64_t next_default_ts = 1;
  int num_shards = 1;
  uint64_t batch_size = 64;
};

class DurabilityManager {
 public:
  struct Options {
    std::string data_dir;
    /// Full-snapshot + WAL-compaction cadence (committed epochs).
    int rebase_every = 16;
    /// Size-based WAL segment rotation threshold.
    uint64_t segment_bytes = 1u << 20;
  };

  /// \brief Open the data dir and run recovery. Fails cleanly (no partial
  /// state, nothing deleted) on the storage.recovery_replay fault or any
  /// corruption the CRCs catch. `metrics` and `audit` may be null.
  static Result<std::unique_ptr<DurabilityManager>> Open(
      Options options, MetricsRegistry* metrics, AuditLog* audit);

  /// \brief State recovered during Open; the engine consumes it once.
  RecoveredState& recovered() { return recovered_; }

  /// \brief Write-ahead a catalog mutation; durable (group-committed) on OK
  /// return. The caller must apply the mutation only on success.
  Status LogCatalogRecord(WalRecordType type, std::string payload);

  /// \brief Buffer a forensic record (sp admit) for the next epoch commit.
  void BufferForensic(WalRecordType type, std::string payload);

  /// \brief Thread-safe session-table logging; durable on return. Safe to
  /// call from net reader threads (leaf mutex, never takes engine locks).
  Status LogSessionUpsert(const DurableSession& s);
  Status LogSessionErase(uint64_t id);

  /// \brief Append audit events with seq > the last flushed seq to the WAL
  /// and group-commit. Called on clean shutdown and at incident sites.
  Status FlushAuditTail(const AuditLog& audit);

  /// \brief True when the next commit should be a full rebase.
  bool WantsFullCheckpoint() const;

  /// \brief Run the epoch commit protocol. On failure nothing moved: the
  /// manifest still names the previous epoch and the caller must discard
  /// the epoch's output (at-most-once delivery).
  Status CommitEpoch(const EpochMeta& meta, bool full,
                     const std::vector<StateEntry>& entries);

  uint64_t committed_epoch() const;

  /// \brief Re-read the committed delta chain and return one query's state
  /// entries, oldest first — the same blobs a process restart would replay,
  /// filtered to `query`. Used by in-process quarantine recovery
  /// (SpStreamEngine::RecoverQuery) to rewind a single query to its last
  /// durable checkpoint without restarting the engine. Thread-safe.
  Result<std::vector<StateEntry>> ReadQueryCheckpoint(uint32_t query);

 private:
  struct Manifest {
    EpochMeta meta;
    uint64_t wal_floor_seq = 1;
    std::vector<uint64_t> delta_epochs;  ///< ascending chain
  };

  DurabilityManager(Options options, MetricsRegistry* metrics,
                    AuditLog* audit)
      : options_(std::move(options)), metrics_(metrics), audit_(audit) {}

  static void EncodeManifest(const Manifest& m, std::string* out);
  static Result<Manifest> DecodeManifest(std::string_view data);
  static std::string DeltaName(uint64_t epoch);

  Status Recover();
  Status CleanupStaleFiles(const WalReplay& replay);
  void Count(const char* name, int64_t delta = 1);
  void AuditStorageEvent(const std::string& detail);

  const Options options_;
  MetricsRegistry* const metrics_;
  AuditLog* const audit_;

  std::unique_ptr<DiskManager> disk_;
  RecoveredState recovered_;

  mutable std::mutex mu_;
  std::unique_ptr<WalWriter> wal_;
  // Next rotation target. Always past every segment ever created, so a
  // failed rebase can never reuse (and append a duplicate marker into) a
  // half-written segment file.
  uint64_t next_seq_ = 2;
  Manifest manifest_;
  bool have_manifest_ = false;
  std::vector<WalRecord> pending_forensics_;
  // Live replicas for compaction: catalog records in original order and the
  // session table, deduped by id.
  std::vector<WalRecord> catalog_replica_;
  std::map<uint64_t, DurableSession> session_replica_;
  int64_t last_flushed_audit_seq_ = -1;
};

}  // namespace spstream::storage
