// Segmented write-ahead log with CRC-framed records and group commit.
//
// Record frame: [u32 len][u8 type][payload bytes][u32 crc32], crc computed
// over type+payload, both fixed-width fields little-endian. Replay reads
// segments in sequence order and stops at the FIRST frame whose length,
// type or crc fails to verify — a torn tail (the crash left a partial
// write) truncates the log there; any valid-looking bytes after a torn
// region are unreachable by design, because nothing after an unacknowledged
// write can have been acknowledged either.
//
// Appends stage into memory; Commit() writes every staged frame in one
// buffered append and fdatasyncs once (group commit). The fault site
// storage.wal_append fires inside Commit and tears the write mid-frame —
// exactly the failure shape replay must tolerate.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/disk_manager.h"

namespace spstream::storage {

/// \brief Every durable record type. Values are persisted — append only.
enum class WalRecordType : uint8_t {
  kRoleRegister = 1,    ///< payload: role name
  kStreamRegister = 2,  ///< payload: schema (state_codec)
  kSubjectRegister = 3, ///< payload: subject name
  kSubjectRoles = 4,    ///< payload: subject name + role id list
  kQueryRegister = 5,   ///< payload: subject name + sql text
  kQueryDeregister = 6, ///< payload: varint query id
  kSpAdmitted = 7,      ///< forensic: stream name + encoded sp
  kSessionUpsert = 8,   ///< payload: durable session record
  kSessionErase = 9,    ///< payload: varint session id
  kAuditEvent = 10,     ///< forensic: rendered audit event JSON
  kEpochCommit = 11,    ///< varint epoch (the manifest is the truth)
  kRebaseReplica = 12,  ///< marker: first record of a compaction segment
};

struct WalRecord {
  WalRecordType type;
  std::string payload;
};

/// \brief CRC-32 (IEEE, reflected 0xEDB88320) over `data`.
uint32_t Crc32(std::string_view data);

/// \brief Append one framed record to `out` (frame format above).
void AppendWalFrame(WalRecordType type, std::string_view payload,
                    std::string* out);

/// \brief Segment file name for sequence number `seq` ("000001.wal").
std::string WalSegmentName(uint64_t seq);

/// \brief Appender over the active segment. Not thread-safe; the
/// DurabilityManager serializes access behind its mutex.
class WalWriter {
 public:
  /// \brief Open (appending to) segment `seq`.
  static Result<std::unique_ptr<WalWriter>> Open(DiskManager* disk,
                                                 uint64_t seq);

  /// \brief Stage one record for the next Commit. Never touches disk.
  void Append(WalRecordType type, std::string_view payload);

  size_t staged_records() const { return staged_records_; }

  /// \brief Group commit: write all staged frames, fdatasync once. On the
  /// storage.wal_append fault, half the staged bytes are written (torn
  /// frame, no sync) and the staged records are lost with an error — the
  /// caller must treat the whole batch as not durable.
  Status Commit();

  /// \brief Rotate to segment `seq` (caller picks the number; the previous
  /// segment must be committed first).
  Status Rotate(uint64_t seq);

  uint64_t seq() const { return seq_; }
  uint64_t segment_bytes() const { return file_ ? file_->size() : 0; }

 private:
  WalWriter(DiskManager* disk, uint64_t seq,
            std::unique_ptr<AppendFile> file)
      : disk_(disk),
        seq_(seq),
        file_(std::move(file)),
        known_good_size_(file_->size()) {}

  DiskManager* disk_;
  uint64_t seq_;
  std::unique_ptr<AppendFile> file_;
  std::string staged_;
  size_t staged_records_ = 0;
  // Size of the segment's valid prefix. A failed commit leaves torn bytes
  // past it (preserved so a crash right after reproduces the real on-disk
  // shape); the next Commit heals by truncating back before appending.
  uint64_t known_good_size_;
  bool needs_heal_ = false;
};

/// \brief Decoded contents of the log: records in append order plus replay
/// diagnostics.
struct WalReplay {
  std::vector<WalRecord> records;
  uint64_t max_seq = 0;          ///< highest segment file present (0 = none)
  bool tail_torn = false;        ///< replay stopped at a bad frame
  uint64_t torn_seq = 0;         ///< segment holding the torn frame
  uint64_t torn_valid_bytes = 0; ///< valid prefix length of that segment
  uint64_t stale_replica_seq = 0;///< uncommitted compaction segment, if any
  size_t segments_read = 0;
};

/// \brief Replay every segment with sequence >= `floor_seq` in order.
/// A kRebaseReplica marker opening a segment NEWER than `floor_seq` marks
/// an uncommitted compaction (the manifest rename never happened): that
/// segment and everything after it are ignored.
Result<WalReplay> ReplayWal(const DiskManager& disk, uint64_t floor_seq);

}  // namespace spstream::storage
