#include "storage/durability.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/audit_log.h"
#include "common/fault.h"
#include "common/metrics_registry.h"
#include "security/sp_codec.h"

namespace spstream::storage {

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestMagic[] = "SPM1";
constexpr char kDeltaMagic[] = "SPD1";
constexpr uint64_t kMaxChainLen = 1u << 16;
constexpr uint64_t kMaxDeltaEntries = 1u << 24;

void PutFixed32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint32_t GetFixed32(std::string_view data, size_t offset) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(
             static_cast<uint8_t>(data[offset + static_cast<size_t>(i)]))
         << (8 * i);
  }
  return v;
}

/// Strip and verify the trailing crc32; returns the body on success.
Result<std::string_view> CheckCrcFrame(std::string_view data,
                                       const char* what) {
  if (data.size() < 4) {
    return Status::OutOfRange(std::string(what) + ": truncated");
  }
  const std::string_view body = data.substr(0, data.size() - 4);
  if (GetFixed32(data, data.size() - 4) != Crc32(body)) {
    return Status::Internal(std::string(what) + ": crc mismatch");
  }
  return body;
}

bool IsCatalogRecord(WalRecordType type) {
  switch (type) {
    case WalRecordType::kRoleRegister:
    case WalRecordType::kStreamRegister:
    case WalRecordType::kSubjectRegister:
    case WalRecordType::kSubjectRoles:
    case WalRecordType::kQueryRegister:
    case WalRecordType::kQueryDeregister:
      return true;
    default:
      return false;
  }
}

}  // namespace

// ---- session codec -------------------------------------------------------

void EncodeSession(const DurableSession& s, std::string* out) {
  PutVarint(s.id, out);
  PutVarint(s.token, out);
  PutLengthPrefixed(s.client_name, out);
  PutVarint(ZigZagEncode(s.detached_at_ms), out);
  PutVarint(s.subscriptions.size(), out);
  for (uint32_t q : s.subscriptions) PutVarint(q, out);
}

Result<DurableSession> DecodeSession(std::string_view data) {
  DurableSession s;
  size_t off = 0;
  SP_ASSIGN_OR_RETURN(s.id, GetVarint(data, &off));
  SP_ASSIGN_OR_RETURN(s.token, GetVarint(data, &off));
  SP_ASSIGN_OR_RETURN(s.client_name, GetLengthPrefixed(data, &off));
  SP_ASSIGN_OR_RETURN(uint64_t detached, GetVarint(data, &off));
  s.detached_at_ms = ZigZagDecode(detached);
  SP_ASSIGN_OR_RETURN(uint64_t n, GetVarint(data, &off));
  if (n > 1u << 20) return Status::InvalidArgument("session: sub count");
  s.subscriptions.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    SP_ASSIGN_OR_RETURN(uint64_t q, GetVarint(data, &off));
    s.subscriptions.push_back(static_cast<uint32_t>(q));
  }
  return s;
}

// ---- manifest / delta codecs ---------------------------------------------

void DurabilityManager::EncodeManifest(const Manifest& m, std::string* out) {
  out->append(kManifestMagic);
  PutVarint(m.meta.epoch, out);
  PutVarint(ZigZagEncode(m.meta.next_default_ts), out);
  PutVarint(static_cast<uint64_t>(m.meta.num_shards), out);
  PutVarint(m.meta.batch_size, out);
  PutVarint(m.wal_floor_seq, out);
  PutVarint(m.delta_epochs.size(), out);
  for (uint64_t e : m.delta_epochs) PutVarint(e, out);
  PutFixed32(Crc32(*out), out);
}

Result<DurabilityManager::Manifest> DurabilityManager::DecodeManifest(
    std::string_view data) {
  SP_ASSIGN_OR_RETURN(std::string_view body, CheckCrcFrame(data, "manifest"));
  if (body.substr(0, 4) != kManifestMagic) {
    return Status::Internal("manifest: bad magic");
  }
  Manifest m;
  size_t off = 4;
  SP_ASSIGN_OR_RETURN(m.meta.epoch, GetVarint(body, &off));
  SP_ASSIGN_OR_RETURN(uint64_t ts, GetVarint(body, &off));
  m.meta.next_default_ts = ZigZagDecode(ts);
  SP_ASSIGN_OR_RETURN(uint64_t shards, GetVarint(body, &off));
  m.meta.num_shards = static_cast<int>(shards);
  SP_ASSIGN_OR_RETURN(m.meta.batch_size, GetVarint(body, &off));
  SP_ASSIGN_OR_RETURN(m.wal_floor_seq, GetVarint(body, &off));
  SP_ASSIGN_OR_RETURN(uint64_t n, GetVarint(body, &off));
  if (n > kMaxChainLen) return Status::Internal("manifest: chain length");
  m.delta_epochs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    SP_ASSIGN_OR_RETURN(uint64_t e, GetVarint(body, &off));
    m.delta_epochs.push_back(e);
  }
  return m;
}

std::string DurabilityManager::DeltaName(uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt/%06llu.delta",
                static_cast<unsigned long long>(epoch));
  return buf;
}

// ---- lifecycle -----------------------------------------------------------

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    Options options, MetricsRegistry* metrics, AuditLog* audit) {
  auto dm = std::unique_ptr<DurabilityManager>(
      new DurabilityManager(std::move(options), metrics, audit));
  SP_RETURN_NOT_OK(dm->Recover());
  return dm;
}

Status DurabilityManager::Recover() {
  if (SP_FAULT_FIRED(fault::kStorageRecoveryReplay)) {
    Count("storage.recovery_failures");
    return Status::Internal("injected fault: storage.recovery_replay");
  }
  SP_ASSIGN_OR_RETURN(disk_, DiskManager::Open(options_.data_dir));

  uint64_t floor = 1;
  if (disk_->Exists(kManifestName)) {
    SP_ASSIGN_OR_RETURN(std::string raw, disk_->ReadFile(kManifestName));
    SP_ASSIGN_OR_RETURN(manifest_, DecodeManifest(raw));
    have_manifest_ = true;
    floor = manifest_.wal_floor_seq;
    recovered_.found = true;
    recovered_.epoch = manifest_.meta.epoch;
    recovered_.next_default_ts = manifest_.meta.next_default_ts;
    recovered_.num_shards = manifest_.meta.num_shards;
    recovered_.batch_size = manifest_.meta.batch_size;
  }

  SP_ASSIGN_OR_RETURN(WalReplay replay, ReplayWal(*disk_, floor));
  recovered_.tail_torn = replay.tail_torn;
  if (!replay.records.empty()) recovered_.found = true;

  std::map<uint64_t, DurableSession> sessions;
  uint64_t max_session_id = 0;
  for (WalRecord& rec : replay.records) {
    if (IsCatalogRecord(rec.type)) {
      catalog_replica_.push_back(rec);
      recovered_.catalog.push_back(std::move(rec));
      continue;
    }
    if (rec.type == WalRecordType::kEpochCommit) {
      size_t off = 0;
      SP_ASSIGN_OR_RETURN(uint64_t epoch, GetVarint(rec.payload, &off));
      if (have_manifest_ && epoch == manifest_.meta.epoch) {
        recovered_.catalog_committed = recovered_.catalog.size();
      }
      continue;
    }
    if (rec.type == WalRecordType::kSessionUpsert) {
      SP_ASSIGN_OR_RETURN(DurableSession s, DecodeSession(rec.payload));
      max_session_id = std::max(max_session_id, s.id);
      sessions[s.id] = std::move(s);
    } else if (rec.type == WalRecordType::kSessionErase) {
      size_t off = 0;
      SP_ASSIGN_OR_RETURN(uint64_t id, GetVarint(rec.payload, &off));
      max_session_id = std::max(max_session_id, id);
      sessions.erase(id);
    }
    // kSpAdmitted / kAuditEvent / kRebaseReplica are forensic or
    // structural; replay does not act on them.
  }
  session_replica_ = sessions;
  for (auto& [id, s] : sessions) recovered_.sessions.push_back(s);
  recovered_.next_session_id = max_session_id + 1;

  // The delta chain named by the manifest, oldest first.
  for (uint64_t epoch : manifest_.delta_epochs) {
    SP_ASSIGN_OR_RETURN(std::string raw, disk_->ReadFile(DeltaName(epoch)));
    SP_ASSIGN_OR_RETURN(std::string_view body, CheckCrcFrame(raw, "delta"));
    if (body.substr(0, 4) != kDeltaMagic) {
      return Status::Internal("delta: bad magic");
    }
    size_t off = 4;
    SP_RETURN_NOT_OK(GetVarint(body, &off).status());  // full flag
    SP_ASSIGN_OR_RETURN(uint64_t delta_epoch, GetVarint(body, &off));
    if (delta_epoch != epoch) return Status::Internal("delta: epoch mismatch");
    SP_ASSIGN_OR_RETURN(uint64_t n, GetVarint(body, &off));
    if (n > kMaxDeltaEntries) return Status::Internal("delta: entry count");
    for (uint64_t i = 0; i < n; ++i) {
      StateEntry entry;
      SP_ASSIGN_OR_RETURN(uint64_t q, GetVarint(body, &off));
      SP_ASSIGN_OR_RETURN(uint64_t shard, GetVarint(body, &off));
      SP_ASSIGN_OR_RETURN(uint64_t op, GetVarint(body, &off));
      entry.key = {static_cast<uint32_t>(q), static_cast<uint32_t>(shard),
                   static_cast<uint32_t>(op)};
      SP_ASSIGN_OR_RETURN(entry.label, GetLengthPrefixed(body, &off));
      SP_ASSIGN_OR_RETURN(entry.blob, GetLengthPrefixed(body, &off));
      recovered_.blobs.push_back(std::move(entry));
    }
  }

  // Everything parsed: now (and only now) mutate the directory — heal the
  // torn tail, drop files outside the manifest, open the active segment.
  SP_RETURN_NOT_OK(CleanupStaleFiles(replay));

  uint64_t active = replay.max_seq;
  if (replay.stale_replica_seq > 0) active = replay.stale_replica_seq - 1;
  if (replay.tail_torn) active = replay.torn_seq;
  active = std::max(active, floor);
  if (active == 0) active = 1;
  SP_ASSIGN_OR_RETURN(wal_, WalWriter::Open(disk_.get(), active));
  next_seq_ = std::max(replay.max_seq, active) + 1;

  Count("storage.recoveries");
  if (recovered_.found) {
    AuditStorageEvent("recovered epoch=" + std::to_string(recovered_.epoch) +
                      " wal_records=" +
                      std::to_string(replay.records.size()) +
                      (replay.tail_torn ? " torn_tail" : ""));
  }
  return Status::OK();
}

Status DurabilityManager::CleanupStaleFiles(const WalReplay& replay) {
  SP_ASSIGN_OR_RETURN(std::vector<std::string> wal_names,
                      disk_->ListDir("wal"));
  const uint64_t floor = have_manifest_ ? manifest_.wal_floor_seq : 1;
  for (const std::string& name : wal_names) {
    if (name.size() != 10 || name.substr(6) != ".wal") {
      SP_RETURN_NOT_OK(disk_->RemoveFile("wal/" + name));  // tmp leftovers
      continue;
    }
    const uint64_t seq = std::strtoull(name.c_str(), nullptr, 10);
    const bool below_floor = seq < floor;
    const bool stale_replica = replay.stale_replica_seq > 0 &&
                               seq >= replay.stale_replica_seq;
    const bool past_torn = replay.tail_torn && seq > replay.torn_seq;
    if (below_floor || stale_replica || past_torn) {
      SP_RETURN_NOT_OK(disk_->RemoveFile("wal/" + name));
    }
  }
  if (replay.tail_torn && replay.stale_replica_seq == 0) {
    SP_RETURN_NOT_OK(disk_->TruncateFile(
        "wal/" + WalSegmentName(replay.torn_seq), replay.torn_valid_bytes));
  }

  SP_ASSIGN_OR_RETURN(std::vector<std::string> ckpt_names,
                      disk_->ListDir("ckpt"));
  for (const std::string& name : ckpt_names) {
    bool live = false;
    for (uint64_t epoch : manifest_.delta_epochs) {
      if ("ckpt/" + name == DeltaName(epoch)) {
        live = true;
        break;
      }
    }
    if (!live) SP_RETURN_NOT_OK(disk_->RemoveFile("ckpt/" + name));
  }
  return Status::OK();
}

// ---- logging -------------------------------------------------------------

Status DurabilityManager::LogCatalogRecord(WalRecordType type,
                                           std::string payload) {
  std::lock_guard<std::mutex> lock(mu_);
  wal_->Append(type, payload);
  Status st = wal_->Commit();
  if (!st.ok()) {
    Count("storage.wal_commit_failures");
    return st;
  }
  Count("storage.wal_appends");
  Count("storage.wal_commits");
  catalog_replica_.push_back(WalRecord{type, std::move(payload)});
  return Status::OK();
}

void DurabilityManager::BufferForensic(WalRecordType type,
                                       std::string payload) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_forensics_.push_back(WalRecord{type, std::move(payload)});
}

Status DurabilityManager::LogSessionUpsert(const DurableSession& s) {
  std::string payload;
  EncodeSession(s, &payload);
  std::lock_guard<std::mutex> lock(mu_);
  wal_->Append(WalRecordType::kSessionUpsert, payload);
  Status st = wal_->Commit();
  if (!st.ok()) {
    Count("storage.wal_commit_failures");
    return st;
  }
  Count("storage.wal_appends");
  Count("storage.wal_commits");
  session_replica_[s.id] = s;
  return Status::OK();
}

Status DurabilityManager::LogSessionErase(uint64_t id) {
  std::string payload;
  PutVarint(id, &payload);
  std::lock_guard<std::mutex> lock(mu_);
  wal_->Append(WalRecordType::kSessionErase, payload);
  Status st = wal_->Commit();
  if (!st.ok()) {
    Count("storage.wal_commit_failures");
    return st;
  }
  Count("storage.wal_appends");
  Count("storage.wal_commits");
  session_replica_.erase(id);
  return Status::OK();
}

Status DurabilityManager::FlushAuditTail(const AuditLog& audit) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t max_seq = last_flushed_audit_seq_;
  size_t appended = 0;
  for (const AuditEvent& ev : audit.Events()) {
    if (ev.seq <= last_flushed_audit_seq_) continue;
    wal_->Append(WalRecordType::kAuditEvent, ev.ToJson());
    max_seq = std::max(max_seq, ev.seq);
    ++appended;
  }
  if (appended == 0) return Status::OK();
  Status st = wal_->Commit();
  if (!st.ok()) {
    Count("storage.wal_commit_failures");
    return st;
  }
  Count("storage.wal_appends", static_cast<int64_t>(appended));
  Count("storage.wal_commits");
  last_flushed_audit_seq_ = max_seq;
  return Status::OK();
}

// ---- epoch commit --------------------------------------------------------

bool DurabilityManager::WantsFullCheckpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return manifest_.delta_epochs.size() + 1 >=
         static_cast<size_t>(std::max(1, options_.rebase_every));
}

uint64_t DurabilityManager::committed_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return have_manifest_ ? manifest_.meta.epoch : 0;
}

Result<std::vector<StateEntry>> DurabilityManager::ReadQueryCheckpoint(
    uint32_t query) {
  std::lock_guard<std::mutex> lock(mu_);
  // Same walk as Recover(): the manifest's delta chain, oldest first, so a
  // caller applying the entries in order ends at the last committed epoch.
  // Only files the current manifest references are read — an in-flight or
  // failed commit can never leak into a recovery.
  std::vector<StateEntry> out;
  for (uint64_t epoch : manifest_.delta_epochs) {
    SP_ASSIGN_OR_RETURN(std::string raw, disk_->ReadFile(DeltaName(epoch)));
    SP_ASSIGN_OR_RETURN(std::string_view body, CheckCrcFrame(raw, "delta"));
    if (body.substr(0, 4) != kDeltaMagic) {
      return Status::Internal("delta: bad magic");
    }
    size_t off = 4;
    SP_RETURN_NOT_OK(GetVarint(body, &off).status());  // full flag
    SP_ASSIGN_OR_RETURN(uint64_t delta_epoch, GetVarint(body, &off));
    if (delta_epoch != epoch) return Status::Internal("delta: epoch mismatch");
    SP_ASSIGN_OR_RETURN(uint64_t n, GetVarint(body, &off));
    if (n > kMaxDeltaEntries) return Status::Internal("delta: entry count");
    for (uint64_t i = 0; i < n; ++i) {
      StateEntry entry;
      SP_ASSIGN_OR_RETURN(uint64_t q, GetVarint(body, &off));
      SP_ASSIGN_OR_RETURN(uint64_t shard, GetVarint(body, &off));
      SP_ASSIGN_OR_RETURN(uint64_t op, GetVarint(body, &off));
      entry.key = {static_cast<uint32_t>(q), static_cast<uint32_t>(shard),
                   static_cast<uint32_t>(op)};
      SP_ASSIGN_OR_RETURN(entry.label, GetLengthPrefixed(body, &off));
      SP_ASSIGN_OR_RETURN(entry.blob, GetLengthPrefixed(body, &off));
      if (entry.key.query == query) out.push_back(std::move(entry));
    }
  }
  return out;
}

Status DurabilityManager::CommitEpoch(const EpochMeta& meta, bool full,
                                      const std::vector<StateEntry>& entries) {
  std::lock_guard<std::mutex> lock(mu_);

  // 1. Serialize the delta and write it durable (tmp + fsync + rename).
  //    The file is unreferenced until the manifest names it.
  std::string delta;
  delta.append(kDeltaMagic);
  PutVarint(full ? 1 : 0, &delta);
  PutVarint(meta.epoch, &delta);
  PutVarint(entries.size(), &delta);
  for (const StateEntry& e : entries) {
    PutVarint(e.key.query, &delta);
    PutVarint(e.key.shard, &delta);
    PutVarint(e.key.op_index, &delta);
    PutLengthPrefixed(e.label, &delta);
    PutLengthPrefixed(e.blob, &delta);
  }
  PutFixed32(Crc32(delta), &delta);

  if (SP_FAULT_FIRED(fault::kStorageCheckpointWrite)) {
    Count("storage.epoch_commit_failures");
    return Status::Internal("injected fault: storage.checkpoint_write");
  }

  const uint64_t old_seq = wal_->seq();
  if (full) {
    // Compaction: seed a fresh segment with the live catalog + session
    // replica. The kRebaseReplica marker keeps this segment invisible to
    // replay until the manifest below makes it the floor.
    SP_RETURN_NOT_OK(wal_->Rotate(next_seq_++));
    wal_->Append(WalRecordType::kRebaseReplica, "");
    for (const WalRecord& rec : catalog_replica_) {
      wal_->Append(rec.type, rec.payload);
    }
    std::string payload;
    for (const auto& [id, s] : session_replica_) {
      payload.clear();
      EncodeSession(s, &payload);
      wal_->Append(WalRecordType::kSessionUpsert, payload);
    }
    pending_forensics_.clear();  // bounded trail: dropped at compaction
  }

  Status st = disk_->AtomicWriteFile(DeltaName(meta.epoch), delta);
  if (!st.ok()) {
    Count("storage.epoch_commit_failures");
    if (full) (void)wal_->Rotate(old_seq);  // reattach the live segment
    return st;
  }

  // 2. One group commit: the epoch's forensics + the commit record.
  for (const WalRecord& rec : pending_forensics_) {
    wal_->Append(rec.type, rec.payload);
  }
  std::string epoch_payload;
  PutVarint(meta.epoch, &epoch_payload);
  wal_->Append(WalRecordType::kEpochCommit, epoch_payload);
  const size_t committed_records = wal_->staged_records();
  st = wal_->Commit();
  pending_forensics_.clear();  // lost on failure by design (never acked)
  if (!st.ok()) {
    Count("storage.epoch_commit_failures");
    if (full) (void)wal_->Rotate(old_seq);
    return st;
  }
  Count("storage.wal_appends", static_cast<int64_t>(committed_records));
  Count("storage.wal_commits");

  // 3. Manifest rename: the commit point.
  Manifest next = manifest_;
  next.meta = meta;
  if (full) {
    next.wal_floor_seq = wal_->seq();
    next.delta_epochs = {meta.epoch};
  } else {
    next.delta_epochs.push_back(meta.epoch);
  }
  std::string raw;
  EncodeManifest(next, &raw);
  st = disk_->AtomicWriteFile(kManifestName, raw);
  if (!st.ok()) {
    Count("storage.epoch_commit_failures");
    if (full) (void)wal_->Rotate(old_seq);
    return st;
  }
  const Manifest prev = manifest_;
  manifest_ = std::move(next);
  have_manifest_ = true;

  Count("storage.checkpoints");
  Count("storage.checkpoint_bytes", static_cast<int64_t>(delta.size()));
  if (metrics_ != nullptr) {
    metrics_->SetGauge("storage.committed_epoch",
                       static_cast<int64_t>(meta.epoch));
    metrics_->SetGauge("storage.delta_chain_len",
                       static_cast<int64_t>(manifest_.delta_epochs.size()));
  }

  if (full) {
    // The old chain and pre-compaction segments are garbage now; failing
    // to delete them is not a commit failure.
    Count("storage.rebases");
    AuditStorageEvent("rebase epoch=" + std::to_string(meta.epoch));
    for (uint64_t epoch : prev.delta_epochs) {
      if (epoch != meta.epoch) (void)disk_->RemoveFile(DeltaName(epoch));
    }
    for (uint64_t seq = prev.wal_floor_seq; seq < manifest_.wal_floor_seq;
         ++seq) {
      (void)disk_->RemoveFile("wal/" + WalSegmentName(seq));
    }
  } else if (wal_->segment_bytes() >= options_.segment_bytes) {
    SP_RETURN_NOT_OK(wal_->Rotate(next_seq_++));
  }
  return Status::OK();
}

void DurabilityManager::Count(const char* name, int64_t delta) {
  if (metrics_ != nullptr) metrics_->AddCounter(name, delta);
}

void DurabilityManager::AuditStorageEvent(const std::string& detail) {
  if (audit_ == nullptr) return;
  AuditEvent ev;
  ev.kind = AuditEventKind::kStorage;
  ev.scope = "engine";
  ev.detail = detail;
  audit_->Append(std::move(ev));
}

}  // namespace spstream::storage
