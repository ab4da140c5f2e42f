// Page-oriented disk access for the durability subsystem.
//
// DiskManager owns the data directory tree and exposes exactly the
// primitives the WAL and checkpointer need, each with the fsync discipline
// spelled out at the call site:
//
//  * AppendFile — a page-buffered appender (4 KiB pages) for WAL segments;
//    bytes become durable only at Sync() (group commit), never implicitly.
//  * AtomicWriteFile — full-file replace via tmp + fsync + rename + parent
//    directory fsync. The rename is the commit point; a crash at any prior
//    instant leaves the old file intact (this is how the checkpoint
//    MANIFEST becomes the single authoritative pointer).
//
// POSIX-only, matching the repo's supported platforms.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace spstream::storage {

/// \brief Page-buffered append-only file. Not thread-safe; callers
/// serialize (the WalWriter sits behind the DurabilityManager mutex).
class AppendFile {
 public:
  static constexpr size_t kPageBytes = 4096;

  /// \brief Open (creating or appending to) `path`.
  static Result<std::unique_ptr<AppendFile>> Open(const std::string& path);
  ~AppendFile();

  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// \brief Buffer `data`; full pages are written through as they fill.
  Status Append(std::string_view data);

  /// \brief Write any buffered partial page to the kernel.
  Status Flush();

  /// \brief Flush + fdatasync: everything appended so far is durable.
  Status Sync();

  /// \brief Chop the file back to `len` bytes and resume appending there
  /// (heals a torn tail left by a failed group commit). Any buffered bytes
  /// are discarded.
  Status TruncateTo(uint64_t len);

  /// \brief Logical size: on-disk bytes plus buffered bytes.
  uint64_t size() const { return synced_size_ + buffer_.size(); }

 private:
  AppendFile(int fd, uint64_t size) : fd_(fd), synced_size_(size) {}

  int fd_;
  uint64_t synced_size_;  // bytes handed to write(2)
  std::string buffer_;    // partial trailing page
};

/// \brief Root handle on the data directory. Thread-compatible: all methods
/// are stateless over the filesystem except directory creation in Open.
class DiskManager {
 public:
  /// \brief Open `root`, creating it (and the wal/ and ckpt/ subdirs) if
  /// missing.
  static Result<std::unique_ptr<DiskManager>> Open(std::string root);

  std::string Path(std::string_view rel) const;

  /// \brief File names (not paths) directly under `rel`, unsorted.
  Result<std::vector<std::string>> ListDir(std::string_view rel) const;

  Result<std::string> ReadFile(std::string_view rel) const;
  bool Exists(std::string_view rel) const;
  Status RemoveFile(std::string_view rel);

  /// \brief Truncate `rel` to `len` bytes (recovery chops a torn WAL tail
  /// so later appends are reachable by replay again).
  Status TruncateFile(std::string_view rel, uint64_t len);

  /// \brief Durable full-file replace: write `rel`.tmp, fsync it, rename
  /// over `rel`, fsync the parent directory.
  Status AtomicWriteFile(std::string_view rel, std::string_view data);

  /// \brief fsync the directory `rel` ("" = root) so newly created /
  /// renamed entries are durable.
  Status SyncDir(std::string_view rel) const;

 private:
  explicit DiskManager(std::string root) : root_(std::move(root)) {}

  std::string root_;
};

}  // namespace spstream::storage
