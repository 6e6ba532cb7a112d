// Per-session write-ahead log (.wal).
//
// Durability contract of the workbook service: every acknowledged
// Edit/EditBatch is appended (and fsynced) to the session's WAL before
// the response is returned, so a crash between checkpoints loses nothing
// that a client was told succeeded. A checkpoint (snapshot save) rotates
// the log: the new, empty log's header records the snapshot path, and
// recovery is "load that snapshot, replay the log tail".
//
// On-disk layout:
//
//   header   magic "TWAL", version, snapshot path and a graph-backend
//            string (length-prefixed), CRC32 over everything before it.
//            The header is only ever written whole via temp-file +
//            rename (creation and rotation), so it is either complete
//            and valid or the file does not exist — torn headers cannot
//            occur. Every session runs on TACO, so the backend string is
//            written empty and skipped on read; logs that name another
//            graph still recover, onto TACO.
//   records  appended in place, each:
//              u32 payload length | u32 payload CRC32 | payload
//            payload = u32 edit count, then the encoded edits.
//
// Torn-tail tolerance: appends are the only in-place writes, so a crash
// can leave at most one partial record at the end. On open, a record
// that extends past EOF (or a trailing CRC mismatch) is silently
// truncated — those edits were never acknowledged. A CRC mismatch on an
// INTERIOR record (valid records follow it) cannot be a torn append; it
// is corruption and fails the open with DataLoss rather than replaying
// wrong data.

#ifndef TACO_STORE_WAL_H_
#define TACO_STORE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "common/status.h"
#include "eval/recalc.h"
#include "sheet/sheet.h"
#include "store/group_commit.h"

namespace taco {

/// Notable WAL lifecycle moments, reported through WalOptions::observer
/// so the owning layer can log them without the store depending on any
/// logging machinery.
enum class WalEvent {
  kRotate,         ///< Checkpoint rotation swapped in a fresh log.
  kAppendFailure,  ///< An append (write or fsync) failed; detail = error.
};

struct WalOptions {
  /// fsync after every append (the durability contract). Benchmarks may
  /// turn it off to measure the encode/write path alone.
  bool sync = true;
  /// Deferred sync: when set (and sync is on), Append does not fsync
  /// inline — it enqueues a flush ticket with this shared committer and
  /// the durability wait happens on the ticket instead, letting many
  /// appends share one fsync. Non-owning; must outlive the log.
  GroupCommitter* group_commit = nullptr;
  /// Records larger than this are rejected at append and treated as
  /// corruption at replay (a frame this size cannot be genuine).
  uint32_t max_record_bytes = 64u << 20;
  /// Optional event hook, invoked synchronously on the appending thread
  /// with the log's path as context. Must not call back into the log.
  std::function<void(WalEvent event, const std::string& path,
                     const std::string& detail)>
      observer;
};

/// The atomically-written metadata at the front of every log.
struct WalHeader {
  std::string snapshot_path;  ///< Snapshot this log extends; may be empty.
};

/// What replaying an existing log found.
struct WalRecovery {
  uint64_t records = 0;       ///< Complete records replayed.
  uint64_t edits = 0;         ///< Edits contained in those records.
  uint64_t bytes = 0;         ///< Valid log length (post-truncation size).
  bool torn_tail = false;     ///< A partial final record was dropped.
  WalHeader header;
};

/// An open, appendable write-ahead log bound to one file.
class WriteAheadLog {
 public:
  using ReplayFn = std::function<Status(const EditBatch&)>;

  /// Opens `path` for appending, creating it (with `header`) when
  /// absent. Existing records are replayed in order through `replay`
  /// (which may be null to skip application) and a torn tail is
  /// truncated off the file; interior corruption fails with DataLoss
  /// and leaves the file untouched. `header` seeds the file only when
  /// it is being created.
  static Result<std::unique_ptr<WriteAheadLog>> Open(
      std::string path, const WalOptions& options,
      const ReplayFn& replay = nullptr, WalRecovery* recovery = nullptr,
      const WalHeader& header = {});

  /// Creates (or truncates) `path` as an empty log with `header`.
  /// Atomic via temp-then-rename.
  static Result<std::unique_ptr<WriteAheadLog>> Create(
      std::string path, const WalOptions& options, const WalHeader& header);

  /// Read-only scan of an existing log (no truncation, no writer) — the
  /// recovery-test oracle and offline inspection path. Torn tails are
  /// reported, interior corruption is DataLoss.
  static Result<WalRecovery> Replay(const std::string& path,
                                    const ReplayFn& replay,
                                    const WalOptions& options = {});

  /// The header of an existing log. Reads only the (bounded) header
  /// region, not the records — cheap even on a long log.
  static Result<WalHeader> PeekHeader(const std::string& path);

  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends one record holding `edits`, fsyncing before returning when
  /// options.sync is set. Empty spans are a no-op. Under group commit
  /// (options.group_commit set), the record is written but not yet
  /// durable on return: a non-null `ticket` receives the flush ticket
  /// for the caller to Wait on AFTER releasing its own lock; with a
  /// null `ticket` the append waits for the group flush inline, so the
  /// fsync-before-return contract holds either way.
  Status Append(std::span<const Edit> edits,
                GroupCommitTicket* ticket = nullptr);

  /// Swaps the file for an empty log with `header` — the checkpoint
  /// rotation. Atomic: a crash leaves either the full old log or the
  /// fresh empty one.
  Status Rotate(const WalHeader& header);

  const std::string& path() const { return path_; }
  /// Current on-disk size in bytes (header + records).
  uint64_t bytes() const { return bytes_; }
  /// Records appended through THIS handle since open/rotate.
  uint64_t appended_records() const { return appended_records_; }
  /// Duration of the durability wait in the most recent Append (0 when
  /// sync is off, nothing was appended yet, or the append handed out a
  /// group-commit ticket — then the caller measures its own ticket
  /// wait). The durability wait is usually the dominant term of a
  /// mutation's latency; trace spans report it as its own phase so it
  /// is never mistaken for compute.
  uint64_t last_sync_ns() const { return last_sync_ns_; }

 private:
  WriteAheadLog(std::string path, WalOptions options, int fd,
                uint64_t bytes);

  std::string path_;
  WalOptions options_;
  int fd_ = -1;
  uint64_t bytes_ = 0;
  uint64_t appended_records_ = 0;
  uint64_t last_sync_ns_ = 0;
};

/// Applies one logged edit directly to a sheet (no graph, no recalc) —
/// the replay primitive. Recovery rebuilds the graph and evaluates after
/// the full replay, so intermediate recalcs would be wasted work.
Status ApplyEditToSheet(Sheet* sheet, const Edit& edit);

}  // namespace taco

#endif  // TACO_STORE_WAL_H_
