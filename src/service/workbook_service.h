// The workbook service: a concurrent registry of WorkbookSessions.
//
// Layout: session names hash into a fixed set of shards, each a mutex +
// name->session map, so unrelated opens/lookups do not contend on one
// lock. Sessions are handed out as shared_ptr — a request keeps its
// session alive even if another client closes or the LRU evicts it
// concurrently.
//
// Residency: the number of live sessions is LRU-bounded
// (`max_resident_sessions`). When the cap is exceeded, the
// least-recently-used file-bound session is saved and "parked": dropped
// from its shard while the service remembers name -> path, so the next
// request for that name transparently reloads it. Sessions without a
// backing file cannot be parked losslessly and are pinned resident (the
// cap is soft; STATS exposes the pressure).
//
// Execution: commands run on their caller's thread (a socket
// connection's, or taco_serve's main thread in stdin mode), so one
// connection's commands apply in arrival order while different
// connections run in parallel. Recalc runs on the thread of the command
// that holds the session lock: the service owns no worker pool (its one
// background thread is the WAL group committer).

#ifndef TACO_SERVICE_WORKBOOK_SERVICE_H_
#define TACO_SERVICE_WORKBOOK_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/metrics.h"
#include "service/workbook_session.h"

namespace taco {

struct WorkbookServiceOptions {
  int shards = 8;                    ///< Session-map shards (>= 1).
  size_t max_resident_sessions = 64; ///< LRU bound; 0 = unbounded.

  /// Start every session with value-change cutoff recalculation enabled
  /// (taco_serve --cutoff; RECALC <s> cutoff on|off toggles per session).
  bool cutoff = false;

  /// Directory for per-session write-ahead logs. Empty disables WAL:
  /// no durability between saves, exactly the pre-storage behavior.
  /// When set, every acknowledged edit is logged before its response and
  /// fsynced by the service's shared group committer (sessions release
  /// their lock before waiting on the flush), and OPEN/LOAD recover
  /// snapshot + WAL tail.
  std::string wal_dir;

  /// Capacity of the per-service trace ring the TRACE verb reads from
  /// (most recent mutating commands, phase-by-phase).
  size_t trace_spans = 256;

  /// Mutations whose total latency reaches this many milliseconds are
  /// mirrored to stderr as one structured span line (taco_serve
  /// --slow-op-ms). 0 disables. Fractional values work: thresholds
  /// below one millisecond are meaningful on the paper's workloads.
  double slow_op_ms = 0;

  /// Structured event log for the whole service (taco_serve --log-file).
  /// Non-owning; must outlive the service. Null disables event logging
  /// entirely (sessions and the WAL observer check before formatting).
  obs::Logger* logger = nullptr;

  /// When set, every "ERR ..." protocol response carries a trailing
  /// " rid=<n>" so a client-visible failure can be joined against the
  /// trace span and log events minted under the same correlation id.
  /// Off by default: the annotation is a wire-format change.
  bool annotate_errors_with_rid = false;
};

/// Owns many independent workbook sessions and serves them concurrently.
/// All public methods are thread-safe.
class WorkbookService {
 public:
  explicit WorkbookService(WorkbookServiceOptions options = {});

  /// Returns the session named `name`, creating an empty one if it does
  /// not exist. Reloads a parked session from its file, and recovers a
  /// session whose WAL a previous process left behind.
  Result<std::shared_ptr<WorkbookSession>> Open(const std::string& name);

  /// Returns an existing (or parked) session; NotFound otherwise.
  Result<std::shared_ptr<WorkbookSession>> Get(const std::string& name);

  /// Loads a binary snapshot or a .tsheet file (LoadSnapshotFile) into
  /// a new session bound to `path`. AlreadyExists when `name` is taken.
  Result<std::shared_ptr<WorkbookSession>> Load(const std::string& name,
                                                const std::string& path);

  /// Saves the named session (to `path`, or its bound path).
  Status Save(const std::string& name, const std::string& path = "");

  /// Drops the session from the registry. Unsaved changes are lost
  /// (protocol clients SAVE first); in-flight holders keep their pointer.
  Status Close(const std::string& name);

  /// Names of resident sessions (sorted; parked sessions excluded).
  std::vector<std::string> SessionNames() const;

  /// The resident sessions themselves, sorted by name: a read-only
  /// snapshot taken under the shard locks. Unlike Get it touches no LRU
  /// stamp, runs no eviction and reloads nothing, so observers (metrics
  /// scrapes) cannot disturb residency.
  std::vector<std::shared_ptr<WorkbookSession>> ResidentSessions() const;

  size_t resident_sessions() const;
  size_t parked_sessions() const;
  uint64_t evictions() const { return evictions_.load(); }

  ServiceMetrics& metrics() { return metrics_; }
  const WorkbookServiceOptions& options() const { return options_; }

  /// The service-wide structured event log (null when disabled).
  obs::Logger* logger() const { return options_.logger; }
  bool annotate_errors_with_rid() const {
    return options_.annotate_errors_with_rid;
  }

  bool wal_enabled() const { return !options_.wal_dir.empty(); }

  /// The WAL file a session named `name` uses (empty when WAL is off).
  /// Names are filesystem-escaped, so any protocol-legal session name
  /// maps to a distinct file inside wal_dir.
  std::string WalPathFor(const std::string& name) const;

 private:
  /// A load/reload in progress for one name: inserted under the shard
  /// lock before the file I/O + graph build start, so same-name requests
  /// wait on the placeholder (outside the shard lock) instead of
  /// stalling the whole shard behind the disk.
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Result<std::shared_ptr<WorkbookSession>> result{
        Status::Internal("load still in flight")};
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<WorkbookSession>> sessions;
    /// Names with a load/reload in progress (heavy work runs outside
    /// shard.mu). A name is never in `sessions` and `pending` at once.
    std::unordered_map<std::string, std::shared_ptr<InFlight>> pending;
  };

  Shard& ShardFor(const std::string& name);
  const Shard& ShardFor(const std::string& name) const;

  /// Stamps `session` with the next LRU tick.
  void Touch(WorkbookSession& session);

  /// Creates a session around `sheet`, building its TacoGraph.
  Result<std::shared_ptr<WorkbookSession>> MakeSession(
      const std::string& name, Sheet sheet);

  /// The storage-side of OPEN/LOAD/reload, run OUTSIDE registry locks:
  /// loads the base snapshot (WAL header path, or `base_path` when
  /// given), replays the WAL tail onto it (`replay_wal`), or resets the
  /// log when the caller explicitly chose a different file (LOAD to a
  /// path the log does not extend). Torn tails truncate silently;
  /// interior WAL corruption and snapshot CRC failures surface as
  /// statuses and the session is not created.
  Result<std::shared_ptr<WorkbookSession>> LoadSessionFromStorage(
      const std::string& name, const std::string& base_path,
      bool replay_wal);

  /// The shared lookup/reload/create transition behind Open and Get,
  /// atomic per shard. With `create_if_missing` false, a name that is
  /// neither resident nor parked is NotFound instead of created.
  Result<std::shared_ptr<WorkbookSession>> OpenImpl(const std::string& name,
                                                    bool create_if_missing);

  /// If over the residency cap, saves + parks LRU file-bound sessions.
  void MaybeEvict();

  /// Looks up (and erases) the parked snapshot path of `name`.
  std::optional<std::string> TakeParked(const std::string& name);

  /// The per-session WAL options: the shared committer plus (when a
  /// logger is configured) an observer that turns rotations and append
  /// failures into structured log events tagged with the session name.
  WalOptions WalOptionsFor(const std::string& name) const;

  WorkbookServiceOptions options_;
  /// The shared group committer thread (null when the WAL is off).
  /// Declared before the shards so it is destroyed AFTER them: session
  /// WALs drain their last tickets through it from their destructors.
  /// Its metrics/log observer is only reachable while a flush is
  /// pending, and every pending flush has a waiter holding its session
  /// (and thus this service) in use, so the later-destroyed members it
  /// touches are safe.
  std::unique_ptr<GroupCommitter> group_committer_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> lru_clock_{0};
  std::atomic<uint64_t> evictions_{0};
  /// Tracks the map sizes so the per-op residency check (MaybeEvict's
  /// fast path) doesn't have to lock every shard just to count.
  std::atomic<size_t> resident_count_{0};

  /// Evicted sessions: name -> the snapshot path they were saved to, all
  /// a transparent reload needs to bring one back exactly as it was.
  mutable std::mutex parked_mu_;
  std::unordered_map<std::string, std::string> parked_;

  /// Sessions whose eviction save failed, with the op epoch at failure:
  /// skipped by later sweeps until they change again, so a session with
  /// a broken bound path doesn't put a failing disk write on every
  /// request while the service sits over the (soft) cap.
  std::mutex unsavable_mu_;
  std::unordered_map<std::string, uint64_t> unsavable_;

  /// Single-flight guard for MaybeEvict: overlapping sweeps would veto
  /// each other's park re-checks (each holds the victim's shared_ptr,
  /// breaking the sole-reference condition) and duplicate scans/saves.
  std::atomic<bool> evicting_{false};

  ServiceMetrics metrics_;
};

}  // namespace taco

#endif  // TACO_SERVICE_WORKBOOK_SERVICE_H_
