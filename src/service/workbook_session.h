// One live workbook: Sheet + TacoGraph + RecalcEngine behind a
// per-session mutex, with an MVCC read path beside it.
//
// A session is the unit of isolation in the workbook service: every
// MUTATION takes the session lock, so concurrent writers of one
// workbook serialize (spreadsheet recalc is inherently ordered) while
// different workbooks proceed in parallel. READS do not queue behind
// that lock: each committed mutation publishes an immutable ValueVersion
// (under the lock, at the recalc commit point), and GetValue/GetRange
// serve from the latest published version, cached per thread — no
// session mutex, no evaluator-cache mutation, and never a torn mid-recalc
// state. The first version is published lazily: the first read of a
// session that no mutation has published yet (fresh OPEN, LOAD, reload)
// takes the lock once and publishes the full version, so OPEN and LOAD
// do no extra work. Sessions never share mutable state with each other;
// the only cross-session object is the metrics sink, which is
// internally synchronized.

#ifndef TACO_SERVICE_WORKBOOK_SESSION_H_
#define TACO_SERVICE_WORKBOOK_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "eval/recalc.h"
#include "obs/log.h"
#include "service/metrics.h"
#include "sheet/sheet.h"
#include "store/wal.h"
#include "taco/taco_graph.h"

namespace taco {

/// Point-in-time counters of one session (STATS <name>).
struct SessionStats {
  std::string name;
  std::string path;           ///< Bound file, empty when in-memory only.
  size_t cells = 0;
  size_t formula_cells = 0;
  size_t graph_vertices = 0;
  size_t graph_edges = 0;
  uint64_t ops = 0;           ///< Mutating + read operations served.
  uint64_t edits = 0;         ///< Individual edits applied (batch members).
  uint64_t recalc_passes = 0;
  uint64_t dirty_cells = 0;   ///< Cumulative dirty-set size.
  bool dirty = false;         ///< Unsaved changes since load/save.
  uint64_t waves = 0;           ///< Cumulative scheduler waves executed.
  uint64_t max_wave_cells = 0;  ///< Largest wave any recalc produced.
  bool cutoff = false;          ///< Value-change cutoff enabled.
  uint64_t cells_skipped = 0;   ///< Cumulative cells pruned by cutoff.
  std::string wal_path;         ///< WAL file, empty when WAL is disabled.
  uint64_t wal_records = 0;     ///< Records live in the WAL right now.
  uint64_t wal_bytes = 0;       ///< Current WAL file size.
  uint64_t recovered_records = 0;  ///< Records replayed at open.
  bool wal_failed = false;      ///< Sticky: a WAL append failed; mutations
                                ///  are refused until a CHECKPOINT.
  uint64_t version = 0;            ///< Latest published value version id.
  uint64_t version_chain_depth = 0;  ///< Delta links behind the latest
                                     ///  version (1 = full snapshot).
  uint64_t versions_published = 0; ///< Versions published over the lifetime.
  uint64_t reads_versioned = 0;    ///< Reads served (GET and GETRANGE).
};

/// One consistent bulk read (GETRANGE): every value comes from a single
/// published version, so the cells can never mix two commits.
struct RangeSnapshot {
  uint64_t version = 0;  ///< Id of the version served (>= 1).
  std::vector<std::pair<Cell, Value>> values;  ///< Non-blank cells, in
                                               ///  EnumerateCells order.
};

/// A named spreadsheet session. Thread-safe; all public operations lock.
class WorkbookSession {
 public:
  /// Takes ownership of `graph`, which must already reflect `sheet`
  /// (callers use BuildGraphFromSheet; an empty sheet needs no build).
  /// `metrics` is optional and must outlive the session when given.
  WorkbookSession(std::string name, Sheet sheet, TacoGraph graph,
                  ServiceMetrics* metrics = nullptr);

  WorkbookSession(const WorkbookSession&) = delete;
  WorkbookSession& operator=(const WorkbookSession&) = delete;

  const std::string& name() const { return name_; }

  /// Mutations; each returns the merged recalc outcome.
  Result<RecalcResult> SetNumber(const Cell& cell, double value);
  Result<RecalcResult> SetText(const Cell& cell, std::string value);
  Result<RecalcResult> SetFormula(const Cell& cell, std::string_view text);
  Result<RecalcResult> ClearRange(const Range& range);

  /// Applies `batch` with ONE merged dirty-set computation and recalc
  /// (RecalcEngine::ApplyBatch) — N edits, one graph sweep. On failure,
  /// a non-null `partial` receives the outcome of the edits that did
  /// apply (batches are not atomic; see RecalcEngine::ApplyBatch).
  Result<RecalcResult> ApplyBatch(const EditBatch& batch,
                                  RecalcResult* partial = nullptr);

  /// The EXPLAIN dry run: what a mutation of `target` would dirty and
  /// how the active recalc path would schedule it. Takes the session
  /// lock (the graph must not move underneath the closure query) but
  /// mutates nothing — no WAL append, no version publish, no recalc.
  RecalcEngine::ExplainInfo Explain(const Range& target);

  /// The current value of one cell, read from the latest published
  /// version without the session lock.
  Value GetValue(const Cell& cell);

  /// Every non-blank cell of `range`, read from ONE published version.
  /// The caller bounds the range area; this enumerates every cell of it.
  RangeSnapshot GetRange(const Range& range);

  /// Plugs in the service's shared wave scheduler (null unplugs it: the
  /// engine's own pool-less scheduler runs at width 1). `scheduler` must
  /// outlive the session (the service owns both). Called by the service
  /// before the session is published; safe to call on a live session
  /// too (takes the lock).
  void EnableParallelRecalc(RecalcScheduler* scheduler);

  /// Toggles value-change cutoff recalculation (default off; see
  /// eval/cutoff.h). Works at any recalc width and keeps results
  /// cell-for-cell identical to full recalc.
  void SetCutoff(bool enabled);
  bool cutoff() const;

  /// Serializes the sheet in .tsheet format.
  std::string Snapshot() const;

  /// Arms write-ahead logging: the log file is created lazily (its
  /// header recording the bound path of that moment) on the first
  /// mutation, so fresh sessions pay no I/O until they change. Called by
  /// the service before the session is published.
  void ArmWal(std::string wal_path, WalOptions options);

  /// Adopts an already-open log (the recovery path). When `recovery`
  /// replayed records, the session starts dirty: its snapshot does not
  /// yet contain those edits.
  void AdoptWal(std::unique_ptr<WriteAheadLog> wal,
                const WalRecovery& recovery);

  /// Saves to `path` (or the bound path when empty) and clears the dirty
  /// flag. Binding: a successful save remembers `path` for next time.
  /// Every save is a full checkpoint: a binary snapshot via
  /// temp-then-rename+fsync (SaveSheetBinaryFile), then WAL rotation (the
  /// fresh log's header records the snapshot path), so recovery never
  /// replays edits the snapshot already holds.
  /// `op` selects the metrics row this save records under — SAVE and
  /// CHECKPOINT are the same code path but distinct operator actions,
  /// and each must be visible in its own STATS/exposition row.
  Status Save(const std::string& path = "", ServiceOp op = ServiceOp::kSave);

  /// Alias of Save under its durability name (the CHECKPOINT verb).
  Status Checkpoint(const std::string& path = "") {
    return Save(path, ServiceOp::kCheckpoint);
  }

  /// File this session was loaded from / last saved to ("" if none).
  std::string bound_path() const;

  /// Binds `path` without saving (used by LOAD right after reading it).
  void BindPath(std::string path);

  SessionStats Stats() const;

  /// LRU bookkeeping for the service's resident-set bound.
  uint64_t last_access() const { return last_access_.load(); }
  void Touch(uint64_t tick) { last_access_.store(tick); }

  /// Monotonic count of operations served; the evictor compares epochs
  /// around save-and-park to detect a session that became hot again.
  uint64_t op_epoch() const { return op_epoch_.load(); }

  /// Attaches the service's structured logger (may be null). Like
  /// `metrics`, the pointer is read without the session lock on the
  /// mutation path, so it must be set before the session is published
  /// and must outlive the session.
  void set_logger(obs::Logger* logger) { logger_ = logger; }

 private:
  template <typename Fn>
  Result<RecalcResult> Mutate(ServiceOp op, std::span<const Edit> edits,
                              Fn&& fn);

  /// Publishes the post-commit ValueVersion covering the applied edits'
  /// rectangles plus the recalc's dirty ranges. Called under mu_, after
  /// the commit (serial or parallel — the wave barrier has passed), so
  /// the version readers acquire is always fully committed state.
  void PublishVersion(std::span<const Edit> applied,
                      const RecalcResult& outcome);

  /// The reader-side acquire: the latest published version, never null.
  /// A session nothing has published yet publishes its full version
  /// here, once, under mu_ (racing first readers re-check and share it).
  /// Readers check the plain atomic `published_id_` first and reuse a
  /// thread-local cached shared_ptr when it is current, so the hot path
  /// touches no shared cache line at all — copying the published
  /// shared_ptr takes a lock plus two refcount RMWs, which under read
  /// fan-out would cost as much as the session mutex it was meant to
  /// replace. Returns a RAW pointer into that thread-local
  /// cache (pinned until this thread's next AcquireVersion call):
  /// returning the shared_ptr by value would put two refcount RMWs on
  /// the shared control block back on every read.
  const ValueVersion* AcquireVersion();

  /// Appends the acknowledged prefix of `edits` to the WAL (opening an
  /// armed log on first use). Called under mu_. A failure here surfaces
  /// to the client: the edit is applied in memory but NOT durable, and
  /// acknowledging it would break the recovery contract. Under group
  /// commit, `ticket` comes back armed and the durability wait happens
  /// on it AFTER mu_ is released, so concurrent mutations of this
  /// session can write their records while this one waits its flush.
  Status LogToWal(std::span<const Edit> edits, GroupCommitTicket* ticket);

  const std::string name_;
  mutable std::mutex mu_;
  Sheet sheet_;
  TacoGraph graph_;
  RecalcEngine engine_;
  std::unique_ptr<WriteAheadLog> wal_;  ///< Open log; null until first use.
  std::string wal_path_;                ///< Armed path; empty = disabled.
  WalOptions wal_options_;
  uint64_t wal_live_records_ = 0;  ///< Records a crash would replay now.
  uint64_t recovered_records_ = 0;
  std::string bound_path_;
  bool dirty_ = false;
  /// Sticky data-loss latch: a WAL append failed, so in-memory state is
  /// ahead of the log. Further mutations are refused (kDataLoss) until a
  /// successful CHECKPOINT writes a snapshot that contains the unlogged
  /// edits and rotates the log.
  bool wal_failed_ = false;
  /// Bumped by every successful checkpoint (under mu_). A group-flush
  /// waiter re-checks it before latching wal_failed_: when a checkpoint
  /// raced in between the append and the failed flush, the snapshot
  /// already holds the edit — it IS durable, and latching (or erroring
  /// the ack) would report a loss that didn't happen.
  uint64_t checkpoint_epoch_ = 0;
  uint64_t versions_published_ = 0;
  std::atomic<uint64_t> ops_{0};  ///< Mutations only; Stats() adds reads.
  uint64_t edits_ = 0;
  uint64_t recalc_passes_ = 0;
  uint64_t dirty_cells_ = 0;
  uint64_t waves_ = 0;
  uint64_t max_wave_cells_ = 0;
  uint64_t cells_skipped_ = 0;
  ServiceMetrics* metrics_;
  obs::Logger* logger_ = nullptr;  ///< Shared; owned by the caller.
  std::atomic<uint64_t> last_access_{0};
  std::atomic<uint64_t> op_epoch_{0};
  /// The MVCC slot: writers store the freshly built version under mu_
  /// (and the short `published_mu_`), then release-store its id into
  /// `published_id_`; readers check the id (one plain atomic load) and
  /// only take `published_mu_` to copy the pointer when their
  /// thread-local cache is stale. Id 0 = nothing published. A plain
  /// mutex, not std::atomic<std::shared_ptr>: libstdc++ 12's atomic
  /// load releases its internal lock with a relaxed store, which leaves
  /// the next store unordered after the load (ThreadSanitizer reports
  /// it as a race).
  mutable std::mutex published_mu_;
  std::shared_ptr<const ValueVersion> published_;
  std::atomic<uint64_t> published_id_{0};
  /// Process-unique session identity for the thread-local version cache
  /// (a reused heap address must not revalidate a dead cache entry).
  const uint64_t serial_;
  /// Read count, sharded by thread (padded lines) — the only write the
  /// lock-free read path makes must not be a shared line N readers
  /// serialize on.
  struct alignas(64) PaddedCount {
    std::atomic<uint64_t> v{0};
  };
  static constexpr size_t kReadCountShards = 8;
  PaddedCount reads_versioned_[kReadCountShards];
};

}  // namespace taco

#endif  // TACO_SERVICE_WORKBOOK_SESSION_H_
