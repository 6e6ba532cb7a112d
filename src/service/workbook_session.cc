#include "service/workbook_session.h"

#include <algorithm>
#include <utility>

#include "common/a1.h"
#include "common/clock.h"
#include "obs/rid.h"
#include "sheet/textio.h"
#include "store/snapshot.h"

namespace taco {
namespace {

/// Per-thread cache of the last version a reader resolved, keyed by the
/// owning session's process-unique serial. A read whose session still
/// publishes the cached id runs without touching any shared cache line:
/// the refcount (and libstdc++'s atomic-shared_ptr spinlock) is only
/// paid once per published version per thread, not once per read.
struct TlsVersionCache {
  uint64_t session_serial = 0;
  uint64_t id = 0;
  std::shared_ptr<const ValueVersion> version;
};
thread_local TlsVersionCache tls_version_cache;

std::atomic<uint64_t> session_serial_counter{0};

/// Stable per-thread shard index for the sharded read counter.
unsigned ThreadReadShard() {
  static std::atomic<unsigned> next{0};
  thread_local unsigned slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// The trace span's "what" column: the touched cell/range for single
/// edits, the edit count for batches.
std::string MutationDetail(ServiceOp op, std::span<const Edit> edits) {
  if (op == ServiceOp::kBatch || edits.size() != 1) {
    return "edits=" + std::to_string(edits.size());
  }
  const Edit& edit = edits.front();
  return edit.kind == Edit::Kind::kClearRange ? RangeToA1(edit.range)
                                              : CellToA1(edit.cell);
}

}  // namespace

WorkbookSession::WorkbookSession(std::string name, Sheet sheet,
                                 TacoGraph graph, ServiceMetrics* metrics)
    : name_(std::move(name)),
      sheet_(std::move(sheet)),
      graph_(std::move(graph)),
      engine_(&sheet_, &graph_),
      metrics_(metrics),
      serial_(session_serial_counter.fetch_add(1) + 1) {
  sheet_.set_name(name_);
}

Status WorkbookSession::LogToWal(std::span<const Edit> edits,
                                 GroupCommitTicket* ticket) {
  if (edits.empty()) return Status::OK();
  if (wal_ == nullptr) {
    if (wal_path_.empty()) return Status::OK();  // WAL disabled.
    // Lazy creation: the header records the CURRENT bound path, so
    // recovery knows which snapshot these records extend.
    auto wal = WriteAheadLog::Create(wal_path_, wal_options_, {bound_path_});
    if (!wal.ok()) return wal.status();
    wal_ = std::move(*wal);
  }
  uint64_t before = wal_->bytes();
  TACO_RETURN_IF_ERROR(wal_->Append(edits, ticket));
  wal_live_records_ += 1;
  if (metrics_ != nullptr) {
    metrics_->storage().wal_records.fetch_add(1);
    metrics_->storage().wal_bytes.fetch_add(wal_->bytes() - before);
  }
  return Status::OK();
}

template <typename Fn>
Result<RecalcResult> WorkbookSession::Mutate(ServiceOp op,
                                             std::span<const Edit> edits,
                                             Fn&& fn) {
  auto start = SteadyNow();
  op_epoch_.fetch_add(1);
  // Phase timings for the trace span. Lock wait is measured explicitly
  // (queueing behind another writer is a real, reportable phase);
  // find/eval come from the recalc outcome, fsync from the WAL handle.
  uint64_t lock_wait_ns = 0;
  uint64_t publish_ns = 0;
  uint64_t wal_fsync_ns = 0;
  // Group commit: the append happens under mu_, but the durability wait
  // happens on this ticket AFTER mu_ is released, so other writers of
  // this session can get their records into the same flush round.
  GroupCommitTicket wal_ticket;
  uint64_t wal_epoch = 0;
  // A failed batch may still have applied (and recalculated) the edits
  // before the failing one — batches are not atomic — and that work must
  // show up in the session counters and metrics, not vanish with the
  // error. Single edits apply nothing on failure (partial stays zero).
  RecalcResult partial;
  Result<RecalcResult> result = [&]() -> Result<RecalcResult> {
    auto lock_start = SteadyNow();
    std::lock_guard<std::mutex> lock(mu_);
    lock_wait_ns = NsSince(lock_start);
    if (wal_failed_) {
      // An earlier append failed, so the log is missing acknowledged
      // edits. Accepting more would widen the gap silently; refuse until
      // a CHECKPOINT folds the unlogged state into a snapshot.
      return Status::DataLoss(
          "session '" + name_ +
          "' has edits the WAL could not record; mutations are refused "
          "until a successful CHECKPOINT re-establishes durability");
    }
    Result<RecalcResult> r = fn(&partial);
    const RecalcResult& outcome = r.ok() ? r.value() : partial;
    if (r.ok() || outcome.edits_applied > 0) ops_.fetch_add(1);
    // Only actual edits make the session dirty — a successful empty
    // batch must not force a pointless save.
    if (outcome.edits_applied > 0) {
      dirty_ = true;
      edits_ += outcome.edits_applied;
      recalc_passes_ += outcome.recalc_passes;
      dirty_cells_ += outcome.dirty_cells;
      waves_ += outcome.waves;
      max_wave_cells_ = std::max(max_wave_cells_, outcome.max_wave_cells);
      cells_skipped_ += outcome.cells_skipped_cutoff;
      // Durability before acknowledgement: the prefix of `edits` that
      // actually applied is logged before the result leaves the lock. A
      // batch that failed midway logs exactly its applied prefix, so
      // recovery replays what this session's state really contains.
      size_t applied = std::min<size_t>(outcome.edits_applied, edits.size());
      Status logged = LogToWal(edits.subspan(0, applied), &wal_ticket);
      // Timing is harvested only from a SUCCESSFUL append: a failed or
      // partial one must not attribute stale fsync time to this span.
      if (logged.ok() && wal_ != nullptr) wal_fsync_ns = wal_->last_sync_ns();
      // Publish the post-commit version even when logging failed: the
      // in-memory state DID change, and readers must see committed
      // state, not the pre-edit version of a sheet that moved on.
      auto publish_start = SteadyNow();
      PublishVersion(edits.subspan(0, applied), outcome);
      publish_ns = NsSince(publish_start);
      if (!logged.ok()) {
        // Applied in memory but not durable: the client must see an
        // error, not an acknowledgement the WAL cannot back — and the
        // session latches wal_failed_ so the gap cannot widen.
        wal_failed_ = true;
        return Status(logged.code(),
                      "edit applied but not logged: " + logged.message());
      }
      wal_epoch = checkpoint_epoch_;
    }
    return r;
  }();
  if (wal_ticket.armed()) {
    // The group-commit durability wait: mu_ is released, so concurrent
    // writers append behind the committer while this edit waits its
    // round. The ack below never outruns the flush — same contract as
    // the inline fsync, shared across every waiter of the round.
    auto wait_start = SteadyNow();
    Status flushed = wal_ticket.Wait();
    wal_fsync_ns = NsSince(wait_start);
    if (!flushed.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (checkpoint_epoch_ == wal_epoch) {
        // The flush failed and no checkpoint intervened: the applied
        // edit exists only in memory. Latch, and turn an OK outcome
        // into the same applied-but-not-logged error the inline path
        // reports (a failed batch keeps its own error; the latch still
        // guards the gap).
        wal_failed_ = true;
        if (result.ok()) {
          result = Status(flushed.code(), "edit applied but not logged: " +
                                              flushed.message());
        }
      }
      // Epoch moved: a successful checkpoint folded the edit into its
      // snapshot before the flush failed — the ack is backed by disk.
    }
  }
  if (metrics_ != nullptr) {
    const RecalcResult* outcome =
        result.ok() ? &result.value()
                    : (partial.edits_applied > 0 ? &partial : nullptr);
    uint64_t total_ns = NsSince(start);
    metrics_->Record(op, total_ns, result.ok(), outcome);

    obs::TraceSpan span;
    span.rid = obs::CurrentRid();
    span.op = ServiceOpName(op);
    span.session = name_;
    span.detail = MutationDetail(op, edits);
    span.ok = result.ok();
    span.total_ns = total_ns;
    span.lock_wait_ns = lock_wait_ns;
    span.publish_ns = publish_ns;
    span.wal_fsync_ns = wal_fsync_ns;
    if (outcome != nullptr) {
      span.find_dependents_ns = outcome->find_dependents_ns;
      span.eval_ns = outcome->eval_ns;
      span.dirty_cells = outcome->dirty_cells;
      span.waves = outcome->waves;
    }
    // The remainder: edit application, graph mutation, counter updates,
    // and the return path. Clamped — phases are measured independently
    // of the total, so rounding can put their sum a hair over it.
    uint64_t accounted = span.lock_wait_ns + span.find_dependents_ns +
                         span.eval_ns + span.publish_ns + span.wal_fsync_ns;
    span.respond_ns = total_ns > accounted ? total_ns - accounted : 0;

    if (logger_ != nullptr) {
      // The slow-op log event joins the trace span (same rid) so an
      // operator can pivot from either record to the other.
      uint64_t threshold = metrics_->trace().slow_threshold_ns();
      if (threshold > 0 && total_ns >= threshold) {
        logger_->Log(obs::LogLevel::kWarn, "op.slow",
                     {{"op", span.op},
                      {"session", name_},
                      {"detail", span.detail},
                      {"ok", span.ok},
                      {"total_us", total_ns / 1000},
                      {"dirty", span.dirty_cells},
                      {"waves", span.waves}});
      } else if (logger_->enabled(obs::LogLevel::kDebug)) {
        // Per-mutation debug event: the logging-overhead bench drives
        // this path; production sinks run at info and never build it.
        logger_->Log(obs::LogLevel::kDebug, "op.apply",
                     {{"op", span.op},
                      {"session", name_},
                      {"detail", span.detail},
                      {"ok", span.ok},
                      {"total_us", total_ns / 1000},
                      {"dirty", span.dirty_cells}});
      }
    }
    metrics_->trace().Record(std::move(span));
  }
  return result;
}

Result<RecalcResult> WorkbookSession::SetNumber(const Cell& cell,
                                                double value) {
  Edit edit = Edit::SetNumber(cell, value);
  return Mutate(ServiceOp::kSet, {&edit, 1}, [&](RecalcResult*) {
    return engine_.SetNumber(cell, value);
  });
}

Result<RecalcResult> WorkbookSession::SetText(const Cell& cell,
                                              std::string value) {
  Edit edit = Edit::SetText(cell, value);
  return Mutate(ServiceOp::kSet, {&edit, 1}, [&](RecalcResult*) {
    return engine_.SetText(cell, std::move(value));
  });
}

Result<RecalcResult> WorkbookSession::SetFormula(const Cell& cell,
                                                 std::string_view text) {
  Edit edit = Edit::SetFormula(cell, std::string(text));
  return Mutate(ServiceOp::kFormula, {&edit, 1}, [&](RecalcResult*) {
    return engine_.SetFormula(cell, text);
  });
}

Result<RecalcResult> WorkbookSession::ClearRange(const Range& range) {
  Edit edit = Edit::ClearRange(range);
  return Mutate(ServiceOp::kClear, {&edit, 1}, [&](RecalcResult*) {
    return engine_.ClearRange(range);
  });
}

Result<RecalcResult> WorkbookSession::ApplyBatch(const EditBatch& batch,
                                                 RecalcResult* partial) {
  return Mutate(ServiceOp::kBatch, batch, [&](RecalcResult* inner) {
    Result<RecalcResult> r = engine_.ApplyBatch(batch, inner);
    if (partial != nullptr) *partial = *inner;
    return r;
  });
}

RecalcEngine::ExplainInfo WorkbookSession::Explain(const Range& target) {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_.Explain(target);
}

void WorkbookSession::EnableParallelRecalc(RecalcScheduler* scheduler) {
  std::lock_guard<std::mutex> lock(mu_);
  engine_.set_scheduler(scheduler);
}

void WorkbookSession::SetCutoff(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  engine_.set_cutoff(enabled);
}

bool WorkbookSession::cutoff() const {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_.cutoff();
}

void WorkbookSession::PublishVersion(std::span<const Edit> applied,
                                     const RecalcResult& outcome) {
  std::vector<Range> touched = outcome.dirty;
  touched.reserve(touched.size() + applied.size());
  for (const Edit& edit : applied) {
    touched.push_back(edit.kind == Edit::Kind::kClearRange ? edit.range
                                                           : Range(edit.cell));
  }
  ++versions_published_;
  auto version = engine_.PublishVersion(touched);
  uint64_t id = version->id();
  {
    std::lock_guard<std::mutex> lock(published_mu_);
    published_.swap(version);
  }  // `version` now holds the previous one, released outside the lock.
  // The id is stored AFTER the pointer: a reader that sees the new id
  // and misses its thread-local cache copies published_ and gets this
  // version or a newer one, never an older one.
  published_id_.store(id, std::memory_order_release);
}

const ValueVersion* WorkbookSession::AcquireVersion() {
  uint64_t id = published_id_.load(std::memory_order_acquire);
  if (id == 0) {
    // Nothing published yet (fresh OPEN, LOAD or reload): publish the
    // full version now, once. First readers racing here serialize on the
    // lock, and all but one find it done on the re-check. A mutation
    // holding the lock publishes on its own, which the re-check sees too.
    std::lock_guard<std::mutex> lock(mu_);
    if (published_id_.load(std::memory_order_relaxed) == 0) {
      PublishVersion({}, RecalcResult{});
    }
    id = published_id_.load(std::memory_order_relaxed);
  }
  TlsVersionCache& cache = tls_version_cache;
  if (cache.session_serial == serial_ && cache.id == id) {
    return cache.version.get();
  }
  std::shared_ptr<const ValueVersion> version;
  {
    std::lock_guard<std::mutex> lock(published_mu_);
    version = published_;
  }
  cache.session_serial = serial_;
  cache.id = version->id();
  cache.version = std::move(version);  // The old entry drops unlocked.
  return cache.version.get();
}

Value WorkbookSession::GetValue(const Cell& cell) {
  auto start = SteadyNow();
  // Reads of an immutable chain: no evaluator-cache mutation, no waiting
  // behind a recalc.
  Value value = AcquireVersion()->Lookup(cell);
  reads_versioned_[ThreadReadShard() % kReadCountShards].v.fetch_add(
      1, std::memory_order_relaxed);
  if (metrics_ != nullptr) {
    // Error values (out-of-bounds reads, #CYCLE! and friends) count as
    // errors, so the STATS error column reflects what clients saw.
    metrics_->Record(ServiceOp::kGet, NsSince(start),
                     /*ok=*/!value.is_error());
  }
  return value;
}

RangeSnapshot WorkbookSession::GetRange(const Range& range) {
  auto start = SteadyNow();
  RangeSnapshot snapshot;
  bool any_error = false;
  auto append = [&](const Cell& cell, Value value) {
    if (value.is_blank()) return;
    if (value.is_error()) any_error = true;
    snapshot.values.emplace_back(cell, std::move(value));
  };
  // Every cell resolves against ONE version: a concurrent commit
  // publishes a new pointer but never mutates this one, so the values
  // below are a consistent cut even mid-recalc.
  const ValueVersion* version = AcquireVersion();
  snapshot.version = version->id();
  for (const Cell& cell : EnumerateCells(range)) {
    append(cell, version->Lookup(cell));
  }
  reads_versioned_[ThreadReadShard() % kReadCountShards].v.fetch_add(
      1, std::memory_order_relaxed);
  if (metrics_ != nullptr) {
    metrics_->Record(ServiceOp::kGetRange, NsSince(start),
                     /*ok=*/!any_error);
  }
  return snapshot;
}

std::string WorkbookSession::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return WriteSheetText(sheet_);
}

void WorkbookSession::ArmWal(std::string wal_path, WalOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  wal_path_ = std::move(wal_path);
  wal_options_ = options;
}

void WorkbookSession::AdoptWal(std::unique_ptr<WriteAheadLog> wal,
                               const WalRecovery& recovery) {
  std::lock_guard<std::mutex> lock(mu_);
  wal_path_ = wal->path();
  wal_ = std::move(wal);
  wal_live_records_ = recovery.records;
  recovered_records_ = recovery.records;
  // Replayed records postdate the snapshot: until the next checkpoint
  // folds them in, this session has state only the WAL holds.
  if (recovery.records > 0) dirty_ = true;
}

Status WorkbookSession::Save(const std::string& path, ServiceOp op) {
  auto start = SteadyNow();
  Status status = [&] {
    std::lock_guard<std::mutex> lock(mu_);
    std::string target = path.empty() ? bound_path_ : path;
    if (target.empty()) {
      return Status::InvalidArgument("session '" + name_ +
                                     "' has no bound path; pass one to SAVE");
    }
    TACO_RETURN_IF_ERROR(SaveSheetBinaryFile(sheet_, target));
    // Rotate the WAL: its records are now folded into the snapshot, and
    // the fresh header names it so recovery starts from the right base.
    // A failed rotation is surfaced as the checkpoint's error — and
    // only a FULLY successful checkpoint updates the session state, so
    // STORAGE never reports clean-with-live-records. It is NOT a
    // lost-data state either way: the old log simply replays onto the
    // OLD snapshot path it names, reproducing the acknowledged state.
    if (wal_ != nullptr) {
      TACO_RETURN_IF_ERROR(wal_->Rotate({target}));
      wal_live_records_ = 0;
    } else if (!wal_path_.empty()) {
      // Nothing logged yet, but a stale file from a previous incarnation
      // may exist (e.g. recovery was skipped by a LOAD); re-point it.
      auto wal = WriteAheadLog::Create(wal_path_, wal_options_, {target});
      if (!wal.ok()) return wal.status();
      wal_ = std::move(*wal);
      wal_live_records_ = 0;
    }
    bound_path_ = target;
    dirty_ = false;
    // A full checkpoint re-establishes the recovery contract: the new
    // snapshot contains every in-memory edit (logged or not) and the
    // rotated log extends it, so the data-loss latch can clear. The
    // epoch bump tells racing group-flush waiters their edit is safe in
    // this snapshot even if their flush comes back failed.
    wal_failed_ = false;
    ++checkpoint_epoch_;
    if (metrics_ != nullptr) metrics_->storage().checkpoints.fetch_add(1);
    return Status::OK();
  }();
  if (metrics_ != nullptr) {
    metrics_->Record(op, NsSince(start), status.ok());
  }
  if (logger_ != nullptr) {
    if (status.ok()) {
      logger_->Log(obs::LogLevel::kInfo, "session.checkpoint",
                   {{"session", name_},
                    {"op", ServiceOpName(op)},
                    {"path", bound_path()}});
    } else {
      logger_->Log(obs::LogLevel::kError, "session.checkpoint_failed",
                   {{"session", name_},
                    {"op", ServiceOpName(op)},
                    {"error", status.message()}});
    }
  }
  return status;
}

std::string WorkbookSession::bound_path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bound_path_;
}

void WorkbookSession::BindPath(std::string path) {
  std::lock_guard<std::mutex> lock(mu_);
  bound_path_ = std::move(path);
}

SessionStats WorkbookSession::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionStats stats;
  stats.name = name_;
  stats.path = bound_path_;
  stats.cells = sheet_.cell_count();
  stats.formula_cells = sheet_.formula_cell_count();
  stats.graph_vertices = graph_.NumVertices();
  stats.graph_edges = graph_.NumEdges();
  // Mutations count into ops_ directly; reads are folded in from their
  // own counters so the read path never touches a second shared line.
  uint64_t reads_versioned = 0;
  for (const PaddedCount& shard : reads_versioned_) {
    reads_versioned += shard.v.load(std::memory_order_relaxed);
  }
  stats.ops = ops_.load(std::memory_order_relaxed) + reads_versioned;
  stats.edits = edits_;
  stats.recalc_passes = recalc_passes_;
  stats.dirty_cells = dirty_cells_;
  stats.dirty = dirty_;
  stats.waves = waves_;
  stats.max_wave_cells = max_wave_cells_;
  stats.cutoff = engine_.cutoff();
  stats.cells_skipped = cells_skipped_;
  stats.wal_path = wal_path_;
  stats.wal_records = wal_live_records_;
  stats.wal_bytes = wal_ != nullptr ? wal_->bytes() : 0;
  stats.recovered_records = recovered_records_;
  stats.wal_failed = wal_failed_;
  const auto& version = published_;  // Only ever written under mu_.
  stats.version = version != nullptr ? version->id() : 0;
  stats.version_chain_depth = version != nullptr ? version->depth() : 0;
  stats.versions_published = versions_published_;
  stats.reads_versioned = reads_versioned;
  return stats;
}

}  // namespace taco
