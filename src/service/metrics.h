// Service-level operation metrics.
//
// Every session operation records its wall-clock latency (including lock
// wait, so contention shows up) into a lock-free log-bucketed histogram —
// one per ServiceOp — so STATS and the Prometheus exposition can report
// p50/p95/p99/max, not just a mean that hides tail behavior. Mutating
// operations additionally record the recalc outcome: dirty-set size and
// FindDependents time — the quantity the paper's latency budget is about.
// A TraceRing holds the most recent per-command phase breakdowns.

#ifndef TACO_SERVICE_METRICS_H_
#define TACO_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "eval/recalc.h"
#include "obs/histogram.h"
#include "obs/trace.h"

namespace taco {

/// The operations the service meters, one row of STATS each.
enum class ServiceOp : uint8_t {
  kOpen = 0,
  kLoad,
  kSave,
  kClose,
  kSet,       ///< SetNumber / SetText
  kFormula,
  kGet,
  kGetRange,  ///< Bulk versioned read (GETRANGE).
  kClear,
  kBatch,
  kRecalc,      ///< RECALC admin verb.
  kCheckpoint,  ///< CHECKPOINT admin verb (snapshot + WAL rotate).
  kStats,       ///< STATS admin verb.
  kStorage,     ///< STORAGE admin verb.
  kList,        ///< LIST admin verb.
  kMetrics,     ///< METRICS exposition verb (+ HTTP /metrics scrapes).
  kTrace,       ///< TRACE span-dump verb.
  kExplain,     ///< EXPLAIN recalc-plan dry-run verb.
  kOpCount,     ///< Sentinel; not an operation.
};

std::string_view ServiceOpName(ServiceOp op);

/// Latency + recalc aggregates for one ServiceOp. Latency figures are
/// derived from the op's histogram snapshot; quantiles interpolate
/// within log buckets (~26% bucket ratio).
struct OpStats {
  uint64_t count = 0;
  uint64_t errors = 0;
  double total_ms = 0;
  double max_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  uint64_t dirty_cells = 0;           ///< Sum of per-op dirty-set sizes.
  uint64_t max_dirty_cells = 0;
  uint64_t recalculated = 0;
  uint64_t recalc_passes = 0;
  double find_dependents_ms = 0;
  double eval_ms = 0;                 ///< Re-evaluation phase time.
  uint64_t waves = 0;                 ///< Scheduler waves executed.
  uint64_t cells_skipped = 0;         ///< Cells pruned by cutoff recalc.

  double MeanMs() const { return count ? total_ms / double(count) : 0; }
};

/// Transport counters, bumped lock-free by taco_net's SocketServer (the
/// connection fields) and by every CommandFramer (commands, oversized
/// lines; stdin included), rendered on the service-wide STATS report.
struct TransportCounters {
  std::atomic<uint64_t> accepted{0};      ///< Connections ever accepted.
  std::atomic<uint64_t> rejected{0};      ///< Refused over max-clients.
  std::atomic<int64_t> open{0};           ///< Currently attached clients.
  std::atomic<uint64_t> commands{0};      ///< Framed commands dispatched.
  std::atomic<uint64_t> oversized{0};     ///< Lines dropped for length.
  std::atomic<uint64_t> idle_closed{0};   ///< Closed by the idle timeout.
};

/// Storage-layer counters, bumped lock-free by sessions (WAL appends,
/// checkpoints) and the service (recoveries), rendered on the
/// service-wide STATS report. All zero when persistence is never used.
struct StorageCounters {
  std::atomic<uint64_t> checkpoints{0};        ///< Snapshot+rotate saves.
  std::atomic<uint64_t> wal_records{0};        ///< Records ever appended.
  std::atomic<uint64_t> wal_bytes{0};          ///< Bytes ever appended.
  std::atomic<uint64_t> recoveries{0};         ///< Sessions recovered.
  std::atomic<uint64_t> recovered_records{0};  ///< Records replayed.
};

/// Group-commit counters, bumped by the committer thread's flush
/// observer. `size_buckets` is a power-of-two histogram of appends per
/// flush (le 1,2,4,8,16,32,64,+Inf) — the direct measure of how much
/// coalescing the workload is getting. All zero without --group-commit.
struct WalGroupCounters {
  static constexpr size_t kSizeBuckets = 7;  ///< le 1,2,4,...,64; +Inf extra.
  std::atomic<uint64_t> flushes{0};          ///< Group fsync rounds.
  std::atomic<uint64_t> flush_failures{0};   ///< Rounds whose fsync failed.
  std::atomic<uint64_t> appends{0};          ///< Appends acked via groups.
  std::atomic<uint64_t> size_buckets[kSizeBuckets + 1]{};
};

/// Thread-safe metrics sink shared by every session of a service.
class ServiceMetrics {
 public:
  explicit ServiceMetrics(size_t trace_capacity = 256)
      : trace_(trace_capacity) {}

  /// Records one completed operation taking `elapsed_ns` wall-clock
  /// nanoseconds; `result` adds recalc aggregates for mutating ops (pass
  /// nullptr for reads / failed ops). The latency sample and error count
  /// go to lock-free per-op structures on EVERY path: the MVCC read path
  /// serves millions of ops/s across threads, and funneling them through
  /// mu_ would serialize the very path that exists to avoid a lock. Only
  /// the recalc aggregates (edit-rate, result != nullptr) take mu_.
  void Record(ServiceOp op, uint64_t elapsed_ns, bool ok,
              const RecalcResult* result = nullptr);

  /// Snapshot of one op's aggregates (quantiles from the histogram).
  OpStats Get(ServiceOp op) const;

  /// Merged histogram snapshot for one op, for exposition rendering.
  obs::HistogramSnapshot Histogram(ServiceOp op) const {
    return histograms_[static_cast<size_t>(op)].Snapshot();
  }

  /// Fixed-width text report, one line per op with traffic (for STATS).
  std::string Report() const;

  obs::TraceRing& trace() { return trace_; }
  const obs::TraceRing& trace() const { return trace_; }

  TransportCounters& transport() { return transport_; }
  const TransportCounters& transport() const { return transport_; }

  StorageCounters& storage() { return storage_; }
  const StorageCounters& storage() const { return storage_; }

  WalGroupCounters& wal_group() { return wal_group_; }
  const WalGroupCounters& wal_group() const { return wal_group_; }

  /// Records one group-commit flush round: `appends` records shared the
  /// fsync that took `flush_ns`. Lock-free (committer-thread hot path).
  void RecordGroupFlush(uint64_t appends, uint64_t flush_ns, bool ok) {
    wal_group_.flushes.fetch_add(1, std::memory_order_relaxed);
    if (!ok) wal_group_.flush_failures.fetch_add(1, std::memory_order_relaxed);
    wal_group_.appends.fetch_add(appends, std::memory_order_relaxed);
    size_t bucket = 0;
    while (bucket < WalGroupCounters::kSizeBuckets &&
           appends > (uint64_t{1} << bucket)) {
      ++bucket;
    }
    wal_group_.size_buckets[bucket].fetch_add(1, std::memory_order_relaxed);
    wal_group_flush_.Record(flush_ns);
  }

  /// Merged flush-latency histogram snapshot (group fsync rounds).
  obs::HistogramSnapshot GroupFlushHistogram() const {
    return wal_group_flush_.Snapshot();
  }

 private:
  /// Per-op recalc aggregates (mutating ops only); latency lives in the
  /// histograms, never here.
  struct RecalcStats {
    uint64_t dirty_cells = 0;
    uint64_t max_dirty_cells = 0;
    uint64_t recalculated = 0;
    uint64_t recalc_passes = 0;
    double find_dependents_ms = 0;
    double eval_ms = 0;
    uint64_t waves = 0;
    uint64_t cells_skipped = 0;
  };

  static constexpr size_t kOps = static_cast<size_t>(ServiceOp::kOpCount);

  std::array<obs::LatencyHistogram, kOps> histograms_;
  std::array<std::atomic<uint64_t>, kOps> errors_{};
  mutable std::mutex mu_;
  std::array<RecalcStats, kOps> recalc_;
  obs::TraceRing trace_;
  TransportCounters transport_;
  StorageCounters storage_;
  WalGroupCounters wal_group_;
  obs::LatencyHistogram wal_group_flush_;  ///< Per-round fsync latency.
};

}  // namespace taco

#endif  // TACO_SERVICE_METRICS_H_
