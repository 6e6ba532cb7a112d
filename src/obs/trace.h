// Per-command trace spans: where one mutating command's time went.
//
// A latency histogram says *that* p99 moved; a span says *why*: each
// mutating command records a phase breakdown — lock wait, FindDependents
// (the paper's graph query), wave evaluation, version publish, WAL fsync,
// respond — into a fixed-size ring. The two graph phases are deliberately
// separate quantities: FindDependents cost is a property of the formula
// graph representation (the paper's subject) while evaluation cost is a
// property of the recompute strategy, and an operator tuning one must be
// able to see it apart from the other.
//
// The ring is a per-service, mutex-guarded circular buffer. Mutating
// commands already serialize per session and run at edit rate (not the
// lock-free read rate), so a short critical section per span is noise;
// the read path never records spans. TRACE <n> dumps the newest spans,
// and a slow-op threshold mirrors any span over it to stderr as one
// structured line — the "why was that edit slow" record that survives
// even when nobody was scraping.

#ifndef TACO_OBS_TRACE_H_
#define TACO_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace taco::obs {

/// One completed command's breakdown. All times in integer nanoseconds;
/// phases are disjoint and sum to at most total_ns (respond_ns absorbs
/// the remainder: result formatting and the return path to the caller).
struct TraceSpan {
  uint64_t seq = 0;          ///< Ring-assigned, monotonic per service.
  uint64_t rid = 0;          ///< Request correlation id; 0 = none.
  std::string op;            ///< Protocol verb ("SET", "BATCH", ...).
  std::string session;       ///< Session name.
  std::string detail;        ///< Cell/range text, or edit count for BATCH.
  bool ok = true;
  uint64_t total_ns = 0;
  uint64_t lock_wait_ns = 0;        ///< Queueing behind the session mutex.
  uint64_t find_dependents_ns = 0;  ///< Graph query (dirty-set identify).
  uint64_t eval_ns = 0;             ///< Re-evaluation (serial or waves).
  uint64_t publish_ns = 0;          ///< MVCC version build + publish.
  uint64_t wal_fsync_ns = 0;        ///< Durability wait: the inline WAL
                                    ///  fsync, or — under group commit —
                                    ///  the wait for the shared flush.
  uint64_t respond_ns = 0;          ///< Everything else (ack path).
  uint64_t dirty_cells = 0;
  uint64_t waves = 0;               ///< 0 = serial-inline evaluation.

  /// Single-line structured rendering ("span seq=3 op=SET ... total_us=…"),
  /// used verbatim by TRACE responses and the slow-op stderr log. Integer
  /// microseconds: coarse enough to read, fine enough for a 5µs phase.
  std::string ToLine() const;
};

/// Fixed-capacity ring of the most recent spans. Thread-safe.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity = 256);

  /// Stores `span` (assigning its seq), evicting the oldest when full.
  /// When a slow threshold is set and total_ns reaches it, the span is
  /// also written to stderr as one ToLine() record.
  void Record(TraceSpan span);

  /// The newest `n` spans, newest first. n = 0 returns everything held.
  std::vector<TraceSpan> Newest(size_t n) const;

  /// Slow-op mirror threshold in nanoseconds; 0 disables (default).
  void set_slow_threshold_ns(uint64_t ns) {
    slow_threshold_ns_.store(ns, std::memory_order_relaxed);
  }
  uint64_t slow_threshold_ns() const {
    return slow_threshold_ns_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }
  /// Spans ever recorded (not just those still held).
  uint64_t recorded() const;
  /// Spans evicted by ring wrap-around — the ring's silent-loss
  /// counter, surfaced in STATS and the Prometheus exposition.
  uint64_t overwritten() const;

 private:
  const size_t capacity_;
  std::atomic<uint64_t> slow_threshold_ns_{0};
  mutable std::mutex mu_;
  std::vector<TraceSpan> ring_;  ///< Circular once full.
  uint64_t next_seq_ = 1;        ///< Also: count of spans ever recorded + 1.
};

}  // namespace taco::obs

#endif  // TACO_OBS_TRACE_H_
