#include "service/exposition.h"

#include <string>
#include <vector>

#include "obs/exposition.h"
#include "obs/histogram.h"
#include "obs/log.h"
#include "obs/process_stats.h"
#include "service/metrics.h"
#include "service/workbook_service.h"

namespace taco {
namespace {

using obs::Labels;
using obs::PromBuilder;

constexpr size_t kOps = static_cast<size_t>(ServiceOp::kOpCount);

/// The ops whose recalc aggregates are meaningful (fixed list so the
/// exposition layout never depends on traffic).
constexpr ServiceOp kMutatingOps[] = {ServiceOp::kSet, ServiceOp::kFormula,
                                      ServiceOp::kClear, ServiceOp::kBatch};

std::string OpLabel(ServiceOp op) { return std::string(ServiceOpName(op)); }

}  // namespace

std::string RenderServiceExposition(WorkbookService& service) {
  ServiceMetrics& metrics = service.metrics();
  PromBuilder b;

  // Per-op aggregates, snapshotted once and reused by every family.
  std::vector<obs::HistogramSnapshot> hists(kOps);
  std::vector<OpStats> stats(kOps);
  for (size_t i = 0; i < kOps; ++i) {
    auto op = static_cast<ServiceOp>(i);
    hists[i] = metrics.Histogram(op);
    stats[i] = metrics.Get(op);
  }

  b.Family("taco_op_latency_seconds",
           "Operation wall-clock latency (includes lock wait).",
           "histogram");
  for (size_t i = 0; i < kOps; ++i) {
    b.Histogram("taco_op_latency_seconds",
                {{"op", OpLabel(static_cast<ServiceOp>(i))}}, hists[i]);
  }

  // Precomputed quantiles as a SEPARATE gauge family: Prometheus forbids
  // mixing summary-style quantile series into a histogram family of the
  // same name, and scrapers without histogram math still want p99.
  b.Family("taco_op_latency_quantile_seconds",
           "Interpolated latency quantiles from the op histogram.",
           "gauge");
  static constexpr struct { double q; const char* label; } kQuantiles[] = {
      {0.50, "0.5"}, {0.95, "0.95"}, {0.99, "0.99"}};
  for (size_t i = 0; i < kOps; ++i) {
    for (const auto& [q, label] : kQuantiles) {
      b.Sample("taco_op_latency_quantile_seconds",
               {{"op", OpLabel(static_cast<ServiceOp>(i))},
                {"quantile", label}},
               hists[i].QuantileNs(q) / 1e9);
    }
  }

  b.Family("taco_ops_total", "Operations served, by op.", "counter");
  for (size_t i = 0; i < kOps; ++i) {
    b.Sample("taco_ops_total", {{"op", OpLabel(static_cast<ServiceOp>(i))}},
             static_cast<double>(stats[i].count));
  }

  b.Family("taco_op_errors_total", "Operations that returned an error.",
           "counter");
  for (size_t i = 0; i < kOps; ++i) {
    b.Sample("taco_op_errors_total",
             {{"op", OpLabel(static_cast<ServiceOp>(i))}},
             static_cast<double>(stats[i].errors));
  }

  b.Family("taco_recalc_dirty_cells_total",
           "Dirty formula cells identified by FindDependents.", "counter");
  for (ServiceOp op : kMutatingOps) {
    b.Sample("taco_recalc_dirty_cells_total", {{"op", OpLabel(op)}},
             static_cast<double>(stats[static_cast<size_t>(op)].dirty_cells));
  }

  b.Family("taco_recalc_find_dependents_seconds_total",
           "Time spent in the formula-graph dependents query.", "counter");
  for (ServiceOp op : kMutatingOps) {
    b.Sample("taco_recalc_find_dependents_seconds_total",
             {{"op", OpLabel(op)}},
             stats[static_cast<size_t>(op)].find_dependents_ms / 1e3);
  }

  b.Family("taco_recalc_eval_seconds_total",
           "Time spent re-evaluating dirty formulas.", "counter");
  for (ServiceOp op : kMutatingOps) {
    b.Sample("taco_recalc_eval_seconds_total", {{"op", OpLabel(op)}},
             stats[static_cast<size_t>(op)].eval_ms / 1e3);
  }

  b.Family("taco_recalc_cells_skipped_total",
           "Dirty formula cells pruned by value-change cutoff (prior value "
           "restored instead of re-evaluated).",
           "counter");
  uint64_t skipped_all = 0;
  uint64_t recalculated_all = 0;
  for (ServiceOp op : kMutatingOps) {
    const OpStats& os = stats[static_cast<size_t>(op)];
    skipped_all += os.cells_skipped;
    recalculated_all += os.recalculated;
    b.Sample("taco_recalc_cells_skipped_total", {{"op", OpLabel(op)}},
             static_cast<double>(os.cells_skipped));
  }
  // The headline cutoff win as a ready-made ratio: skipped / (skipped +
  // evaluated) across all mutating ops. 0 when cutoff never pruned.
  b.Family("taco_recalc_skipped_fraction",
           "Fraction of dirty formula cells cutoff pruned instead of "
           "re-evaluating, over the service lifetime.",
           "gauge");
  b.Sample("taco_recalc_skipped_fraction", {},
           skipped_all + recalculated_all > 0
               ? static_cast<double>(skipped_all) /
                     static_cast<double>(skipped_all + recalculated_all)
               : 0.0);

  const TransportCounters& t = metrics.transport();
  b.Family("taco_transport_connections_accepted_total",
           "Socket connections ever accepted.", "counter");
  b.Sample("taco_transport_connections_accepted_total", {},
           static_cast<double>(t.accepted.load(std::memory_order_relaxed)));
  b.Family("taco_transport_connections_rejected_total",
           "Connections refused over the client cap.", "counter");
  b.Sample("taco_transport_connections_rejected_total", {},
           static_cast<double>(t.rejected.load(std::memory_order_relaxed)));
  b.Family("taco_transport_connections_open",
           "Currently attached socket clients.", "gauge");
  b.Sample("taco_transport_connections_open", {},
           static_cast<double>(t.open.load(std::memory_order_relaxed)));
  b.Family("taco_transport_commands_total",
           "Framed commands dispatched (sockets and stdin).", "counter");
  b.Sample("taco_transport_commands_total", {},
           static_cast<double>(t.commands.load(std::memory_order_relaxed)));
  b.Family("taco_transport_oversized_lines_total",
           "Lines dropped for exceeding the length cap.", "counter");
  b.Sample("taco_transport_oversized_lines_total", {},
           static_cast<double>(t.oversized.load(std::memory_order_relaxed)));
  b.Family("taco_transport_idle_closed_total",
           "Connections closed by the idle timeout.", "counter");
  b.Sample("taco_transport_idle_closed_total", {},
           static_cast<double>(t.idle_closed.load(std::memory_order_relaxed)));

  const StorageCounters& s = metrics.storage();
  b.Family("taco_storage_checkpoints_total",
           "Snapshot-and-rotate checkpoints completed.", "counter");
  b.Sample("taco_storage_checkpoints_total", {},
           static_cast<double>(s.checkpoints.load(std::memory_order_relaxed)));
  b.Family("taco_storage_wal_records_total", "WAL records ever appended.",
           "counter");
  b.Sample("taco_storage_wal_records_total", {},
           static_cast<double>(s.wal_records.load(std::memory_order_relaxed)));
  b.Family("taco_storage_wal_bytes_total", "WAL bytes ever appended.",
           "counter");
  b.Sample("taco_storage_wal_bytes_total", {},
           static_cast<double>(s.wal_bytes.load(std::memory_order_relaxed)));
  b.Family("taco_storage_recoveries_total",
           "Sessions recovered from snapshot + WAL tail.", "counter");
  b.Sample("taco_storage_recoveries_total", {},
           static_cast<double>(s.recoveries.load(std::memory_order_relaxed)));
  b.Family("taco_storage_recovered_records_total",
           "WAL records replayed during recovery.", "counter");
  b.Sample(
      "taco_storage_recovered_records_total", {},
      static_cast<double>(s.recovered_records.load(std::memory_order_relaxed)));

  // Group-commit families. All zero (but present) without --group-commit,
  // so dashboards never have to special-case the flag.
  const WalGroupCounters& g = metrics.wal_group();
  b.Family("taco_wal_group_flushes_total",
           "Group-commit fsync rounds completed (one per file per round).",
           "counter");
  b.Sample("taco_wal_group_flushes_total", {},
           static_cast<double>(g.flushes.load(std::memory_order_relaxed)));
  b.Family("taco_wal_group_flush_failures_total",
           "Group-commit rounds whose fsync failed.", "counter");
  b.Sample(
      "taco_wal_group_flush_failures_total", {},
      static_cast<double>(g.flush_failures.load(std::memory_order_relaxed)));
  b.Family("taco_wal_group_appends_total",
           "WAL appends acknowledged through a group flush.", "counter");
  b.Sample("taco_wal_group_appends_total", {},
           static_cast<double>(g.appends.load(std::memory_order_relaxed)));
  b.Family("taco_wal_group_flush_seconds",
           "Latency of one group fsync round.", "histogram");
  b.Histogram("taco_wal_group_flush_seconds", {},
              metrics.GroupFlushHistogram());
  // Appends-per-flush as a hand-rendered power-of-two histogram: the
  // direct measure of coalescing (count≈sum means no batching; a fat
  // le="8".."64" tail means sessions genuinely share fsyncs). Buckets are
  // cumulative per the exposition format; _sum is total appends and
  // _count total flushes, so sum/count is the mean group size.
  b.Family("taco_wal_group_size", "WAL appends coalesced per group flush.",
           "histogram");
  uint64_t size_cumulative = 0;
  for (size_t i = 0; i <= WalGroupCounters::kSizeBuckets; ++i) {
    size_cumulative += g.size_buckets[i].load(std::memory_order_relaxed);
    std::string le = i < WalGroupCounters::kSizeBuckets
                         ? std::to_string(uint64_t{1} << i)
                         : "+Inf";
    b.Sample("taco_wal_group_size_bucket", {{"le", le}},
             static_cast<double>(size_cumulative));
  }
  b.Sample("taco_wal_group_size_sum", {},
           static_cast<double>(g.appends.load(std::memory_order_relaxed)));
  b.Sample("taco_wal_group_size_count", {},
           static_cast<double>(g.flushes.load(std::memory_order_relaxed)));

  b.Family("taco_sessions_resident", "Sessions resident in memory.", "gauge");
  b.Sample("taco_sessions_resident", {},
           static_cast<double>(service.resident_sessions()));
  b.Family("taco_sessions_parked",
           "Sessions parked to disk by the residency bound.", "gauge");
  b.Sample("taco_sessions_parked", {},
           static_cast<double>(service.parked_sessions()));
  b.Family("taco_sessions_evicted_total",
           "Sessions ever saved-and-parked by the LRU bound.", "counter");
  b.Sample("taco_sessions_evicted_total", {},
           static_cast<double>(service.evictions()));

  b.Family("taco_trace_spans_total", "Command trace spans ever recorded.",
           "counter");
  b.Sample("taco_trace_spans_total", {},
           static_cast<double>(metrics.trace().recorded()));
  b.Family("taco_trace_spans_overwritten_total",
           "Trace spans lost to ring overwrite (recorded - capacity).",
           "counter");
  b.Sample("taco_trace_spans_overwritten_total", {},
           static_cast<double>(metrics.trace().overwritten()));

  // Structured-log loss visibility: the sink is bounded and drop-on-full
  // by design, so the drop counter IS the alert signal. Both series
  // render as 0 when no logger is configured — the scrape layout never
  // depends on flags.
  const obs::Logger* logger = service.logger();
  b.Family("taco_log_events_total",
           "Structured log events accepted into the sink queue.",
           "counter");
  b.Sample("taco_log_events_total", {},
           logger != nullptr
               ? static_cast<double>(logger->events_logged())
               : 0.0);
  b.Family("taco_log_dropped_total",
           "Structured log events dropped because the queue was full.",
           "counter");
  b.Sample("taco_log_dropped_total", {},
           logger != nullptr
               ? static_cast<double>(logger->events_dropped())
               : 0.0);

  // Process introspection (-1 on non-Linux / read failure).
  obs::ProcessStats proc = obs::SampleProcessStats();
  b.Family("taco_process_resident_memory_bytes",
           "Resident set size of this process.", "gauge");
  b.Sample("taco_process_resident_memory_bytes", {},
           static_cast<double>(proc.rss_bytes));
  b.Family("taco_process_open_fds",
           "Open file descriptors held by this process.", "gauge");
  b.Sample("taco_process_open_fds", {},
           static_cast<double>(proc.open_fds));
  b.Family("taco_process_threads", "Threads in this process.", "gauge");
  b.Sample("taco_process_threads", {}, static_cast<double>(proc.threads));
  b.Family("taco_process_uptime_seconds",
           "Seconds since this process started.", "gauge");
  b.Sample("taco_process_uptime_seconds", {}, proc.uptime_seconds);

  // Per-session gauges, from a read-only snapshot of the resident set:
  // a scrape must not re-stamp LRU ticks, run eviction, or reload a
  // parked session. The snapshot is sorted by name, so the series order
  // is deterministic for a given session population.
  struct SessionRow {
    std::string name;
    SessionStats stats;
  };
  std::vector<SessionRow> rows;
  for (const auto& session : service.ResidentSessions()) {
    rows.push_back({session->name(), session->Stats()});
  }
  b.Family("taco_session_cells", "Non-blank cells in the session sheet.",
           "gauge");
  for (const auto& row : rows) {
    b.Sample("taco_session_cells", {{"session", row.name}},
             static_cast<double>(row.stats.cells));
  }
  b.Family("taco_session_formula_cells", "Formula cells in the session sheet.",
           "gauge");
  for (const auto& row : rows) {
    b.Sample("taco_session_formula_cells", {{"session", row.name}},
             static_cast<double>(row.stats.formula_cells));
  }
  b.Family("taco_session_graph_edges",
           "Dependency edges in the session formula graph.", "gauge");
  for (const auto& row : rows) {
    b.Sample("taco_session_graph_edges", {{"session", row.name}},
             static_cast<double>(row.stats.graph_edges));
  }
  b.Family("taco_session_version_chain_depth",
           "Delta links behind the latest published version (1 = full "
           "snapshot).",
           "gauge");
  for (const auto& row : rows) {
    b.Sample("taco_session_version_chain_depth", {{"session", row.name}},
             static_cast<double>(row.stats.version_chain_depth));
  }
  b.Family("taco_session_version", "Latest published MVCC version id.",
           "gauge");
  for (const auto& row : rows) {
    b.Sample("taco_session_version", {{"session", row.name}},
             static_cast<double>(row.stats.version));
  }
  b.Family("taco_session_versions_published_total",
           "MVCC versions published over the session lifetime.", "counter");
  for (const auto& row : rows) {
    b.Sample("taco_session_versions_published_total",
             {{"session", row.name}},
             static_cast<double>(row.stats.versions_published));
  }
  b.Family("taco_session_wal_bytes", "Current WAL file size.", "gauge");
  for (const auto& row : rows) {
    b.Sample("taco_session_wal_bytes", {{"session", row.name}},
             static_cast<double>(row.stats.wal_bytes));
  }
  b.Family("taco_session_reads_versioned_total",
           "Reads served lock-free from a published version.", "counter");
  for (const auto& row : rows) {
    b.Sample("taco_session_reads_versioned_total", {{"session", row.name}},
             static_cast<double>(row.stats.reads_versioned));
  }

  return std::move(b).Finish();
}

}  // namespace taco
