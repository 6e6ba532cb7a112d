#include "layers.h"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "graph/nocomp_graph.h"
#include "sheet/textio.h"
#include "stats.h"
#include "taco/taco_graph.h"

namespace taco::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One Prometheus sample line: name{labels} value.
struct Sample {
  std::string name;
  std::string labels;
  double value = 0;
};

/// A METRICS response parsed into samples.
class Scrape {
 public:
  explicit Scrape(const std::string& text) {
    size_t pos = 0;
    while (pos < text.size()) {
      size_t end = text.find('\n', pos);
      if (end == std::string::npos) end = text.size();
      std::string_view line(text.data() + pos, end - pos);
      pos = end + 1;
      if (line.empty() || line.front() == '#' || line.starts_with("OK ") ||
          line == "END") {
        continue;
      }
      size_t space = line.rfind(' ');
      if (space == std::string_view::npos) continue;
      Sample sample;
      std::string_view key = line.substr(0, space);
      size_t brace = key.find('{');
      sample.name = std::string(key.substr(0, brace));
      if (brace != std::string_view::npos) {
        sample.labels = std::string(key.substr(brace));
      }
      std::string_view number = line.substr(space + 1);
      std::from_chars(number.data(), number.data() + number.size(),
                      sample.value);
      samples_.push_back(std::move(sample));
    }
  }

  /// Sum of every `name` sample whose labels contain `label`.
  double Sum(std::string_view name, std::string_view label = "") const {
    double sum = 0;
    for (const Sample& s : samples_) {
      if (s.name == name && s.labels.find(label) != std::string::npos) {
        sum += s.value;
      }
    }
    return sum;
  }

  /// Count of `name` samples (e.g. one per session for a gauge).
  size_t Count(std::string_view name) const {
    size_t n = 0;
    for (const Sample& s : samples_) n += s.name == name ? 1 : 0;
    return n;
  }

 private:
  std::vector<Sample> samples_;
};

constexpr const char* kMutatingOps[] = {"SET", "FORMULA", "CLEAR", "BATCH"};

double MutatingOps(const Scrape& scrape) {
  double n = 0;
  for (const char* op : kMutatingOps) {
    n += scrape.Sum("taco_ops_total", std::string("op=\"") + op + "\"");
  }
  return n;
}

/// Server-side mean latency of `op` in microseconds, from the op
/// histogram's _sum/_count.
double ServerMeanUs(const Scrape& scrape, const char* op) {
  std::string label = std::string("op=\"") + op + "\"";
  double count = scrape.Sum("taco_op_latency_seconds_count", label);
  return count > 0
             ? scrape.Sum("taco_op_latency_seconds_sum", label) / count * 1e6
             : 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t ParseField(std::string_view line, std::string_view key) {
  std::string pattern(" ");
  pattern.append(key).push_back('=');
  size_t at = line.find(pattern);
  if (at == std::string_view::npos) return 0;
  uint64_t value = 0;
  const char* begin = line.data() + at + pattern.size();
  std::from_chars(begin, line.data() + line.size(), value);
  return value;
}

template <typename Field>
std::vector<double> Column(const std::vector<SpanLine>& spans, Field field) {
  std::vector<double> out;
  out.reserve(spans.size());
  for (const SpanLine& span : spans) {
    out.push_back(static_cast<double>(span.*field));
  }
  return out;
}

/// Median of `reps` timings of `fn`, in microseconds.
template <typename Fn>
double MedianUs(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    auto start = Clock::now();
    fn();
    times.push_back(MsSince(start) * 1e3);
  }
  return Quantile(times, 0.5);
}

}  // namespace

Result<std::vector<SpanLine>> ReadSpans(const std::string& stderr_path) {
  std::ifstream in(stderr_path);
  if (!in) return Status::IoError("cannot read '" + stderr_path + "'");
  std::vector<SpanLine> spans;
  std::string line;
  while (std::getline(in, line)) {
    size_t at = line.find("slow-op span ");
    if (at == std::string::npos) continue;
    std::string_view view(line);
    view.remove_prefix(at + 12);  // Keep the space before "seq=".
    SpanLine span;
    span.total_us = ParseField(view, "total_us");
    span.lock_us = ParseField(view, "lock_us");
    span.find_us = ParseField(view, "find_us");
    span.eval_us = ParseField(view, "eval_us");
    span.publish_us = ParseField(view, "publish_us");
    span.fsync_us = ParseField(view, "fsync_us");
    span.respond_us = ParseField(view, "respond_us");
    span.dirty = ParseField(view, "dirty");
    span.waves = ParseField(view, "waves");
    spans.push_back(std::move(span));
  }
  return spans;
}

Result<ProbeResult> RunProbes(const std::vector<BenchSheet>& sheets) {
  constexpr int kReps = 3;
  constexpr int kQueryReps = 5;
  ProbeResult probes;
  size_t anchors = 0;
  for (const BenchSheet& bench : sheets) {
    Status status;
    probes.parse_ms += MedianUs(kReps, [&] {
                         Result<Sheet> loaded = LoadSheetFile(bench.path);
                         if (!loaded.ok()) status = loaded.status();
                       }) /
                       1e3;
    TACO_RETURN_IF_ERROR(status);
    Result<Sheet> sheet = LoadSheetFile(bench.path);
    if (!sheet.ok()) return sheet.status();
    probes.build_ms += MedianUs(kReps, [&] {
                         TacoGraph graph;
                         Status built = BuildGraphFromSheet(*sheet, &graph);
                         if (!built.ok()) status = built;
                       }) /
                       1e3;
    TACO_RETURN_IF_ERROR(status);

    TacoGraph taco;
    NoCompGraph nocomp;
    TACO_RETURN_IF_ERROR(BuildGraphFromSheet(*sheet, &taco));
    TACO_RETURN_IF_ERROR(BuildGraphFromSheet(*sheet, &nocomp));
    for (const Cell& anchor : bench.anchors) {
      Range input(anchor);
      probes.taco_find_us +=
          MedianUs(kQueryReps, [&] { (void)taco.FindDependents(input); });
      probes.nocomp_find_us +=
          MedianUs(kQueryReps, [&] { (void)nocomp.FindDependents(input); });
      ++anchors;
    }
  }
  probes.taco_find_us /= static_cast<double>(std::max<size_t>(anchors, 1));
  probes.nocomp_find_us /= static_cast<double>(std::max<size_t>(anchors, 1));
  return probes;
}

Result<std::vector<Metric>> LayerMetrics(const PassResult& untraced,
                                         const PassResult& traced,
                                         const ProbeResult& probes,
                                         std::string* identity) {
  Result<std::vector<SpanLine>> read = ReadSpans(traced.stderr_path);
  if (!read.ok()) return read.status();
  const std::vector<SpanLine>& spans = *read;
  const Scrape loaded(traced.metrics_after_load);
  const Scrape after(traced.metrics_after);
  const double edits = MutatingOps(after);

  std::vector<double> total = Column(spans, &SpanLine::total_us);
  std::vector<double> lock = Column(spans, &SpanLine::lock_us);
  std::vector<double> find = Column(spans, &SpanLine::find_us);
  std::vector<double> eval = Column(spans, &SpanLine::eval_us);
  std::vector<double> publish = Column(spans, &SpanLine::publish_us);
  std::vector<double> fsync = Column(spans, &SpanLine::fsync_us);
  std::vector<double> respond = Column(spans, &SpanLine::respond_us);
  double waves = 0, waved_cells = 0;
  for (const SpanLine& span : spans) {
    waves += static_cast<double>(span.waves);
    if (span.waves > 0) waved_cells += static_cast<double>(span.dirty);
  }

  const double edit_rtt = Mean(traced.edit_us);
  const double span_total = Mean(total);
  const double get_server = ServerMeanUs(after, "GET");
  const double getrange_server = ServerMeanUs(after, "GETRANGE");
  auto throughput = [](const PassResult& pass) {
    return Ratio(static_cast<double>(pass.attempted), pass.phase_s);
  };
  const double reads_locked = after.Sum("taco_session_reads_locked_total");
  const double reads_versioned =
      after.Sum("taco_session_reads_versioned_total");
  const double load_count =
      after.Sum("taco_op_latency_seconds_count", "op=\"LOAD\"");

  std::vector<Metric> m = {
      {"net.edit_rtt_us", edit_rtt, "us", true, false, traced.edit_us.size(),
       "edit_p50_ms"},
      {"net.edit_gap_us", edit_rtt - span_total, "us", true, false, 0,
       "edit_p50_ms @ durable_collab"},
      {"net.get_gap_us", traced.get_us.empty() ? 0 : Mean(traced.get_us) - get_server,
       "us", true, false, traced.get_us.size(), "cmd_p50_ms @ read_mostly"},
      {"net.getrange_gap_us",
       traced.getrange_us.empty() ? 0 : Mean(traced.getrange_us) - getrange_server,
       "us", true, false, traced.getrange_us.size(),
       "cmd_p50_ms @ read_mostly"},
      {"service.span_total_us", span_total, "us", true, false, spans.size(),
       "edit_p50_ms"},
      {"service.lock_wait_us", Mean(lock), "us", true, false, spans.size(),
       "edit_p95_ms @ durable_collab"},
      {"service.lock_wait_p99_us", Quantile(lock, 0.99), "us", true, false,
       spans.size(), "edit_p95_ms @ durable_collab"},
      {"service.unattributed_us", Mean(respond), "us", true, false,
       spans.size(), "edit_p50_ms @ read_mostly, formula_churn, anchor_recalc"},
      {"service.unattributed_share",
       Ratio(Mean(respond), span_total), "fraction", true, false,
       spans.size(), "edit_p50_ms @ read_mostly, formula_churn, anchor_recalc"},
      {"service.get_us", get_server, "us", true, false, 0,
       "cmd_p50_ms @ read_mostly"},
      {"service.getrange_us", getrange_server, "us", true, false, 0,
       "cmd_p50_ms @ read_mostly"},
      {"service.reads_locked_fraction",
       Ratio(reads_locked, reads_locked + reads_versioned), "fraction", true,
       false, 0, "get_p99_ms @ read_mostly"},
      {"service.load_ms",
       Ratio(after.Sum("taco_op_latency_seconds_sum", "op=\"LOAD\""),
             load_count) * 1e3,
       "ms", true, false, static_cast<uint64_t>(load_count), "setup_s"},
      {"service.op_errors", after.Sum("taco_op_errors_total"), "count", true,
       false, 0, "error_rate"},
      {"taco.find_dependents_us", Mean(find), "us", true, false, spans.size(),
       "edit_p50_ms @ anchor_recalc"},
      {"taco.dirty_cells_per_edit",
       Ratio(after.Sum("taco_recalc_dirty_cells_total"), edits), "count", true,
       true, 0, "edit_p50_ms @ anchor_recalc"},
      {"taco.graph_edges", after.Sum("taco_session_graph_edges"), "count", true,
       true, 0, "edit_p50_ms @ formula_churn; server_rss_mb"},
      {"taco.edge_growth",
       Ratio(after.Sum("taco_session_graph_edges"),
             loaded.Sum("taco_session_graph_edges")),
       "ratio", true, true, 0, "edit_p50_ms @ formula_churn; server_rss_mb"},
      {"taco.build_ms", probes.build_ms, "ms", true, false, 0, "setup_s"},
      {"taco.probe_find_dependents_us", probes.taco_find_us, "us", true, false,
       0, "paper claim (no end-to-end metric)"},
      {"graph.nocomp_find_dependents_us", probes.nocomp_find_us, "us", true,
       false, 0, "paper claim (no end-to-end metric)"},
      {"taco.nocomp_speedup", Ratio(probes.nocomp_find_us, probes.taco_find_us),
       "ratio", false, false, 0, "paper claim (no end-to-end metric)"},
      {"sched.waves_per_edit", Ratio(waves, static_cast<double>(spans.size())),
       "count", true, true, 0, "edit_p50_ms @ anchor_recalc"},
      {"sched.cells_per_wave", Ratio(waved_cells, waves), "count", false, true,
       0, "edit_p50_ms @ anchor_recalc"},
      {"eval.eval_us", Mean(eval), "us", true, false, spans.size(),
       "edit_p50_ms @ anchor_recalc"},
      {"eval.eval_p99_us", Quantile(eval, 0.99), "us", true, false,
       spans.size(), "edit_p95_ms @ anchor_recalc"},
      {"eval.eval_ns_per_cell",
       Ratio(after.Sum("taco_recalc_eval_seconds_total") * 1e9,
             after.Sum("taco_recalc_dirty_cells_total")),
       "ns", true, false, 0, "edit_p50_ms @ anchor_recalc"},
      {"eval.cells_skipped_fraction", after.Sum("taco_recalc_skipped_fraction"),
       "fraction", false, false, 0, "edit_p50_ms @ anchor_recalc"},
      {"eval.publish_us", Mean(publish), "us", true, false, spans.size(),
       "edit_p50_ms @ anchor_recalc, read_mostly"},
      {"eval.publish_p99_us", Quantile(publish, 0.99), "us", true, false,
       spans.size(), "edit_p95_ms @ anchor_recalc, read_mostly"},
      {"eval.version_chain_depth",
       Ratio(after.Sum("taco_session_version_chain_depth"),
             static_cast<double>(after.Count("taco_session_version_chain_depth"))),
       "count", true, true, 0, "get_p99_ms @ read_mostly"},
      {"store.wal_fsync_us", Mean(fsync), "us", true, false, spans.size(),
       "edit_p50_ms @ durable_collab"},
      {"store.wal_fsync_p99_us", Quantile(fsync, 0.99), "us", true, false,
       spans.size(), "edit_p95_ms @ durable_collab"},
      {"store.wal_bytes_per_edit",
       Ratio(after.Sum("taco_storage_wal_bytes_total"), edits), "bytes", true,
       true, 0, "edit_p50_ms @ durable_collab"},
      {"store.wal_records_per_edit",
       Ratio(after.Sum("taco_storage_wal_records_total"), edits), "count", true,
       true, 0, "edit_p50_ms @ durable_collab"},
      {"store.group_flushes_per_edit",
       Ratio(after.Sum("taco_wal_group_flushes_total"), edits), "count", true,
       false, 0, "edit_p50_ms, edit_p95_ms @ durable_collab"},
      {"store.flush_failures", after.Sum("taco_wal_group_flush_failures_total"),
       "count", true, false, 0, "error_rate"},
      {"store.recovery_ms", traced.recovery_ms, "ms", true, false, 0,
       "correctness gate (no end-to-end metric)"},
      {"sheet.parse_ms", probes.parse_ms, "ms", true, false, 0, "setup_s"},
      {"obs.trace_overhead_pct",
       Ratio(throughput(untraced) - throughput(traced), throughput(untraced)) *
           100,
       "%", true, false, 0, "ops_per_s @ every workload"},
      {"obs.spans_captured_fraction",
       Ratio(static_cast<double>(spans.size()),
             static_cast<double>(traced.edit_us.size())),
       "fraction", false, false, spans.size(), "must be 1"},
  };

  // RTT = layers + gap, with the span's own consistency check: phases are
  // printed as truncated integer microseconds, so their means can fall
  // short of the mean total by up to a few microseconds.
  const double phase_sum = Mean(lock) + Mean(find) + Mean(eval) +
                           Mean(publish) + Mean(fsync) + Mean(respond);
  char buffer[640];
  std::snprintf(
      buffer, sizeof(buffer),
      "  mean edit RTT %.1f us = lock %.1f + find %.1f + eval %.1f + "
      "publish %.1f + fsync %.1f + unattributed %.1f + net gap %.1f\n"
      "  span phases sum to %.1f us against a mean span total of %.1f us "
      "(%+.2f%%); unattributed share %.1f%%; %zu spans for %zu edits\n",
      edit_rtt, Mean(lock), Mean(find), Mean(eval), Mean(publish), Mean(fsync),
      Mean(respond), edit_rtt - span_total, phase_sum, span_total,
      Ratio(phase_sum - span_total, span_total) * 100,
      Ratio(Mean(respond), span_total) * 100, spans.size(),
      traced.edit_us.size());
  *identity = buffer;
  return m;
}

}  // namespace taco::e2e
