#include "service/protocol.h"

#include <charconv>
#include <cstdio>
#include <string>
#include <vector>

#include "common/a1.h"
#include "common/ascii.h"
#include "common/clock.h"
#include "obs/rid.h"
#include "service/exposition.h"

namespace taco {
namespace {

std::string_view TrimCr(std::string_view line) {
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
    line.remove_suffix(1);
  }
  return line;
}

/// Pops the next whitespace-delimited token off `rest`.
std::string_view NextToken(std::string_view* rest) {
  size_t begin = rest->find_first_not_of(" \t");
  if (begin == std::string_view::npos) {
    *rest = {};
    return {};
  }
  size_t end = rest->find_first_of(" \t", begin);
  std::string_view token = rest->substr(
      begin, end == std::string_view::npos ? std::string_view::npos
                                           : end - begin);
  *rest = end == std::string_view::npos ? std::string_view{}
                                        : rest->substr(end);
  return token;
}

/// The rest of the line with surrounding whitespace removed — used for
/// values and formula sources, which may contain spaces.
std::string_view Remainder(std::string_view rest) {
  size_t begin = rest.find_first_not_of(" \t");
  if (begin == std::string_view::npos) return {};
  size_t end = rest.find_last_not_of(" \t");
  return rest.substr(begin, end - begin + 1);
}

inline bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  return EqualsIgnoreCaseAscii(a, b);
}

std::string ErrLine(const Status& status) {
  return "ERR " + std::string(StatusCodeToString(status.code())) + ": " +
         status.message();
}

std::string ErrUsage(std::string_view usage) {
  return "ERR InvalidArgument: usage: " + std::string(usage);
}

std::string FormatRecalc(const char* verb, const RecalcResult& r) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "OK %s edits=%llu dirty=%llu recalced=%llu passes=%llu "
                "find_ms=%.3f",
                verb, static_cast<unsigned long long>(r.edits_applied),
                static_cast<unsigned long long>(r.dirty_cells),
                static_cast<unsigned long long>(r.recalculated),
                static_cast<unsigned long long>(r.recalc_passes),
                r.find_dependents_ms);
  return buffer;
}

/// Parses one edit line of a BATCH body (SET / FORMULA / CLEAR without a
/// session name). Returns the error response on failure.
Result<Edit> ParseEditLine(std::string_view line) {
  std::string_view rest = TrimCr(line);
  std::string_view op = NextToken(&rest);
  if (EqualsIgnoreCase(op, "SET")) {
    std::string_view cell_text = NextToken(&rest);
    std::string_view value = Remainder(rest);
    auto cell = ParseCellA1(cell_text);
    if (!cell.ok()) return cell.status();
    if (value.empty()) {
      return Status::InvalidArgument("SET needs a value");
    }
    double number = 0;
    auto [ptr, ec] =
        std::from_chars(value.data(), value.data() + value.size(), number);
    if (ec == std::errc() && ptr == value.data() + value.size()) {
      return Edit::SetNumber(*cell, number);
    }
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
      value = value.substr(1, value.size() - 2);
    }
    return Edit::SetText(*cell, std::string(value));
  }
  if (EqualsIgnoreCase(op, "FORMULA")) {
    std::string_view cell_text = NextToken(&rest);
    std::string_view src = Remainder(rest);
    auto cell = ParseCellA1(cell_text);
    if (!cell.ok()) return cell.status();
    if (src.empty()) return Status::InvalidArgument("FORMULA needs a source");
    if (src.front() == '=') src.remove_prefix(1);  // Leading '=' tolerated.
    return Edit::SetFormula(*cell, std::string(src));
  }
  if (EqualsIgnoreCase(op, "CLEAR")) {
    std::string_view range_text = NextToken(&rest);
    auto ref = ParseA1(range_text);
    if (!ref.ok()) return ref.status();
    return Edit::ClearRange(ref->range);
  }
  return Status::InvalidArgument("unknown batch edit '" + std::string(op) +
                                 "' (SET/FORMULA/CLEAR)");
}

// Built with string appends, not a fixed buffer: names and paths are
// client-controlled and must never silently truncate the response.
std::string SessionStatsReport(const SessionStats& stats) {
  std::string out = "OK session=" + stats.name;
  out += " cells=" + std::to_string(stats.cells);
  out += " formulas=" + std::to_string(stats.formula_cells);
  out += " vertices=" + std::to_string(stats.graph_vertices);
  out += " edges=" + std::to_string(stats.graph_edges);
  out += " ops=" + std::to_string(stats.ops);
  out += " edits=" + std::to_string(stats.edits);
  out += " recalc_passes=" + std::to_string(stats.recalc_passes);
  out += " dirty_cells=" + std::to_string(stats.dirty_cells);
  out += " unsaved=" + std::to_string(stats.dirty ? 1 : 0);
  out += " waves=" + std::to_string(stats.waves);
  out += " max_wave_cells=" + std::to_string(stats.max_wave_cells);
  out += std::string(" cutoff=") + (stats.cutoff ? "on" : "off");
  out += " cells_skipped=" + std::to_string(stats.cells_skipped);
  out += " version=" + std::to_string(stats.version);
  out += " versions=" + std::to_string(stats.versions_published);
  out += " reads_versioned=" + std::to_string(stats.reads_versioned);
  out += " wal_failed=" + std::to_string(stats.wal_failed ? 1 : 0);
  out += " path=" + (stats.path.empty() ? "(none)" : stats.path);
  return out;
}

std::string SessionStorageReport(const SessionStats& stats) {
  std::string out = "OK storage session=" + stats.name;
  out += " wal=" + (stats.wal_path.empty() ? "(none)" : stats.wal_path);
  out += " wal_records=" + std::to_string(stats.wal_records);
  out += " wal_bytes=" + std::to_string(stats.wal_bytes);
  out += " recovered=" + std::to_string(stats.recovered_records);
  out += " unsaved=" + std::to_string(stats.dirty ? 1 : 0);
  out += " wal_failed=" + std::to_string(stats.wal_failed ? 1 : 0);
  out += " path=" + (stats.path.empty() ? "(none)" : stats.path);
  return out;
}

}  // namespace

bool StdioResponseWriter::Emit(std::string_view response) {
  // One buffered write + one flush: the reader on the other end of the
  // pipe sees complete responses only, and an error (closed pipe) stops
  // the transport instead of silently dropping output.
  if (std::fwrite(response.data(), 1, response.size(), out_) !=
      response.size()) {
    return false;
  }
  if (std::fputc('\n', out_) == EOF) return false;
  return std::fflush(out_) == 0;
}

bool CommandProcessor::ResponseContinues(std::string_view first_line) {
  // Five responses span multiple lines: the service-wide STATS report
  // ("OK service ..."), GETRANGE ("OK range ..."), the Prometheus
  // exposition ("OK metrics"), the span dump ("OK trace ..."), and the
  // recalc-plan dry run ("OK explain ..."); a session report is
  // "OK session=..." and stays one line. Every multi-line form ends
  // with the lone terminator line.
  return first_line.starts_with("OK service") ||
         first_line.starts_with("OK range") ||
         first_line.starts_with("OK metrics") ||
         first_line.starts_with("OK trace") ||
         first_line.starts_with("OK explain");
}

int CommandProcessor::ExtraBodyLines(std::string_view header_line) {
  std::string_view rest = TrimCr(header_line);
  std::string_view cmd = NextToken(&rest);
  if (!EqualsIgnoreCase(cmd, "BATCH")) return 0;
  NextToken(&rest);  // Session name.
  std::string_view count_text = NextToken(&rest);
  int count = 0;
  auto [ptr, ec] = std::from_chars(
      count_text.data(), count_text.data() + count_text.size(), count);
  if (ec != std::errc() || ptr != count_text.data() + count_text.size() ||
      count < 0 || count > kMaxBatchEdits) {
    return -1;  // Unframeable: report the error and close the stream.
  }
  return count;
}

std::string CommandProcessor::Execute(std::string_view command_text) {
  // Mint the request's correlation id before any work: everything this
  // command touches — trace spans, log events, slow-op mirrors — joins
  // on it. The scope covers metering too, so an admin verb's histogram
  // sample and its log events describe the same window.
  uint64_t rid = obs::NextRid();
  obs::RidScope rid_scope(rid);
  std::string response = ExecuteMetered(command_text);
  // The optional client-visible half of the join: services started with
  // rid-on-error append the id to ERR lines so a support ticket quoting
  // the response pinpoints the span and log lines. OFF by default — the
  // annotation is nondeterministic text, and transcript-diffing clients
  // (the conformance suite) compare responses byte-for-byte.
  if (service_->annotate_errors_with_rid() && response.starts_with("ERR")) {
    response += " rid=" + std::to_string(rid);
  }
  return response;
}

std::string CommandProcessor::ExecuteMetered(std::string_view command_text) {
  // Admin verbs run entirely at this layer and would otherwise bypass
  // ServiceMetrics; meter them around the dispatch. Session-addressed
  // data ops and SAVE/CHECKPOINT/OPEN/LOAD/CLOSE record inside the
  // session/service (with lock wait), so they are NOT re-metered here —
  // one op, one histogram sample. A verb's own sample lands AFTER its
  // response is built: the first STATS never shows a STATS row, every
  // later one does, identically on every transport.
  std::string_view header = TrimCr(
      command_text.substr(0, command_text.find('\n')));
  std::string_view cmd = NextToken(&header);
  ServiceOp admin_op = ServiceOp::kOpCount;
  if (EqualsIgnoreCase(cmd, "STATS")) {
    admin_op = ServiceOp::kStats;
  } else if (EqualsIgnoreCase(cmd, "RECALC")) {
    admin_op = ServiceOp::kRecalc;
  } else if (EqualsIgnoreCase(cmd, "STORAGE")) {
    admin_op = ServiceOp::kStorage;
  } else if (EqualsIgnoreCase(cmd, "LIST")) {
    admin_op = ServiceOp::kList;
  } else if (EqualsIgnoreCase(cmd, "METRICS")) {
    admin_op = ServiceOp::kMetrics;
  } else if (EqualsIgnoreCase(cmd, "TRACE")) {
    admin_op = ServiceOp::kTrace;
  } else if (EqualsIgnoreCase(cmd, "EXPLAIN")) {
    admin_op = ServiceOp::kExplain;
  }
  if (admin_op == ServiceOp::kOpCount) return ExecuteInner(command_text);
  auto start = SteadyNow();
  std::string response = ExecuteInner(command_text);
  service_->metrics().Record(admin_op, NsSince(start),
                             /*ok=*/!response.starts_with("ERR"));
  return response;
}

std::string CommandProcessor::ExecuteInner(std::string_view command_text) {
  // Split the header from any BATCH body lines.
  size_t newline = command_text.find('\n');
  std::string_view header = TrimCr(command_text.substr(0, newline));
  std::string_view body =
      newline == std::string_view::npos ? std::string_view{}
                                        : command_text.substr(newline + 1);

  std::string_view rest = header;
  std::string_view cmd = NextToken(&rest);
  if (cmd.empty() || cmd.front() == '#') return "OK";

  if (EqualsIgnoreCase(cmd, "OPEN")) {
    std::string_view name = NextToken(&rest);
    if (name.empty() || !NextToken(&rest).empty()) {
      return ErrUsage("OPEN <session>");
    }
    auto session = service_->Open(std::string(name));
    if (!session.ok()) return ErrLine(session.status());
    return "OK opened " + std::string(name);
  }
  if (EqualsIgnoreCase(cmd, "LOAD")) {
    std::string_view name = NextToken(&rest);
    std::string_view path = NextToken(&rest);
    if (name.empty() || path.empty() || !NextToken(&rest).empty()) {
      return ErrUsage("LOAD <session> <path>");
    }
    auto session = service_->Load(std::string(name), std::string(path));
    if (!session.ok()) return ErrLine(session.status());
    SessionStats stats = (*session)->Stats();
    return "OK loaded " + stats.name + " cells=" +
           std::to_string(stats.cells) + " formulas=" +
           std::to_string(stats.formula_cells);
  }
  if (EqualsIgnoreCase(cmd, "SAVE")) {
    std::string_view name = NextToken(&rest);
    std::string_view path = NextToken(&rest);
    if (name.empty()) return ErrUsage("SAVE <session> [path]");
    Status status = service_->Save(std::string(name), std::string(path));
    if (!status.ok()) return ErrLine(status);
    return "OK saved " + std::string(name);
  }
  if (EqualsIgnoreCase(cmd, "CHECKPOINT")) {
    // SAVE under its durability name: snapshot + WAL rotation. Kept as a
    // distinct verb so clients managing recovery cost (bounding the WAL
    // tail) read as what they are, and so the response reports where the
    // durable state now lives.
    std::string_view name = NextToken(&rest);
    std::string_view path = NextToken(&rest);
    if (name.empty()) return ErrUsage("CHECKPOINT <session> [path]");
    auto session = service_->Get(std::string(name));
    if (!session.ok()) return ErrLine(session.status());
    Status status = (*session)->Checkpoint(std::string(path));
    if (!status.ok()) return ErrLine(status);
    SessionStats stats = (*session)->Stats();
    return "OK checkpoint " + std::string(name) + " path=" + stats.path;
  }
  if (EqualsIgnoreCase(cmd, "STORAGE")) {
    std::string_view name = NextToken(&rest);
    if (name.empty()) return ErrUsage("STORAGE <session>");
    auto session = service_->Get(std::string(name));
    if (!session.ok()) return ErrLine(session.status());
    return SessionStorageReport((*session)->Stats());
  }
  if (EqualsIgnoreCase(cmd, "CLOSE")) {
    std::string_view name = NextToken(&rest);
    if (name.empty()) return ErrUsage("CLOSE <session>");
    Status status = service_->Close(std::string(name));
    if (!status.ok()) return ErrLine(status);
    return "OK closed " + std::string(name);
  }
  if (EqualsIgnoreCase(cmd, "LIST")) {
    std::string out = "OK sessions";
    for (const std::string& name : service_->SessionNames()) {
      out += " " + name;
    }
    return out;
  }
  if (EqualsIgnoreCase(cmd, "STATS")) {
    std::string_view name = NextToken(&rest);
    if (!name.empty()) {
      auto session = service_->Get(std::string(name));
      if (!session.ok()) return ErrLine(session.status());
      return SessionStatsReport((*session)->Stats());
    }
    char buffer[192];
    std::snprintf(buffer, sizeof(buffer),
                  "OK service resident=%zu parked=%zu evictions=%llu\n",
                  service_->resident_sessions(), service_->parked_sessions(),
                  static_cast<unsigned long long>(service_->evictions()));
    const TransportCounters& t = service_->metrics().transport();
    char conn[192];
    std::snprintf(conn, sizeof(conn),
                  "connections open=%lld accepted=%llu rejected=%llu "
                  "commands=%llu oversized=%llu idle_closed=%llu\n",
                  static_cast<long long>(t.open.load()),
                  static_cast<unsigned long long>(t.accepted.load()),
                  static_cast<unsigned long long>(t.rejected.load()),
                  static_cast<unsigned long long>(t.commands.load()),
                  static_cast<unsigned long long>(t.oversized.load()),
                  static_cast<unsigned long long>(t.idle_closed.load()));
    const StorageCounters& st = service_->metrics().storage();
    char storage[224];
    std::snprintf(
        storage, sizeof(storage),
        "storage checkpoints=%llu wal_records=%llu "
        "wal_bytes=%llu recoveries=%llu recovered_records=%llu\n",
        static_cast<unsigned long long>(st.checkpoints.load()),
        static_cast<unsigned long long>(st.wal_records.load()),
        static_cast<unsigned long long>(st.wal_bytes.load()),
        static_cast<unsigned long long>(st.recoveries.load()),
        static_cast<unsigned long long>(st.recovered_records.load()));
    const WalGroupCounters& gc = service_->metrics().wal_group();
    const unsigned long long gc_flushes = gc.flushes.load();
    const unsigned long long gc_appends = gc.appends.load();
    char wal_group[192];
    std::snprintf(
        wal_group, sizeof(wal_group),
        "wal_group enabled=%d flushes=%llu appends=%llu failures=%llu "
        "mean_size=%.2f\n",
        service_->wal_enabled() ? 1 : 0, gc_flushes, gc_appends,
        static_cast<unsigned long long>(gc.flush_failures.load()),
        gc_flushes ? static_cast<double>(gc_appends) / gc_flushes : 0.0);
    // Silent-loss accounting: both sinks that can drop data under load
    // (the bounded log ring, the trace ring's wrap-around) report here,
    // so "no drops" is an observable fact rather than an assumption.
    const obs::Logger* logger = service_->logger();
    const obs::TraceRing& ring = service_->metrics().trace();
    char observability[192];
    std::snprintf(
        observability, sizeof(observability),
        "observability log_events=%llu log_dropped=%llu "
        "trace_recorded=%llu trace_overwritten=%llu\n",
        static_cast<unsigned long long>(
            logger != nullptr ? logger->events_logged() : 0),
        static_cast<unsigned long long>(
            logger != nullptr ? logger->events_dropped() : 0),
        static_cast<unsigned long long>(ring.recorded()),
        static_cast<unsigned long long>(ring.overwritten()));
    return buffer + std::string(conn) + storage + wal_group + observability +
           service_->metrics().Report() + "END";
  }
  if (EqualsIgnoreCase(cmd, "RECALC")) {
    constexpr const char* kRecalcUsage = "RECALC <session> [cutoff on|off]";
    std::string_view name = NextToken(&rest);
    if (name.empty()) return ErrUsage(kRecalcUsage);
    auto session = service_->Get(std::string(name));
    if (!session.ok()) return ErrLine(session.status());
    std::string_view token = NextToken(&rest);
    if (!token.empty()) {
      std::string_view state = NextToken(&rest);
      if (!EqualsIgnoreCase(token, "cutoff") || !NextToken(&rest).empty()) {
        return ErrUsage(kRecalcUsage);
      }
      if (EqualsIgnoreCase(state, "on")) {
        (*session)->SetCutoff(true);
      } else if (EqualsIgnoreCase(state, "off")) {
        (*session)->SetCutoff(false);
      } else {
        return ErrUsage(kRecalcUsage);
      }
    }
    return "OK recalc " + std::string(name) +
           " cutoff=" + ((*session)->cutoff() ? "on" : "off");
  }
  if (EqualsIgnoreCase(cmd, "METRICS")) {
    // The same bytes taco_serve's HTTP /metrics listener serves: one
    // renderer, two transports. The exposition already terminates every
    // line, so the protocol terminator lands on its own line directly.
    return "OK metrics\n" + RenderServiceExposition(*service_) +
           std::string(kResponseTerminator);
  }
  if (EqualsIgnoreCase(cmd, "TRACE")) {
    std::string_view count_text = NextToken(&rest);
    int n = 0;  // 0 = everything the ring holds.
    if (!count_text.empty()) {
      auto [ptr, ec] = std::from_chars(
          count_text.data(), count_text.data() + count_text.size(), n);
      if (ec != std::errc() ||
          ptr != count_text.data() + count_text.size() || n < 0) {
        return ErrUsage("TRACE [n]");
      }
    }
    obs::TraceRing& ring = service_->metrics().trace();
    std::vector<obs::TraceSpan> spans =
        ring.Newest(static_cast<size_t>(n));
    std::string out = "OK trace spans=" + std::to_string(spans.size()) +
                      " recorded=" + std::to_string(ring.recorded()) +
                      " capacity=" + std::to_string(ring.capacity());
    for (const obs::TraceSpan& span : spans) {
      out += "\n" + span.ToLine();
    }
    out += "\n";
    out += kResponseTerminator;
    return out;
  }
  if (EqualsIgnoreCase(cmd, "EXPLAIN")) {
    // The dry run: what a mutation of <cell-or-range> WOULD dirty and
    // how the scheduler would run it — closure size, per-wave cell
    // counts, the granularity decision and the threshold that made it —
    // committing nothing. The plan is produced by the same code a real
    // mutation runs (FindDependents + the scheduler's one planner), so
    // it matches execution wave-for-wave.
    std::string_view name = NextToken(&rest);
    std::string_view range_text = NextToken(&rest);
    if (name.empty() || range_text.empty()) {
      return ErrUsage("EXPLAIN <session> <cell-or-range>");
    }
    auto ref = ParseA1(range_text);
    if (!ref.ok()) return ErrLine(ref.status());
    auto session = service_->Get(std::string(name));
    if (!session.ok()) return ErrLine(session.status());
    RecalcEngine::ExplainInfo info = (*session)->Explain(ref->range);
    const RecalcPlan& plan = info.plan;

    std::string out = "OK explain session=" + std::string(name) +
                      " target=" + ref->range.ToString() +
                      " seeds=" + std::to_string(info.seeds.size()) +
                      " dirty_ranges=" + std::to_string(info.dirty.size()) +
                      " dirty_cells=" + std::to_string(info.dirty_cells) +
                      std::string(" cutoff=") + (info.cutoff ? "on" : "off") +
                      " find_us=" +
                      std::to_string(info.find_dependents_ns / 1000);
    out += "\nPLAN granularity=" + std::string(plan.granularity_name()) +
           " decision=" + plan.decision +
           " formulas=" + std::to_string(plan.dirty_formulas) +
           " edges=" + std::to_string(plan.edges) +
           " waves=" + std::to_string(plan.waves()) +
           " max_wave_cells=" + std::to_string(plan.max_wave_cells()) +
           " cycle_cells=" + std::to_string(plan.cycle_cells);
    // One line per run of consecutive waves with the same shape, so a
    // chain's thousands of one-cell waves answer in a line or two. Only
    // cutoff passes run in waves; cutoff_eligible is the planner's UPPER
    // BOUND on prunable cells: those with no direct seed input. How many
    // actually skip depends on runtime value comparisons a dry run
    // cannot make.
    const std::vector<uint64_t>& cells = plan.wave_cells;
    const std::vector<uint64_t>& eligible = plan.wave_cutoff_eligible;
    for (size_t first = 0, last = 0; first < cells.size(); first = ++last) {
      while (last + 1 < cells.size() && cells[last + 1] == cells[first] &&
             eligible[last + 1] == eligible[first]) {
        ++last;
      }
      out += first == last ? "\nWAVE " + std::to_string(first + 1)
                           : "\nWAVES " + std::to_string(first + 1) + ".." +
                                 std::to_string(last + 1);
      out += " cells=" + std::to_string(cells[first]) +
             " cutoff_eligible=" + std::to_string(eligible[first]);
    }
    // Phase-time estimates from recent history: scale the per-dirty-cell
    // eval cost and the mean fsync of the newest spans to this plan.
    // Estimates, not promises — cache state and contention move them.
    std::vector<obs::TraceSpan> recent =
        service_->metrics().trace().Newest(32);
    uint64_t eval_ns = 0, eval_cells = 0, fsync_ns = 0, basis = 0;
    for (const obs::TraceSpan& span : recent) {
      if (span.dirty_cells == 0) continue;
      ++basis;
      eval_ns += span.eval_ns;
      eval_cells += span.dirty_cells;
      fsync_ns += span.wal_fsync_ns;
    }
    uint64_t est_eval_us =
        eval_cells > 0 ? eval_ns * plan.dirty_formulas / eval_cells / 1000
                       : 0;
    uint64_t est_fsync_us = basis > 0 ? fsync_ns / basis / 1000 : 0;
    out += "\nEST basis_spans=" + std::to_string(basis) +
           " est_eval_us=" + std::to_string(est_eval_us) +
           " est_fsync_us=" + std::to_string(est_fsync_us);
    out += "\n";
    out += kResponseTerminator;
    return out;
  }

  // Everything below addresses one session.
  if (EqualsIgnoreCase(cmd, "GET")) {
    std::string_view name = NextToken(&rest);
    std::string_view cell_text = NextToken(&rest);
    if (name.empty() || cell_text.empty()) {
      return ErrUsage("GET <session> <cell>");
    }
    auto cell = ParseCellA1(cell_text);
    if (!cell.ok()) return ErrLine(cell.status());
    auto session = service_->Get(std::string(name));
    if (!session.ok()) return ErrLine(session.status());
    Value value = (*session)->GetValue(*cell);
    return "VALUE " + cell->ToString() + " " + value.ToString();
  }
  if (EqualsIgnoreCase(cmd, "GETRANGE")) {
    std::string_view name = NextToken(&rest);
    std::string_view range_text = NextToken(&rest);
    if (name.empty() || range_text.empty()) {
      return ErrUsage("GETRANGE <session> <range>");
    }
    auto ref = ParseA1(range_text);
    if (!ref.ok()) return ErrLine(ref.status());
    if (ref->range.Area() > kMaxGetRangeCells) {
      return "ERR InvalidArgument: range " + ref->range.ToString() +
             " covers " + std::to_string(ref->range.Area()) +
             " cells, over the GETRANGE limit of " +
             std::to_string(kMaxGetRangeCells);
    }
    auto session = service_->Get(std::string(name));
    if (!session.ok()) return ErrLine(session.status());
    RangeSnapshot snapshot = (*session)->GetRange(ref->range);
    // Multi-line: header, one VALUE line per non-blank cell (in
    // EnumerateCells order — the version makes them one consistent
    // cut), then the terminator SocketClient frames on.
    std::string out = "OK range " + ref->range.ToString() +
                      " version=" + std::to_string(snapshot.version) +
                      " cells=" + std::to_string(snapshot.values.size());
    for (const auto& [cell, value] : snapshot.values) {
      out += "\nVALUE " + cell.ToString() + " " + value.ToString();
    }
    out += "\n";
    out += kResponseTerminator;
    return out;
  }
  if (EqualsIgnoreCase(cmd, "SET") || EqualsIgnoreCase(cmd, "FORMULA") ||
      EqualsIgnoreCase(cmd, "CLEAR")) {
    std::string_view name = NextToken(&rest);
    if (name.empty()) {
      return ErrUsage(std::string(cmd) + " <session> ...");
    }
    // Reuse the batch edit parser (same grammar minus the session name)
    // and parse BEFORE resolving the session: malformed traffic must not
    // trigger LRU touches or parked reloads.
    std::string edit_line = std::string(cmd) + std::string(rest);
    auto edit = ParseEditLine(edit_line);
    if (!edit.ok()) return ErrLine(edit.status());
    auto session = service_->Get(std::string(name));
    if (!session.ok()) return ErrLine(session.status());
    Result<RecalcResult> result = [&]() -> Result<RecalcResult> {
      switch (edit->kind) {
        case Edit::Kind::kSetNumber:
          return (*session)->SetNumber(edit->cell, edit->number);
        case Edit::Kind::kSetText:
          return (*session)->SetText(edit->cell, edit->text);
        case Edit::Kind::kSetFormula:
          return (*session)->SetFormula(edit->cell, edit->text);
        case Edit::Kind::kClearRange:
          return (*session)->ClearRange(edit->range);
      }
      return Status::Internal("unreachable");
    }();
    if (!result.ok()) return ErrLine(result.status());
    return FormatRecalc(EqualsIgnoreCase(cmd, "CLEAR") ? "cleared" : "set",
                        *result);
  }
  if (EqualsIgnoreCase(cmd, "BATCH")) {
    std::string_view name = NextToken(&rest);
    std::string_view count_text = NextToken(&rest);
    int count = -1;
    if (!count_text.empty()) {
      auto [ptr, ec] = std::from_chars(
          count_text.data(), count_text.data() + count_text.size(), count);
      if (ec != std::errc() || ptr != count_text.data() + count_text.size()) {
        count = -1;
      }
    }
    if (name.empty() || count < 0) {
      return ErrUsage("BATCH <session> <n>, then n edit lines");
    }
    if (count > kMaxBatchEdits) {
      return "ERR InvalidArgument: batch of " + std::to_string(count) +
             " edits exceeds the limit of " +
             std::to_string(kMaxBatchEdits);
    }
    EditBatch batch;
    batch.reserve(count);
    std::string_view lines = body;
    for (int i = 0; i < count; ++i) {
      size_t eol = lines.find('\n');
      std::string_view line = lines.substr(0, eol);
      lines = eol == std::string_view::npos ? std::string_view{}
                                            : lines.substr(eol + 1);
      auto edit = ParseEditLine(line);
      if (!edit.ok()) {
        return ErrLine(Status(edit.status().code(),
                              "batch line " + std::to_string(i + 1) + ": " +
                                  edit.status().message()));
      }
      batch.push_back(std::move(*edit));
    }
    auto session = service_->Get(std::string(name));
    if (!session.ok()) return ErrLine(session.status());
    RecalcResult partial;
    auto result = (*session)->ApplyBatch(batch, &partial);
    if (!result.ok()) {
      // Unlike every other ERR, a failed batch may have changed state:
      // say exactly how much so the client doesn't blindly retry the
      // whole batch and double-apply the prefix.
      return ErrLine(result.status()) + " (applied " +
             std::to_string(partial.edits_applied) + " of " +
             std::to_string(batch.size()) +
             " edits before the error; applied edits remain in effect)";
    }
    return FormatRecalc("batch", *result);
  }

  return "ERR InvalidArgument: unknown command '" + std::string(cmd) +
         "' (OPEN/LOAD/SAVE/CHECKPOINT/STORAGE/CLOSE/SET/FORMULA/GET/"
         "GETRANGE/CLEAR/BATCH/RECALC/EXPLAIN/STATS/LIST/METRICS/TRACE)";
}

CommandFramer::CommandFramer(CommandProcessor* processor,
                             ResponseWriter* writer,
                             TransportCounters* counters,
                             size_t max_line_bytes)
    : processor_(processor),
      writer_(writer),
      counters_(counters),
      max_line_bytes_(max_line_bytes) {}

void CommandFramer::Feed(std::string_view bytes) {
  if (closed_) return;
  inbuf_.append(bytes);
  // Consume via an offset and erase once: front-erasing per line would
  // memmove the rest of the buffer for every pipelined command.
  size_t begin = 0;
  size_t nl;
  while (!closed_ && (nl = inbuf_.find('\n', begin)) != std::string::npos) {
    std::string_view line =
        std::string_view(inbuf_).substr(begin, nl - begin);
    if (discarding_) {
      discarding_ = false;  // The dropped line's tail ends here.
    } else if (line.size() > max_line_bytes_) {
      Oversized(line);
    } else {
      FeedLine(line);
    }
    begin = nl + 1;
  }
  inbuf_.erase(0, begin);
  if (closed_) return;
  if (discarding_) {
    inbuf_.clear();
  } else if (inbuf_.size() > max_line_bytes_) {
    Oversized(inbuf_);
    discarding_ = true;
    inbuf_.clear();
  }
}

void CommandFramer::Finish() {
  if (closed_) return;
  if (!inbuf_.empty() && !discarding_) {
    // Moved out first: FeedLine may dispatch, and the line must not
    // alias a buffer the framer still owns.
    std::string last = std::move(inbuf_);
    FeedLine(last);
  }
  if (body_needed_ > 0 && !closed_) {
    body_needed_ = 0;
    Dispatch(pending_);
  }
  closed_ = true;
}

// One complete line (terminator stripped; may still carry a '\r', which
// the processor tolerates).
void CommandFramer::FeedLine(std::string_view line) {
  if (body_needed_ > 0) {
    pending_ += '\n';
    pending_ += line;
    if (--body_needed_ == 0) {
      Dispatch(pending_);
      pending_.clear();
    }
    return;
  }
  std::string_view word = line.substr(0, line.find_first_of(" \t\r"));
  if (EqualsIgnoreCase(word, "QUIT") || EqualsIgnoreCase(word, "EXIT")) {
    closed_ = true;
    return;
  }
  int extra = CommandProcessor::ExtraBodyLines(line);
  if (extra < 0) {
    Dispatch(line);  // Reports the error; then the stream is untrusted.
    closed_ = true;
  } else if (extra == 0) {
    Dispatch(line);
  } else {
    pending_.assign(line);
    body_needed_ = extra;
  }
}

// `prefix` is what arrived of the line before buffering stopped.
void CommandFramer::Oversized(std::string_view prefix) {
  counters_->oversized.fetch_add(1);
  if (body_needed_ > 0) {
    FeedLine("");
    return;
  }
  // Tokenize the way ExtraBodyLines does (leading whitespace skipped) so
  // " BATCH ..." cannot sneak past the check below.
  size_t start = prefix.find_first_not_of(" \t");
  prefix = start == std::string_view::npos ? std::string_view{}
                                           : prefix.substr(start);
  std::string_view word = prefix.substr(0, prefix.find_first_of(" \t\r"));
  bool unframeable = EqualsIgnoreCase(word, "BATCH");
  if (!writer_->Emit("ERR InvalidArgument: line exceeds " +
                     std::to_string(max_line_bytes_) + " bytes" +
                     (unframeable ? "; BATCH frame unknowable, closing"
                                  : "")) ||
      unframeable) {
    closed_ = true;
  }
}

void CommandFramer::Dispatch(std::string_view command) {
  counters_->commands.fetch_add(1);
  if (!writer_->Emit(processor_->Execute(command))) closed_ = true;
}

}  // namespace taco
