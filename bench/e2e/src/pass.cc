#include "pass.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <latch>
#include <thread>
#include <unordered_map>

#include "common/a1.h"
#include "net/socket_client.h"
#include "server.h"
#include "sheet/textio.h"
#include "taco/taco_graph.h"

namespace taco::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// GETRANGE's area cap (CommandProcessor::kMaxGetRangeCells).
constexpr int32_t kGetRangeChunkRows = 65536;
constexpr size_t kReportedMismatches = 5;

/// Sends `command` and requires a response starting with `expect`.
Result<std::string> Expect(SocketClient* client, const std::string& command,
                           std::string_view expect) {
  Result<std::string> response = client->Call(command);
  if (!response.ok()) return response.status();
  if (!response->starts_with(expect)) {
    std::string message(command, 0, command.find('\n'));
    message.append(" answered: ").append(*response, 0, response->find('\n'));
    return Status::Internal(std::move(message));
  }
  return response;
}

std::vector<std::string> ServeArgs(const WorkloadSpec& spec,
                                   const PassConfig& config,
                                   const std::string& wal_dir) {
  std::vector<std::string> args = {"--recalc-threads", "2"};
  if (spec.wal) {
    args.push_back("--wal-dir");
    args.push_back(wal_dir);
  }
  if (config.traced) {
    args.push_back("--slow-op-ms");
    args.push_back("0.001");
  }
  return args;
}

struct ClientOutcome {
  std::vector<double> edit_us, get_us, getrange_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  Clock::time_point finished;
  bool deadline_hit = false;
};

/// The closed loop: send, wait for the reply, send the next. Stops after
/// `actions` actions, or at an action boundary once `deadline` passes.
void DriveClient(SocketClient* client, ClientScript* script, uint64_t actions,
                 const std::latch* start, const Clock::time_point* deadline,
                 ClientOutcome* out) {
  std::vector<Command> commands;
  start->wait();
  for (uint64_t a = 0; a < actions; ++a) {
    if (Clock::now() >= *deadline) {
      out->deadline_hit = true;
      break;
    }
    script->NextAction(&commands);
    bool transport_down = false;
    for (const Command& command : commands) {
      auto sent = Clock::now();
      Result<std::string> response = client->Call(command.text);
      double us =
          std::chrono::duration<double, std::micro>(Clock::now() - sent).count();
      ++out->attempted;
      if (!response.ok() || response->starts_with("ERR")) {
        ++out->failed;
        if (out->first_failure.empty()) {
          out->first_failure =
              command.text.substr(0, command.text.find('\n')) + " -> " +
              (response.ok() ? *response : response.status().ToString());
        }
        if (!response.ok()) {
          transport_down = true;
          break;
        }
        continue;
      }
      switch (command.op) {
        case OpClass::kEdit: out->edit_us.push_back(us); break;
        case OpClass::kGet: out->get_us.push_back(us); break;
        case OpClass::kGetRange: out->getrange_us.push_back(us); break;
      }
    }
    if (transport_down) break;
  }
  out->finished = Clock::now();
}

/// Parses a GETRANGE response into cell -> display text.
Status ParseRange(const std::string& response,
                  std::unordered_map<Cell, std::string>* values) {
  size_t pos = response.find('\n');
  while (pos != std::string::npos) {
    size_t begin = pos + 1;
    pos = response.find('\n', begin);
    std::string_view line(response.data() + begin,
                          (pos == std::string::npos ? response.size() : pos) -
                              begin);
    if (line == "END") return Status::OK();
    if (!line.starts_with("VALUE ")) {
      return Status::Internal("GETRANGE line '" + std::string(line) + "'");
    }
    line.remove_prefix(6);
    size_t space = line.find(' ');
    auto cell = ParseCellA1(line.substr(0, space));
    if (!cell.ok()) return cell.status();
    (*values)[*cell] = space == std::string_view::npos
                           ? std::string()
                           : std::string(line.substr(space + 1));
  }
  return Status::Internal("GETRANGE response without END");
}

/// Reads every formula cell of `bench` back through GETRANGE and compares
/// it with an oracle: the same .tsheet file, loaded in-process into a
/// RecalcEngine over a TacoGraph, with the workload's final edits
/// applied. Mismatches are appended to `result->gate_report`.
Status CheckSheet(SocketClient* control, const BenchSheet& bench,
                  const std::map<Cell, Edit>& edits, PassResult* result,
                  uint64_t* mismatches) {
  Result<Sheet> sheet = LoadSheetFile(bench.path);
  if (!sheet.ok()) return sheet.status();
  TacoGraph graph;
  TACO_RETURN_IF_ERROR(BuildGraphFromSheet(*sheet, &graph));
  RecalcEngine oracle(&*sheet, &graph);
  EditBatch batch;
  for (const auto& [cell, edit] : edits) batch.push_back(edit);
  if (!batch.empty()) {
    Result<RecalcResult> applied = oracle.ApplyBatch(batch);
    if (!applied.ok()) return applied.status();
  }

  const std::vector<Cell>& cells = bench.formula_cells;
  for (size_t first = 0; first < cells.size();) {
    // One column's formula rows, in chunks GETRANGE accepts.
    size_t last = first;
    while (last + 1 < cells.size() && cells[last + 1].col == cells[first].col &&
           cells[last + 1].row - cells[first].row < kGetRangeChunkRows) {
      ++last;
    }
    Range chunk(cells[first].col, cells[first].row, cells[last].col,
                cells[last].row);
    Result<std::string> response = Expect(
        control, "GETRANGE " + bench.session + " " + RangeToA1(chunk),
        "OK range");
    if (!response.ok()) return response.status();
    std::unordered_map<Cell, std::string> served;
    TACO_RETURN_IF_ERROR(ParseRange(*response, &served));
    for (size_t i = first; i <= last; ++i) {
      std::string expected = oracle.GetValue(cells[i]).ToString();
      auto it = served.find(cells[i]);
      const std::string& actual = it == served.end() ? std::string() : it->second;
      ++result->cells_checked;
      if (actual != expected) {
        if (++*mismatches <= kReportedMismatches) {
          result->gate_report += "  " + bench.session + "!" +
                                 CellToA1(cells[i]) + ": served '" + actual +
                                 "', oracle '" + expected + "'\n";
        }
      }
    }
    first = last + 1;
  }
  return Status::OK();
}

Status CheckFinalState(SocketClient* control,
                       const std::vector<BenchSheet>& sheets,
                       const FinalEdits& edits, PassResult* result) {
  static const std::map<Cell, Edit> kNoEdits;
  uint64_t mismatches = 0;
  for (size_t i = 0; i < sheets.size(); ++i) {
    auto it = edits.find(static_cast<int>(i));
    TACO_RETURN_IF_ERROR(CheckSheet(control, sheets[i],
                                    it == edits.end() ? kNoEdits : it->second,
                                    result, &mismatches));
  }
  result->correct = mismatches == 0;
  if (mismatches > kReportedMismatches) {
    result->gate_report += "  ... " +
                           std::to_string(mismatches - kReportedMismatches) +
                           " more\n";
  }
  return Status::OK();
}

Status FreshDirectory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create '" + dir + "'");
  return Status::OK();
}

}  // namespace

Result<PassResult> RunPass(const WorkloadSpec& spec,
                           const std::vector<BenchSheet>& sheets,
                           const PassConfig& config) {
  PassResult result;
  result.stderr_path = config.work_dir + "/taco_serve" +
                       (config.traced ? "-traced" : "") + ".stderr";
  std::error_code ec;
  std::filesystem::remove(result.stderr_path, ec);
  const std::string wal_dir = config.work_dir + "/wal";
  const std::vector<std::string> args = ServeArgs(spec, config, wal_dir);

  // Set-up: spawn to the last LOAD acknowledged. Repeated on fresh
  // daemons (and fresh WAL directories) so set-up time is a median; the
  // last daemon goes on to serve the timed phase without a warm-up —
  // first-touch evaluation is a cost users pay on every open.
  ServerProcess server;
  SocketClient control;
  for (int rep = 0; rep < std::max(1, config.setup_reps); ++rep) {
    if (rep > 0) {
      control.Close();
      TACO_RETURN_IF_ERROR(server.Stop());
    }
    if (spec.wal) TACO_RETURN_IF_ERROR(FreshDirectory(wal_dir));
    auto start = Clock::now();
    TACO_RETURN_IF_ERROR(
        server.Start(config.serve_binary, args, result.stderr_path, &control));
    for (const BenchSheet& sheet : sheets) {
      auto loaded = Expect(&control, "LOAD " + sheet.session + " " + sheet.path,
                           "OK loaded");
      if (!loaded.ok()) return loaded.status();
    }
    result.setup_s.push_back(SecondsBetween(start, Clock::now()));
  }
  if (config.traced) {
    auto scraped = Expect(&control, "METRICS", "OK metrics");
    if (!scraped.ok()) return scraped.status();
    result.metrics_after_load = std::move(*scraped);
  }

  // The timed phase: every client connected first, released together.
  const int clients = spec.clients;
  const uint64_t actions = std::max<uint64_t>(
      1, static_cast<uint64_t>(config.seconds * spec.actions_per_s / clients +
                               0.5));
  std::vector<SocketClient> connections(clients);
  std::vector<ClientScript> scripts;
  for (int c = 0; c < clients; ++c) {
    TACO_RETURN_IF_ERROR(connections[c].Connect("127.0.0.1", server.port()));
    scripts.emplace_back(spec, c, config.seed, sheets);
  }
  std::vector<ClientOutcome> outcomes(clients);
  std::latch start(1);
  Clock::time_point t0;
  Clock::time_point deadline;
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back(DriveClient, &connections[c], &scripts[c], actions,
                           &start, &deadline, &outcomes[c]);
    }
    t0 = Clock::now();
    // A guard, not the run length: counts end the phase. A daemon several
    // times slower than the reference still finishes in bounded time.
    deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(3 * config.seconds + 5));
    start.count_down();
  }
  Clock::time_point t_end = t0;
  FinalEdits final_edits;
  for (int c = 0; c < clients; ++c) {
    ClientOutcome& out = outcomes[c];
    t_end = std::max(t_end, out.finished);
    result.attempted += out.attempted;
    result.failed += out.failed;
    result.deadline_hit = result.deadline_hit || out.deadline_hit;
    if (result.first_failure.empty()) result.first_failure = out.first_failure;
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&result.edit_us, out.edit_us);
    append(&result.get_us, out.get_us);
    append(&result.getrange_us, out.getrange_us);
    for (const auto& [sheet, cells] : scripts[c].final_edits()) {
      final_edits[sheet].insert(cells.begin(), cells.end());
    }
    connections[c].Close();
  }
  result.phase_s = SecondsBetween(t0, t_end);

  auto scraped = Expect(&control, "METRICS", "OK metrics");
  if (!scraped.ok()) return scraped.status();
  result.metrics_after = std::move(*scraped);
  Result<double> rss = server.PeakRssMb();
  if (!rss.ok()) return rss.status();
  result.rss_mb = *rss;

  if (spec.wal) {
    // Durability: crash the daemon, restart it on the same WAL directory,
    // and let OPEN recover each session. Every acknowledged edit must be
    // back before the gate reads a single cell.
    server.Kill();
    control.Close();
    TACO_RETURN_IF_ERROR(
        server.Start(config.serve_binary, args, result.stderr_path, &control));
    double open_ms = 0;
    for (const BenchSheet& sheet : sheets) {
      auto sent = Clock::now();
      auto opened = Expect(&control, "OPEN " + sheet.session, "OK opened");
      if (!opened.ok()) return opened.status();
      open_ms += SecondsBetween(sent, Clock::now()) * 1e3;
    }
    result.recovery_ms = open_ms / static_cast<double>(sheets.size());
  }
  TACO_RETURN_IF_ERROR(
      CheckFinalState(&control, sheets, final_edits, &result));
  control.Close();
  TACO_RETURN_IF_ERROR(server.Stop());
  return result;
}

}  // namespace taco::e2e
