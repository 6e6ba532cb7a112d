// bench_net_throughput: client-driven throughput of the socket
// transport — N concurrent TCP clients hammering one taco_net
// SocketServer with the protocol mix a spreadsheet front end produces
// (mostly single edits, some reads, some batches), measuring end-to-end
// commands/second and per-command round-trip latency through the full
// stack: framing -> CommandProcessor -> session lock -> recalc ->
// response write. The serving-path cost the paper's latency argument is
// about, now with the network in the loop.
//
// Profiles (TACO_BENCH_PROFILE): smoke 2 clients x 300 commands,
// default 4 x 3000, paper 8 x 20000.
//
// TACO_BENCH_LOG_FILE=<path> attaches a structured logger (obs/log.h)
// to the service at the production-default info level — exactly what
// `taco_serve --log-file` gives you. The harness runs the bench with
// and without it and gates on the throughput delta
// (docs/observability.md: logging must cost <5% on the SET path).
// TACO_BENCH_LOG_LEVEL=debug additionally emits one op.apply event per
// mutation through the async sink — the worst-case emit-path stress,
// reported but not gated (on a single-core host the writer thread
// necessarily steals serving cycles).
//
// TACO_BENCH_NET_WAL_DIR=<dir> runs the durable variant: every mutating
// command is WAL-logged and fsynced before its response. With
// TACO_BENCH_NET_GROUP_COMMIT=1 the sessions share one committer thread
// (`taco_serve --group-commit`) — the on/off pair shows what group
// commit buys with the network in the loop.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/socket_client.h"
#include "net/socket_server.h"
#include "obs/log.h"
#include "service/workbook_service.h"

using namespace taco;
using namespace taco::bench;

namespace {

struct ClientResult {
  uint64_t commands = 0;
  uint64_t errors = 0;
  std::vector<double> latency_ms;
};

ClientResult DriveClient(uint16_t port, int index, int commands) {
  ClientResult result;
  SocketClient client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    result.errors = static_cast<uint64_t>(commands);
    return result;
  }
  std::string session = "bench" + std::to_string(index);
  result.latency_ms.reserve(static_cast<size_t>(commands) + 1);

  auto timed = [&](const std::string& command) {
    TimerMs timer;
    auto response = client.Call(command);
    result.latency_ms.push_back(timer.ElapsedMs());
    ++result.commands;
    if (!response.ok() || response->starts_with("ERR")) ++result.errors;
  };

  timed("OPEN " + session);
  for (int i = 0; i < commands; ++i) {
    int row = 1 + i % 40;
    switch (i % 10) {
      case 0:
        timed("FORMULA " + session + " H" + std::to_string(row) + " SUM(A" +
              std::to_string(row) + ":F" + std::to_string(row) + ")");
        break;
      case 1:
      case 2:
        timed("GET " + session + " H" + std::to_string(row));
        break;
      case 3:
        timed("BATCH " + session + " 4\nSET A" + std::to_string(row) +
              " 1\nSET B" + std::to_string(row) + " 2\nSET C" +
              std::to_string(row) + " 3\nSET D" + std::to_string(row) +
              " 4");
        break;
      default:
        timed("SET " + session + " A" + std::to_string(row) + " " +
              std::to_string(i));
        break;
    }
  }
  return result;
}

}  // namespace

int main() {
  PrintHeader("Socket transport throughput (taco_net)",
              "service layer; no paper figure");

  int clients = 4;
  int commands = 3000;
  switch (ActiveBenchProfile()) {
    case BenchProfile::kSmoke:
      clients = 2;
      commands = 300;
      break;
    case BenchProfile::kPaper:
      clients = 8;
      commands = 20000;
      break;
    case BenchProfile::kDefault:
      break;
  }
  clients = EnvInt("TACO_BENCH_NET_CLIENTS", clients);
  commands = EnvInt("TACO_BENCH_NET_COMMANDS", commands);

  std::unique_ptr<obs::Logger> logger;
  const char* log_file = std::getenv("TACO_BENCH_LOG_FILE");
  if (log_file != nullptr && log_file[0] != '\0') {
    obs::Logger::Options log_options;
    log_options.path = log_file;
    if (const char* level = std::getenv("TACO_BENCH_LOG_LEVEL")) {
      if (!obs::ParseLogLevel(level, &log_options.level)) {
        std::fprintf(stderr, "bad TACO_BENCH_LOG_LEVEL %s\n", level);
        return 1;
      }
    }
    logger = obs::Logger::Open(log_options);
    if (logger == nullptr) {
      std::fprintf(stderr, "cannot open TACO_BENCH_LOG_FILE %s\n", log_file);
      return 1;
    }
  }

  WorkbookServiceOptions service_options;
  service_options.logger = logger.get();
  std::string wal_dir;
  if (const char* dir = std::getenv("TACO_BENCH_NET_WAL_DIR");
      dir != nullptr && dir[0] != '\0') {
    wal_dir = dir;
    service_options.wal_dir = wal_dir;
    service_options.group_commit = EnvInt("TACO_BENCH_NET_GROUP_COMMIT", 0) != 0;
  }
  WorkbookService service(service_options);
  SocketServer server(&service);
  Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("clients=%d commands/client=%d port=%u\n\n", clients, commands,
              server.port());

  std::vector<ClientResult> results(clients);
  TimerMs wall;
  {
    std::vector<std::thread> threads;
    threads.reserve(results.size());
    for (int i = 0; i < clients; ++i) {
      threads.emplace_back([&, i] {
        results[i] = DriveClient(server.port(), i, commands);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  double wall_ms = wall.ElapsedMs();
  server.Shutdown();

  TablePrinter table({"client", "commands", "errors", "p50 rtt", "p95 rtt",
                      "p99 rtt", "max rtt"});
  uint64_t total_commands = 0;
  uint64_t total_errors = 0;
  std::vector<double> all_latency;
  for (int i = 0; i < clients; ++i) {
    const ClientResult& r = results[i];
    total_commands += r.commands;
    total_errors += r.errors;
    all_latency.insert(all_latency.end(), r.latency_ms.begin(),
                       r.latency_ms.end());
    table.AddRow({std::to_string(i), std::to_string(r.commands),
                  std::to_string(r.errors), FormatMs(Percentile(r.latency_ms, 50)),
                  FormatMs(Percentile(r.latency_ms, 95)),
                  FormatMs(Percentile(r.latency_ms, 99)),
                  FormatMs(Percentile(r.latency_ms, 100))});
  }
  table.AddRow({"all", std::to_string(total_commands),
                std::to_string(total_errors),
                FormatMs(Percentile(all_latency, 50)),
                FormatMs(Percentile(all_latency, 95)),
                FormatMs(Percentile(all_latency, 99)),
                FormatMs(Percentile(all_latency, 100))});
  table.Print();

  double seconds = wall_ms / 1000.0;
  std::printf("\ntotal: %llu commands in %s -> %.0f commands/s "
              "(%d concurrent clients, loopback TCP)\n",
              static_cast<unsigned long long>(total_commands),
              FormatMs(wall_ms).c_str(),
              seconds > 0 ? double(total_commands) / seconds : 0.0, clients);

  if (!wal_dir.empty()) {
    const WalGroupCounters& g = service.metrics().wal_group();
    std::printf("durable: wal_dir=%s group_commit=%s group_flushes=%llu\n",
                wal_dir.c_str(),
                service_options.group_commit ? "on" : "off",
                static_cast<unsigned long long>(g.flushes.load()));
  }
  if (logger != nullptr) {
    logger->Flush();
    std::printf("structured log: %llu events written, %llu dropped (%s)\n",
                static_cast<unsigned long long>(logger->events_logged()),
                static_cast<unsigned long long>(logger->events_dropped()),
                logger->path().c_str());
  }
  return total_errors == 0 ? 0 : 1;
}
