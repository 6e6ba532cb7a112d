// taco_serve: the workbook service speaking its text protocol — over
// stdin/stdout by default (one request line in, one response out,
// suitable for piping and scripting), or as a real TCP daemon with
// --listen <port> (src/net/socket_server.h): N concurrent clients share
// the same sessions, metrics, and recalc pools the stdin loop uses.
//
//   $ ./taco_serve [--recalc-threads N] [--cutoff] [--wal-dir DIR]
//                  [--max-resident N] [--metrics-port P] [--slow-op-ms T]
//                  [--log-file PATH] [--log-level L] [--log-format F]
//                  [script]
//   $ ./taco_serve --listen 7013 [--bind ADDR] [--max-clients N]
//                  [--idle-timeout-ms M] [--metrics-port P]
//                  [--drain-grace-ms M] [--rid-errors]
//
// --metrics-port also serves /healthz (process liveness) and /readyz
// (traffic readiness: 503 while draining after a shutdown signal, for
// --drain-grace-ms milliseconds before connections are torn down).
// --log-file writes structured events (JSON lines by default; "text"
// for logfmt) through a non-blocking bounded queue; SIGHUP reopens the
// file for logrotate without losing events.
//
// Stdin mode is one in-order connection on the main thread: the input
// goes through the same CommandFramer a socket connection uses, and each
// command executes before the next is read. In listen mode each
// connection executes its commands in arrival order on its own thread;
// SIGINT/SIGTERM shut down gracefully (in-flight commands finish and
// their responses are written before connections close).
//
// Diagnostics go to stderr; stdout carries only protocol responses.

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "net/socket_server.h"
#include "obs/log.h"
#include "service/exposition.h"
#include "service/protocol.h"
#include "service/workbook_service.h"

using namespace taco;

namespace {

int ParseIntArg(const char* text, int fallback) {
  int value = std::atoi(text);
  return value > 0 ? value : fallback;
}

/// Self-pipe for signal-safe shutdown: the handler only writes a byte;
/// main blocks reading the other end, then drains the server properly.
/// 'S' asks for shutdown, 'H' (SIGHUP) asks for a log-file reopen.
int g_signal_pipe[2] = {-1, -1};

/// True from the shutdown signal until connections are torn down;
/// /readyz answers 503 while set so load balancers stop routing here
/// during the --drain-grace-ms window.
std::atomic<bool> g_draining{false};

extern "C" void HandleShutdownSignal(int /*signo*/) {
  char byte = 'S';
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

extern "C" void HandleReopenSignal(int /*signo*/) {
  char byte = 'H';
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

/// Starts the HTTP listener when --metrics-port was given: /metrics
/// (Prometheus exposition), /healthz (process liveness), /readyz
/// (traffic readiness — 503 while draining). Returns null (and logs) on
/// failure — a daemon that can serve traffic but not scrapes should say
/// so and keep serving, while the stdin mode treats a broken flag as
/// fatal (the caller decides).
std::unique_ptr<SocketServer> StartMetricsServer(WorkbookService* service,
                                                 const std::string& bind,
                                                 uint16_t port) {
  SocketServerOptions opts;
  opts.bind_address = bind;
  opts.port = port;
  // Scrapes are short and serial; a small cap keeps a misbehaving
  // scraper from holding fds the protocol listener wants.
  opts.max_clients = 8;
  opts.idle_timeout_ms = 10000;
  opts.http_handler = [service](std::string_view path) -> HttpReply {
    HttpReply reply;
    if (path == "/metrics") {
      reply.body = RenderServiceExposition(*service);
    } else if (path == "/healthz") {
      // Liveness: answering at all is the signal.
      reply.content_type = "text/plain; charset=utf-8";
      reply.body = "ok\n";
    } else if (path == "/readyz") {
      reply.content_type = "text/plain; charset=utf-8";
      if (g_draining.load(std::memory_order_relaxed)) {
        reply.status = 503;
        reply.body = "draining\n";
      } else {
        reply.body = "ready\n";
      }
    } else {
      reply.status = 404;
      reply.body = "try /metrics, /healthz, or /readyz\n";
    }
    return reply;
  };
  auto server = std::make_unique<SocketServer>(service, opts);
  Status status = server->Start();
  if (!status.ok()) {
    std::fprintf(stderr, "cannot serve /metrics: %s\n",
                 status.ToString().c_str());
    return nullptr;
  }
  std::fprintf(stderr, "taco_serve metrics on http://%s:%u/metrics\n",
               bind.c_str(), server->port());
  return server;
}

int RunListenMode(WorkbookService* service, const SocketServerOptions& opts,
                  const std::string& metrics_bind, int metrics_port,
                  obs::Logger* logger, int drain_grace_ms) {
  SocketServer server(service, opts);
  Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "cannot listen: %s\n", status.ToString().c_str());
    return 1;
  }
  std::unique_ptr<SocketServer> metrics_server;
  if (metrics_port > 0) {
    metrics_server = StartMetricsServer(service, metrics_bind,
                                        static_cast<uint16_t>(metrics_port));
    if (metrics_server == nullptr) return 1;
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action {};
  action.sa_handler = HandleShutdownSignal;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  struct sigaction reopen {};
  reopen.sa_handler = HandleReopenSignal;
  sigemptyset(&reopen.sa_mask);
  ::sigaction(SIGHUP, &reopen, nullptr);

  std::fprintf(stderr,
               "taco_serve listening on %s:%u (max_clients=%d "
               "idle_timeout_ms=%d recalc_workers=%d)\n",
               opts.bind_address.c_str(), server.port(), opts.max_clients,
               opts.idle_timeout_ms, service->recalc_threads());
  if (logger != nullptr) {
    logger->Log(obs::LogLevel::kInfo, "server.start",
                {{"bind", opts.bind_address},
                 {"port", static_cast<uint64_t>(server.port())},
                 {"max_clients", static_cast<uint64_t>(opts.max_clients)}});
  }

  for (;;) {
    char byte;
    ssize_t n = ::read(g_signal_pipe[0], &byte, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // Pipe gone: treat as shutdown.
    if (byte == 'H') {
      // logrotate moved the file; swap to the new inode without losing
      // queued events (the writer performs the reopen between drains).
      if (logger != nullptr) {
        logger->RequestReopen();
        logger->Log(obs::LogLevel::kInfo, "log.reopen",
                    {{"path", logger->path()}});
      }
      continue;
    }
    break;  // 'S': shutdown.
  }

  // Drain: flip /readyz to 503 first so orchestrators stop routing new
  // work here, give them the grace window to notice, then tear down.
  g_draining.store(true, std::memory_order_relaxed);
  std::fprintf(stderr, "shutdown signal: draining %d connection(s)\n",
               server.open_connections());
  if (logger != nullptr) {
    logger->Log(
        obs::LogLevel::kInfo, "server.drain",
        {{"connections", static_cast<uint64_t>(server.open_connections())},
         {"grace_ms", static_cast<uint64_t>(drain_grace_ms)}});
  }
  if (drain_grace_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(drain_grace_ms));
  }
  server.Shutdown();
  const TransportCounters& t = service->metrics().transport();
  std::fprintf(stderr,
               "taco_serve done (connections=%llu commands=%llu)\n",
               static_cast<unsigned long long>(t.accepted.load()),
               static_cast<unsigned long long>(t.commands.load()));
  if (logger != nullptr) {
    logger->Log(obs::LogLevel::kInfo, "server.stop",
                {{"connections", t.accepted.load()},
                 {"commands", t.commands.load()}});
    logger->Flush();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  WorkbookServiceOptions options;
  SocketServerOptions socket_options;
  bool listen_mode = false;
  int metrics_port = 0;
  int drain_grace_ms = 0;
  obs::Logger::Options log_options;
  std::string log_file;
  const char* script_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--recalc-threads") == 0 && i + 1 < argc) {
      // 0 (the default) keeps the wave scheduler off, so the value must
      // parse fully — a typo silently becoming 0 would disable parallel
      // recalc without a trace (same hazard as --max-resident below).
      const char* text = argv[++i];
      char* end = nullptr;
      long value = std::strtol(text, &end, 10);
      if (end != text && *end == '\0' && value >= 0) {
        options.recalc_threads = static_cast<int>(value);
      } else {
        std::fprintf(stderr,
                     "ignoring --recalc-threads '%s' (not a non-negative "
                     "integer); keeping %d\n",
                     text, options.recalc_threads);
      }
    } else if (std::strcmp(argv[i], "--wal-dir") == 0 && i + 1 < argc) {
      // Fail up front on an unusable directory: discovering it per-edit
      // would leave every acknowledged edit applied in memory but not
      // durable — the opposite of what the flag promises.
      options.wal_dir = argv[++i];
      std::error_code ec;
      std::filesystem::create_directories(options.wal_dir, ec);
      if (ec || ::access(options.wal_dir.c_str(), W_OK | X_OK) != 0) {
        std::fprintf(stderr, "--wal-dir '%s' is not a writable directory\n",
                     options.wal_dir.c_str());
        return 1;
      }
    } else if (std::strcmp(argv[i], "--max-resident") == 0 && i + 1 < argc) {
      // 0 is meaningful here (disables the LRU bound entirely), so the
      // value must parse fully — '6O' silently becoming 0 would turn a
      // requested tight cap into no cap at all.
      const char* text = argv[++i];
      char* end = nullptr;
      long value = std::strtol(text, &end, 10);
      if (end != text && *end == '\0' && value >= 0) {
        options.max_resident_sessions = static_cast<size_t>(value);
      } else {
        std::fprintf(stderr,
                     "ignoring --max-resident '%s' (not a non-negative "
                     "integer); keeping %zu\n",
                     text, options.max_resident_sessions);
      }
    } else if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc) {
      int port = ParseIntArg(argv[++i], -1);
      if (port < 1 || port > 65535) {
        std::fprintf(stderr, "--listen needs a port in [1, 65535]\n");
        return 1;
      }
      socket_options.port = static_cast<uint16_t>(port);
      listen_mode = true;
    } else if (std::strcmp(argv[i], "--bind") == 0 && i + 1 < argc) {
      socket_options.bind_address = argv[++i];
    } else if (std::strcmp(argv[i], "--max-clients") == 0 && i + 1 < argc) {
      socket_options.max_clients =
          ParseIntArg(argv[++i], socket_options.max_clients);
    } else if (std::strcmp(argv[i], "--idle-timeout-ms") == 0 &&
               i + 1 < argc) {
      socket_options.idle_timeout_ms =
          ParseIntArg(argv[++i], socket_options.idle_timeout_ms);
    } else if (std::strcmp(argv[i], "--metrics-port") == 0 && i + 1 < argc) {
      int port = ParseIntArg(argv[++i], -1);
      if (port < 1 || port > 65535) {
        std::fprintf(stderr, "--metrics-port needs a port in [1, 65535]\n");
        return 1;
      }
      metrics_port = port;
    } else if (std::strcmp(argv[i], "--slow-op-ms") == 0 && i + 1 < argc) {
      // 0 (the default) disables slow-op logging, so the value must
      // parse fully; fractional thresholds are meaningful (a 200µs read
      // is slow for this service).
      const char* text = argv[++i];
      char* end = nullptr;
      double value = std::strtod(text, &end);
      if (end != text && *end == '\0' && value >= 0) {
        options.slow_op_ms = value;
      } else {
        std::fprintf(stderr,
                     "ignoring --slow-op-ms '%s' (not a non-negative "
                     "number); keeping %g\n",
                     text, options.slow_op_ms);
      }
    } else if (std::strcmp(argv[i], "--log-file") == 0 && i + 1 < argc) {
      log_file = argv[++i];
    } else if (std::strcmp(argv[i], "--log-level") == 0 && i + 1 < argc) {
      const char* text = argv[++i];
      if (!obs::ParseLogLevel(text, &log_options.level)) {
        std::fprintf(stderr,
                     "--log-level needs debug|info|warn|error, got '%s'\n",
                     text);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--log-format") == 0 && i + 1 < argc) {
      const char* text = argv[++i];
      if (!obs::ParseLogFormat(text, &log_options.format)) {
        std::fprintf(stderr, "--log-format needs json|text, got '%s'\n",
                     text);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--cutoff") == 0) {
      options.cutoff = true;
    } else if (std::strcmp(argv[i], "--group-commit") == 0) {
      options.group_commit = true;
    } else if (std::strcmp(argv[i], "--group-commit-max-delay-us") == 0 &&
               i + 1 < argc) {
      // 0 is meaningful (natural batching only), so parse fully rather
      // than letting a typo silently drop the coalescing window.
      const char* text = argv[++i];
      char* end = nullptr;
      long value = std::strtol(text, &end, 10);
      if (end != text && *end == '\0' && value >= 0 && value <= 1000000) {
        options.group_commit_max_delay_us = static_cast<uint32_t>(value);
      } else {
        std::fprintf(stderr,
                     "ignoring --group-commit-max-delay-us '%s' (needs an "
                     "integer in [0, 1000000]); keeping %u\n",
                     text, options.group_commit_max_delay_us);
      }
    } else if (std::strcmp(argv[i], "--rid-errors") == 0) {
      options.annotate_errors_with_rid = true;
    } else if (std::strcmp(argv[i], "--drain-grace-ms") == 0 &&
               i + 1 < argc) {
      drain_grace_ms = ParseIntArg(argv[++i], 0);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::fprintf(
          stderr,
          "usage: taco_serve [--recalc-threads N] [--cutoff] "
          "[--wal-dir DIR] "
          "[--group-commit] [--group-commit-max-delay-us U] "
          "[--max-resident N] [--metrics-port PORT] [--slow-op-ms T] "
          "[--log-file PATH] [--log-level debug|info|warn|error] "
          "[--log-format json|text] [--rid-errors] [script]\n"
          "       taco_serve --listen PORT [--bind ADDR] [--max-clients N] "
          "[--idle-timeout-ms M] [--drain-grace-ms M] [...]\n");
      return 0;
    } else {
      script_path = argv[i];
    }
  }

  // The logger outlives the service (sessions keep a raw pointer); its
  // destructor flushes whatever the queue still holds.
  std::unique_ptr<obs::Logger> logger;
  if (!log_file.empty()) {
    log_options.path = log_file;
    logger = obs::Logger::Open(log_options);
    if (logger == nullptr) {
      std::fprintf(stderr, "cannot open --log-file '%s'\n",
                   log_file.c_str());
      return 1;
    }
    options.logger = logger.get();
  }

  WorkbookService service(options);

  if (listen_mode) {
    if (script_path != nullptr) {
      std::fprintf(stderr, "--listen and a script file are exclusive\n");
      return 1;
    }
    return RunListenMode(&service, socket_options,
                         socket_options.bind_address, metrics_port,
                         logger.get(), drain_grace_ms);
  }

  // In stdin mode the scrape listener rides along so interactive runs
  // can be watched live; it binds loopback (stdin mode has no --bind).
  std::unique_ptr<SocketServer> metrics_server;
  if (metrics_port > 0) {
    metrics_server = StartMetricsServer(&service, "127.0.0.1",
                                        static_cast<uint16_t>(metrics_port));
    if (metrics_server == nullptr) return 1;
  }

  int input = STDIN_FILENO;
  if (script_path != nullptr) {
    input = ::open(script_path, O_RDONLY | O_CLOEXEC);
    if (input < 0) {
      std::fprintf(stderr, "cannot open script '%s'\n", script_path);
      return 1;
    }
  }

  std::fprintf(stderr,
               "taco_serve ready (recalc_workers=%d cutoff=%s "
               "wal=%s group_commit=%s max_resident=%zu)\n",
               service.recalc_threads(),
               options.cutoff ? "on" : "off",
               options.wal_dir.empty() ? "(off)" : options.wal_dir.c_str(),
               options.group_commit && !options.wal_dir.empty() ? "on"
                                                                : "off",
               options.max_resident_sessions);

  // One in-order connection: ::read returns whatever has arrived, so an
  // interactive client gets each response as soon as its line is in,
  // and the framer applies the same line cap, BATCH framing and QUIT /
  // EOF rules a socket connection does.
  CommandProcessor processor(&service);
  StdioResponseWriter writer(stdout);
  CommandFramer framer(&processor, &writer, &service.metrics().transport());
  char chunk[4096];
  while (!framer.closed()) {
    ssize_t n = ::read(input, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    framer.Feed(std::string_view(chunk, static_cast<size_t>(n)));
  }
  framer.Finish();
  return 0;
}
