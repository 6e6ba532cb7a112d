// TCP transport for the workbook service: a POSIX socket server that
// frames the line protocol and dispatches into the shared
// CommandProcessor, so socket clients and the stdin loop of taco_serve
// serve the SAME sessions, metrics, and recalc pools.
//
// Model: one accept thread plus one thread per connection. Each
// connection feeds its bytes to its own CommandFramer (protocol.h) — the
// same framing taco_serve's stdin loop uses: partial-line reassembly,
// BATCH bodies, the `max_line_bytes` bound, unframeable-header close,
// and EOF mid-frame. Every complete command executes synchronously on
// the connection's thread, and its response is written as one atomic
// unit (ResponseWriter contract). Two clients editing one session
// serialize on the session lock; a client's next command always
// observes its previous response's effects.
//
// Shutdown() is graceful: stop accepting, wake every connection (they
// finish the command in flight and emit its response first), join all
// threads, close every fd. A connection blocked on a stuck peer's full
// send buffer is aborted by the same wakeup, so Shutdown() always
// completes. Idle connections can be reaped with `idle_timeout_ms`.

#ifndef TACO_NET_SOCKET_SERVER_H_
#define TACO_NET_SOCKET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "service/protocol.h"
#include "service/workbook_service.h"

namespace taco {

/// One response from the HTTP handler (see SocketServerOptions).
struct HttpReply {
  int status = 200;  ///< 200 / 404 / 503; anything else renders bare.
  std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body;
};

struct SocketServerOptions {
  /// IPv4 address to bind. The default serves loopback only; a daemon
  /// deliberately exposed to a network binds "0.0.0.0".
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;            ///< 0 = ephemeral; read back via port().
  int max_clients = 64;         ///< Concurrent connections; extras refused.
  int idle_timeout_ms = 0;      ///< Close silent connections; 0 = never.
  /// Per-line bound (see CommandFramer).
  size_t max_line_bytes = CommandFramer::kDefaultMaxLineBytes;

  /// When set, this listener speaks minimal HTTP instead of the line
  /// protocol: a GET's path (query string stripped — Prometheus
  /// appends scrape parameters) is routed to this handler, anything
  /// non-GET is a 405, and every connection serves one request then
  /// closes (`Connection: close` is always sent). taco_serve's
  /// --metrics-port routes /metrics, /healthz, and /readyz through this
  /// so a stock Prometheus (and an orchestrator's probes) can hit the
  /// daemon with zero new threading machinery — the
  /// accept/drain/shutdown model is untouched. A 200 on /metrics is
  /// metered as a METRICS op, same histogram row as the protocol verb.
  std::function<HttpReply(std::string_view path)> http_handler;
};

/// The network daemon in front of one WorkbookService. `service` must
/// outlive the server. Start() binds and begins serving; Shutdown()
/// (also run by the destructor) drains and joins everything.
class SocketServer {
 public:
  explicit SocketServer(WorkbookService* service,
                        SocketServerOptions options = {});
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and starts the accept thread. Fails (IoError) when
  /// the address is unusable; safe to destroy the server afterwards.
  Status Start();

  /// The bound port (resolves an ephemeral request) — valid after a
  /// successful Start().
  uint16_t port() const { return port_; }

  /// Graceful stop: no new connections, in-flight commands finish and
  /// their responses are written, every connection thread is joined and
  /// every fd closed. Idempotent; returns only when fully quiesced.
  void Shutdown();

  /// Currently attached clients (0 after Shutdown()).
  int open_connections() const { return open_.load(); }

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;  ///< Server-unique, for conn.* log events.
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  /// One-request HTTP mode (options_.http_handler set): reads one
  /// request head, answers, closes. Uses the same wake pipe / idle
  /// timeout / WriteAll machinery as the line protocol.
  void ServeHttp(Connection* conn);
  /// Joins finished connection threads; with `all`, blocks until every
  /// connection (live ones were woken by Shutdown) has been joined.
  void Reap(bool all);
  /// Keep the per-server gauge (admission control, open_connections())
  /// and the service-wide STATS gauge moving in lockstep.
  void ConnectionOpened();
  void ConnectionClosed();

  WorkbookService* service_;
  CommandProcessor processor_;
  SocketServerOptions options_;

  int listen_fd_ = -1;
  /// Self-pipe: every poll() in the server also watches the read end;
  /// Shutdown() closes the write end, which wakes them all at once
  /// (readable-at-EOF) without any per-connection signaling.
  int wake_read_ = -1;
  int wake_write_ = -1;
  uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_{false};
  std::thread accept_thread_;

  mutable std::mutex conn_mu_;
  std::list<std::unique_ptr<Connection>> connections_;
  std::atomic<int> open_{0};
  std::atomic<uint64_t> next_conn_id_{1};
};

}  // namespace taco

#endif  // TACO_NET_SOCKET_SERVER_H_
