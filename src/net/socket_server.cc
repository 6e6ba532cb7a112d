#include "net/socket_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "common/clock.h"
#include "obs/log.h"
#include "service/metrics.h"

namespace taco {
namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

const char* HttpStatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default:  return "Status";
  }
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void SetCloseOnExec(int fd) {
  int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

/// Poll outcome the connection/accept loops branch on.
enum class WaitResult { kReady, kWake, kTimeout, kError };

/// Waits for `events` on `fd` while also watching the shutdown pipe.
/// `timeout_ms` < 0 means forever.
WaitResult WaitFor(int fd, short events, int wake_fd, int timeout_ms) {
  struct pollfd fds[2];
  int r;
  do {
    fds[0] = {fd, events, 0};
    fds[1] = {wake_fd, POLLIN, 0};
    r = ::poll(fds, 2, timeout_ms);
    // Re-polling on EINTR restarts the idle window; close enough — a
    // signal storm should not masquerade as an idle client.
  } while (r < 0 && errno == EINTR);
  if (r < 0) return WaitResult::kError;
  if (r == 0) return WaitResult::kTimeout;
  // Shutdown wins over pending data: in-flight commands already finished
  // (we only poll between commands), so this is the drain point.
  if (fds[1].revents != 0) return WaitResult::kWake;
  if (fds[0].revents & (POLLERR | POLLNVAL)) return WaitResult::kError;
  return WaitResult::kReady;
}

/// Writes all of `data`, waiting for POLLOUT on the non-blocking fd and
/// aborting if the shutdown pipe wakes — a stuck peer must not be able
/// to wedge Shutdown(). Returns false when the connection is unusable.
bool WriteAll(int fd, std::string_view data, int wake_fd) {
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n > 0) {
      data.remove_prefix(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (WaitFor(fd, POLLOUT, wake_fd, -1) != WaitResult::kReady) {
        return false;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EPIPE / ECONNRESET / anything else: peer is gone.
  }
  return true;
}

/// ResponseWriter over one connection: a whole response (newline
/// appended) per Emit, written by the single connection thread, so
/// responses can never interleave on the wire.
class SocketResponseWriter : public ResponseWriter {
 public:
  SocketResponseWriter(int fd, int wake_fd) : fd_(fd), wake_fd_(wake_fd) {}

  bool Emit(std::string_view response) override {
    std::string framed;
    framed.reserve(response.size() + 1);
    framed.append(response);
    framed.push_back('\n');
    return WriteAll(fd_, framed, wake_fd_);
  }

 private:
  int fd_;
  int wake_fd_;
};

}  // namespace

SocketServer::SocketServer(WorkbookService* service,
                           SocketServerOptions options)
    : service_(service), processor_(service), options_(std::move(options)) {
  if (options_.max_clients < 1) options_.max_clients = 1;
  if (options_.max_line_bytes < 256) options_.max_line_bytes = 256;
}

SocketServer::~SocketServer() { Shutdown(); }

Status SocketServer::Start() {
  if (running_.load()) return Status::AlreadyExists("server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  SetCloseOnExec(listen_fd_);
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }
  // Non-blocking listener: poll-then-accept races (a connection that
  // RSTs away between the two calls) must surface as EAGAIN, not block
  // accept() past the wake pipe and wedge Shutdown().
  SetNonBlocking(listen_fd_);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    Status status = Errno("bind/listen " + options_.bind_address + ":" +
                          std::to_string(options_.port));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    Status status = Errno("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = ntohs(bound.sin_port);

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    Status status = Errno("pipe");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  SetCloseOnExec(wake_read_);
  SetCloseOnExec(wake_write_);

  shutdown_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SocketServer::Shutdown() {
  if (!running_.load()) return;
  if (!shutdown_.exchange(true)) {
    // Closing the write end makes the read end readable-at-EOF for every
    // poller at once — accept loop, idle reads, and stuck writes alike.
    ::close(wake_write_);
    wake_write_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  Reap(/*all=*/true);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_read_ >= 0) {
    ::close(wake_read_);
    wake_read_ = -1;
  }
  running_.store(false);
}

void SocketServer::Reap(bool all) {
  std::list<std::unique_ptr<Connection>> joinable;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (all) {
      joinable.swap(connections_);
    } else {
      for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->done.load()) {
          joinable.push_back(std::move(*it));
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  for (auto& conn : joinable) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void SocketServer::AcceptLoop() {
  TransportCounters& counters = service_->metrics().transport();
  while (!shutdown_.load()) {
    WaitResult wait = WaitFor(listen_fd_, POLLIN, wake_read_, -1);
    if (wait == WaitResult::kWake || wait == WaitResult::kError) break;
    if (wait == WaitResult::kTimeout) continue;

    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // Only a dead listening socket ends the loop. Everything else —
      // including fd exhaustion (EMFILE/ENFILE) and kernel memory
      // pressure (ENOBUFS/ENOMEM) — is transient: back off briefly
      // (wake-aware, so Shutdown stays prompt) and keep accepting,
      // rather than silently leaving the backlog to hang forever.
      if (errno == EBADF || errno == EINVAL || errno == ENOTSOCK) break;
      if (errno != EINTR && errno != EAGAIN && errno != ECONNABORTED) {
        std::fprintf(stderr, "taco_net: accept: %s (retrying)\n",
                     std::strerror(errno));
        WaitFor(listen_fd_, 0, wake_read_, 50);
      }
      continue;
    }
    SetCloseOnExec(fd);
    SetNonBlocking(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    obs::Logger* logger = service_->logger();
    if (open_.load() >= options_.max_clients) {
      counters.rejected.fetch_add(1);
      if (logger != nullptr) {
        logger->Log(obs::LogLevel::kWarn, "conn.reject",
                    {{"open", static_cast<uint64_t>(open_.load())},
                     {"max", static_cast<uint64_t>(options_.max_clients)}});
      }
      WriteAll(fd,
               "ERR Unavailable: too many clients (max " +
                   std::to_string(options_.max_clients) + ")\n",
               wake_read_);
      ::close(fd);
      continue;
    }

    counters.accepted.fetch_add(1);
    ConnectionOpened();

    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_.fetch_add(1);
    if (logger != nullptr) {
      // HTTP connections are per-scrape noise: keep them at debug so a
      // default info log records clients, not every probe.
      logger->Log(options_.http_handler ? obs::LogLevel::kDebug
                                        : obs::LogLevel::kInfo,
                  "conn.accept",
                  {{"conn", conn->id},
                   {"transport", options_.http_handler ? "http" : "line"}});
    }
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { ServeConnection(raw); });

    Reap(/*all=*/false);
  }
}

void SocketServer::ServeHttp(Connection* conn) {
  // Minimal, deliberately boring HTTP/1.0-style serving: one request
  // head, one response, close. A scraper opens a fresh connection per
  // scrape anyway, and single-shot keeps every hard HTTP problem
  // (pipelining, chunking, keep-alive timers) out of the daemon.
  std::string head;
  char chunk[4096];
  bool complete = false;
  while (!complete && !shutdown_.load()) {
    int timeout =
        options_.idle_timeout_ms > 0 ? options_.idle_timeout_ms : -1;
    WaitResult wait = WaitFor(conn->fd, POLLIN, wake_read_, timeout);
    if (wait != WaitResult::kReady) return;
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return;
    }
    if (n == 0) return;  // EOF before a complete request head.
    head.append(chunk, static_cast<size_t>(n));
    complete = head.find("\r\n\r\n") != std::string::npos ||
               head.find("\n\n") != std::string::npos;
    if (!complete && head.size() > options_.max_line_bytes) {
      return;  // A request head this large is not a scraper.
    }
  }
  if (!complete) return;

  std::string_view request = head;
  std::string_view line = request.substr(0, request.find('\n'));
  while (!line.empty() && (line.back() == '\r')) line.remove_suffix(1);
  size_t sp1 = line.find(' ');
  size_t sp2 = line.rfind(' ');
  std::string_view method =
      sp1 == std::string_view::npos ? line : line.substr(0, sp1);
  std::string_view target = (sp1 == std::string_view::npos || sp2 <= sp1)
                                ? std::string_view{}
                                : line.substr(sp1 + 1, sp2 - sp1 - 1);

  HttpReply reply;
  if (method != "GET") {
    reply.status = 405;
    reply.body = "only GET is served\n";
  } else {
    // The query string is scrape tooling's business, not the routing
    // table's: /metrics?collect[]=... must reach the same handler arm.
    std::string_view path = target.substr(0, target.find('?'));
    auto start = SteadyNow();
    reply = options_.http_handler(path);
    if (path == "/metrics" && reply.status == 200) {
      // An HTTP scrape is a METRICS op by another transport; it lands
      // in the same histogram row the protocol verb does.
      service_->metrics().Record(ServiceOp::kMetrics, NsSince(start),
                                 /*ok=*/true);
    }
  }
  std::string response = "HTTP/1.1 " + std::to_string(reply.status) + " " +
                         HttpStatusText(reply.status) +
                         "\r\nContent-Type: " + reply.content_type +
                         "\r\nContent-Length: " +
                         std::to_string(reply.body.size()) +
                         "\r\nConnection: close\r\n\r\n" + reply.body;
  WriteAll(conn->fd, response, wake_read_);
}

void SocketServer::ServeConnection(Connection* conn) {
  TransportCounters& counters = service_->metrics().transport();
  if (options_.http_handler) {
    ServeHttp(conn);
    ::close(conn->fd);
    conn->fd = -1;
    ConnectionClosed();
    if (obs::Logger* logger = service_->logger(); logger != nullptr) {
      logger->Log(obs::LogLevel::kDebug, "conn.close",
                  {{"conn", conn->id}, {"transport", "http"}});
    }
    Reap(/*all=*/false);
    conn->done.store(true);
    return;
  }
  SocketResponseWriter writer(conn->fd, wake_read_);
  CommandFramer framer(&processor_, &writer, &counters,
                       options_.max_line_bytes);

  char chunk[4096];
  bool peer_eof = false;
  while (!framer.closed() && !shutdown_.load()) {
    int timeout =
        options_.idle_timeout_ms > 0 ? options_.idle_timeout_ms : -1;
    WaitResult wait = WaitFor(conn->fd, POLLIN, wake_read_, timeout);
    if (wait == WaitResult::kWake || wait == WaitResult::kError) break;
    if (wait == WaitResult::kTimeout) {
      if (options_.idle_timeout_ms > 0) {
        counters.idle_closed.fetch_add(1);
        writer.Emit("ERR Unavailable: idle timeout, closing connection");
        break;
      }
      continue;
    }
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      break;
    }
    if (n == 0) {  // Peer finished writing (EOF / half-close).
      peer_eof = true;
      break;
    }
    framer.Feed(std::string_view(chunk, static_cast<size_t>(n)));
  }

  // EOF mid-frame executes what arrived, exactly like stdin at EOF.
  if (peer_eof && !shutdown_.load()) framer.Finish();

  ::close(conn->fd);
  conn->fd = -1;
  ConnectionClosed();
  if (obs::Logger* logger = service_->logger(); logger != nullptr) {
    logger->Log(obs::LogLevel::kInfo, "conn.close",
                {{"conn", conn->id}, {"transport", "line"}});
  }
  // Reap peers that finished before us so a quiet daemon does not hold
  // dead threads until the next accept. Our own entry is skipped (done
  // is still false here — a thread cannot join itself), and the chain
  // terminates because a thread only ever joins already-done peers.
  Reap(/*all=*/false);
  conn->done.store(true);
}

void SocketServer::ConnectionOpened() {
  open_.fetch_add(1);
  service_->metrics().transport().open.fetch_add(1);
}

void SocketServer::ConnectionClosed() {
  open_.fetch_sub(1);
  service_->metrics().transport().open.fetch_sub(1);
}

}  // namespace taco
