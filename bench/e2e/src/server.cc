#include "server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>

namespace taco::e2e {
namespace {

/// A loopback port nobody is bound to right now. taco_serve needs an
/// explicit port, so there is a window in which another process could
/// take it; Start retries on a fresh port when the child fails to bind.
Result<uint16_t> FreeLoopbackPort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Status status = Status::IoError(std::strerror(errno));
    ::close(fd);
    return status;
  }
  ::close(fd);
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

}  // namespace

ServerProcess::~ServerProcess() {
  if (pid_ > 0) Kill();
}

Status ServerProcess::Start(const std::string& binary,
                            const std::vector<std::string>& args,
                            const std::string& stderr_path,
                            SocketClient* control) {
  if (pid_ > 0) return Status::Internal("server already running");
  Status last = Status::Unavailable("taco_serve never started");
  for (int attempt = 0; attempt < 3; ++attempt) {
    Result<uint16_t> port = FreeLoopbackPort();
    if (!port.ok()) return port.status();
    std::vector<std::string> argv_strings = {binary, "--listen",
                                             std::to_string(*port)};
    argv_strings.insert(argv_strings.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& s : argv_strings) argv.push_back(s.data());
    argv.push_back(nullptr);

    int err_fd = ::open(stderr_path.c_str(),
                        O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (err_fd < 0) {
      return Status::IoError("cannot open '" + stderr_path +
                             "': " + std::strerror(errno));
    }
    pid_t parent = ::getpid();
    pid_t pid = ::fork();
    if (pid < 0) {
      ::close(err_fd);
      return Status::IoError(std::string("fork: ") + std::strerror(errno));
    }
    if (pid == 0) {
      // The daemon must not outlive taco_e2e, even when taco_e2e is
      // killed before it can clean up.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      int null_fd = ::open("/dev/null", O_RDWR);
      ::dup2(null_fd, STDIN_FILENO);
      ::dup2(null_fd, STDOUT_FILENO);
      ::dup2(err_fd, STDERR_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(err_fd);
    pid_ = pid;
    port_ = *port;

    // Ready means accepting connections: poll-connect the control client.
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
      if (control->Connect("127.0.0.1", port_).ok()) return Status::OK();
      int wstatus = 0;
      if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
        pid_ = -1;
        last = Status::Unavailable(
            "taco_serve exited during start-up (see " + stderr_path + ")");
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (pid_ > 0) {
      Kill();
      return Status::Unavailable("taco_serve did not accept connections");
    }
  }
  return last;
}

Result<double> ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return Status::Internal("server not running");
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return Status::IoError("no VmHWM for pid " + std::to_string(pid_));
}

bool ServerProcess::SignalAndWait(int signo, int timeout_ms) {
  ::kill(pid_, signo);
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int wstatus = 0;
    pid_t done = ::waitpid(pid_, &wstatus, WNOHANG);
    if (done == pid_ || (done < 0 && errno == ECHILD)) {
      pid_ = -1;
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Status ServerProcess::Stop() {
  if (pid_ <= 0) return Status::OK();
  if (SignalAndWait(SIGTERM, 20000)) return Status::OK();
  Kill();
  return Status::Unavailable("taco_serve ignored SIGTERM; killed");
}

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int wstatus = 0;
  while (::waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

}  // namespace taco::e2e
