// The benchmarked daemon as a child process: the shipped taco_serve
// binary, spawned with deployment and sizing flags only, on a free
// loopback port, its stderr captured to a file.

#ifndef TACO_E2E_SERVER_H_
#define TACO_E2E_SERVER_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/socket_client.h"

namespace taco::e2e {

class ServerProcess {
 public:
  ServerProcess() = default;
  /// Kills and reaps a child that is still running.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `binary --listen <port> <args...>` with stderr appended to
  /// `stderr_path`, and returns once `control` is connected to it.
  Status Start(const std::string& binary, const std::vector<std::string>& args,
               const std::string& stderr_path, SocketClient* control);

  uint16_t port() const { return port_; }

  /// Peak resident set size (VmHWM) of the running child, in MiB.
  Result<double> PeakRssMb() const;

  /// Graceful shutdown (SIGTERM), escalating to SIGKILL after 20 s.
  Status Stop();

  /// SIGKILL, as a crash: no drain, no flush beyond what was fsynced.
  void Kill();

 private:
  /// Sends `signo` and waits up to `timeout_ms` for the child to exit.
  bool SignalAndWait(int signo, int timeout_ms);

  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

}  // namespace taco::e2e

#endif  // TACO_E2E_SERVER_H_
