// service_client: a scripted driver for the workbook service and its
// text protocol — the client half of taco_serve. By default it links the
// service in-process (no pipes or sockets) and walks through a realistic
// session: open several workbooks, mix single edits with an EditBatch
// (one merged recalc for N edits), read values back, save/reload through
// .tsheet, and finish with the service STATS report.
//
// With `--connect host:port` the same driver speaks to a running
// `taco_serve --listen <port>` daemon over TCP instead (SocketClient),
// demonstrating that the wire responses match the in-process ones.
//
// With a script file argument it replays protocol commands from the
// file, printing each request/response pair (same framing rules as
// taco_serve), over whichever transport was selected.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "net/socket_client.h"
#include "service/protocol.h"
#include "service/workbook_service.h"

using namespace taco;

namespace {

/// One complete command in, one complete response out — either
/// CommandProcessor::Execute or SocketClient::Call behind the same shape.
using Transport = std::function<std::string(const std::string&)>;

void Run(const Transport& call, const std::string& command) {
  std::printf("> %s\n%s\n", command.c_str(), call(command).c_str());
}

int ReplayScript(const Transport& call, const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open script '%s'\n", path);
    return 1;
  }
  std::string line;
  while (std::getline(in, line)) {
    std::string command = line;
    int extra = CommandProcessor::ExtraBodyLines(line);
    if (extra < 0) {  // Unframeable BATCH header: same rule as taco_serve.
      Run(call, command);
      return 1;
    }
    for (; extra > 0; --extra) {
      std::string body;
      if (!std::getline(in, body)) break;
      command += "\n" + body;
    }
    Run(call, command);
  }
  return 0;
}

int Tour(const Transport& call) {
  std::printf("== open two workbooks ==\n");
  Run(call, "OPEN sales");
  Run(call, "OPEN forecast");
  Run(call, "LIST");

  std::printf("\n== single edits (one recalc each) ==\n");
  Run(call, "SET sales A1 100");
  Run(call, "SET sales A2 250");
  Run(call, "SET sales A3 75");
  Run(call, "FORMULA sales B1 SUM(A1:A3)");
  Run(call, "GET sales B1");

  std::printf("\n== a batch: 6 edits, ONE merged dirty-set + recalc ==\n");
  Run(call,
      "BATCH sales 6\n"
      "SET A1 110\n"
      "SET A2 260\n"
      "SET A3 85\n"
      "FORMULA B2 B1*2\n"
      "FORMULA B3 SUM(B1:B2)\n"
      "SET C1 \"quarterly total\"");
  Run(call, "GET sales B1");
  Run(call, "GET sales B2");
  Run(call, "GET sales B3");
  Run(call, "GET sales C1");

  std::printf("\n== independent sessions don't interfere ==\n");
  Run(call, "FORMULA forecast A1 1+1");
  Run(call, "GET forecast A1");
  Run(call, "GET sales A1");

  std::printf("\n== persistence round trip ==\n");
  // Unique per process: the example doubles as a ctest smoke test and
  // concurrent runs (build/ and build-tsan/) must not race on one file.
  std::string path =
      (std::filesystem::temp_directory_path() /
       ("taco_service_client_demo." + std::to_string(::getpid()) +
        ".tsnap"))
          .string();
  Run(call, "SAVE sales " + path);
  Run(call, "CLOSE sales");
  Run(call, "LOAD sales2 " + path);
  Run(call, "GET sales2 B3");

  std::printf("\n== storage layer: checkpoint + report ==\n");
  // CHECKPOINT is SAVE under its durability name (snapshot + WAL
  // rotation when the server runs --wal-dir); STORAGE shows where the
  // durable state lives.
  Run(call, "CHECKPOINT sales2");
  Run(call, "STORAGE sales2");
  std::remove(path.c_str());

  std::printf("\n== per-session and service stats ==\n");
  Run(call, "STATS sales2");
  Run(call, "STATS");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* connect_spec = nullptr;
  const char* script_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connect") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--connect needs a host:port operand\n");
        return 1;
      }
      connect_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::fprintf(stderr,
                   "usage: service_client [--connect host:port] [script]\n");
      return 0;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      // A typo'd flag must not be mistaken for a script path — the
      // resulting "cannot open script '--conect'" hides the real error.
      std::fprintf(stderr, "unknown flag '%s' (see --help)\n", argv[i]);
      return 1;
    } else {
      script_path = argv[i];
    }
  }

  if (connect_spec != nullptr) {
    std::string host;
    uint16_t port = 0;
    Status status = ParseHostPort(connect_spec, &host, &port);
    if (!status.ok()) {
      std::fprintf(stderr, "--connect: %s\n", status.ToString().c_str());
      return 1;
    }
    SocketClient client;
    status = client.Connect(host, port);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "connected to %s:%u\n", host.c_str(), port);
    Transport call = [&client](const std::string& command) {
      auto response = client.Call(command);
      return response.ok() ? *response
                           : "(transport) " + response.status().ToString();
    };
    return script_path != nullptr ? ReplayScript(call, script_path)
                                  : Tour(call);
  }

  WorkbookService service;
  CommandProcessor processor(&service);
  Transport call = [&processor](const std::string& command) {
    return processor.Execute(command);
  };
  return script_path != nullptr ? ReplayScript(call, script_path)
                                : Tour(call);
}
