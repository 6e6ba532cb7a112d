// Loopback integration tests for the socket transport (src/net): real
// TCP connections against a SocketServer on an ephemeral port.
//
// What must hold: concurrent clients of one workbook observe each
// other's edits (a response received means the edit is applied); torn
// and pipelined writes reassemble into the same commands stdin framing
// would produce; an oversized line is dropped with one ERR and the
// connection survives; an unframeable BATCH header closes the stream;
// EOF mid-frame executes the partial command; idle and over-capacity
// clients are turned away with an ERR line; and Shutdown() with clients
// attached drains in-flight commands, joins every thread, and leaves
// the service's sessions intact. The concurrent suites run under
// ThreadSanitizer in CI.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/socket_client.h"
#include "net/socket_server.h"
#include "service/protocol.h"
#include "service/workbook_service.h"

namespace taco {
namespace {

class NetTransportTest : public ::testing::Test {
 protected:
  void StartServer(SocketServerOptions options = {},
                   WorkbookServiceOptions service_options = {}) {
    service_ = std::make_unique<WorkbookService>(service_options);
    server_ = std::make_unique<SocketServer>(service_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  SocketClient Client() {
    SocketClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  static std::string Call(SocketClient* client, const std::string& command) {
    auto response = client->Call(command);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.value_or("(dead)");
  }

  std::unique_ptr<WorkbookService> service_;
  std::unique_ptr<SocketServer> server_;
};

TEST_F(NetTransportTest, ClientsShareSessionsAndObserveEachOthersEdits) {
  StartServer();
  SocketClient a = Client();
  SocketClient b = Client();

  EXPECT_TRUE(Call(&a, "OPEN wb").starts_with("OK opened wb"));
  EXPECT_TRUE(Call(&a, "SET wb A1 7").starts_with("OK set"));
  // a's response arrived, so the edit is applied: b must see it.
  EXPECT_EQ(Call(&b, "GET wb A1"), "VALUE A1 7");
  EXPECT_TRUE(Call(&b, "FORMULA wb B1 A1*3").starts_with("OK set"));
  EXPECT_EQ(Call(&a, "GET wb B1"), "VALUE B1 21");

  // Both transports share one service: the in-process processor sees
  // the socket clients' session...
  CommandProcessor processor(service_.get());
  EXPECT_EQ(processor.Execute("LIST"), "OK sessions wb");
  // ...and STATS (from either path) reports the attached connections.
  std::string stats = Call(&a, "STATS");
  EXPECT_NE(stats.find("connections open=2 accepted=2"), std::string::npos)
      << stats;
}

TEST_F(NetTransportTest, TornAndPipelinedWritesReassemble) {
  StartServer();
  SocketClient c = Client();
  ASSERT_TRUE(Call(&c, "OPEN wb").starts_with("OK opened"));

  // One command torn across four writes, CRLF-terminated.
  ASSERT_TRUE(c.WriteRaw("SE").ok());
  ASSERT_TRUE(c.WriteRaw("T wb A1 4").ok());
  ASSERT_TRUE(c.WriteRaw("2\r").ok());
  ASSERT_TRUE(c.WriteRaw("\n").ok());
  auto set_response = c.ReadResponse();
  ASSERT_TRUE(set_response.ok());
  EXPECT_TRUE(set_response->starts_with("OK set")) << *set_response;

  // Two commands pipelined in one write: two responses, in order.
  ASSERT_TRUE(c.WriteRaw("GET wb A1\nGET wb B9\n").ok());
  EXPECT_EQ(*c.ReadResponse(), "VALUE A1 42");
  EXPECT_EQ(*c.ReadResponse(), "VALUE B9 ");

  // A BATCH torn mid-body is still one frame and one merged recalc.
  ASSERT_TRUE(c.WriteRaw("BATCH wb 2\nSET A2 1\n").ok());
  ASSERT_TRUE(c.WriteRaw("SET A3 2\n").ok());
  auto batch_response = c.ReadResponse();
  ASSERT_TRUE(batch_response.ok());
  EXPECT_TRUE(batch_response->starts_with("OK batch edits=2"))
      << *batch_response;
  EXPECT_NE(batch_response->find("passes=1"), std::string::npos);
}

TEST_F(NetTransportTest, OversizedLineGetsErrAndConnectionSurvives) {
  SocketServerOptions options;
  options.max_line_bytes = 256;
  StartServer(options);
  SocketClient c = Client();
  ASSERT_TRUE(Call(&c, "OPEN wb").starts_with("OK opened"));

  // An unterminated flood: the ERR arrives while the line is still
  // open, proving the server bounded its buffering.
  ASSERT_TRUE(c.WriteRaw(std::string(400, 'X')).ok());
  auto err = c.ReadResponse();
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(*err, "ERR InvalidArgument: line exceeds 256 bytes");

  // Terminate the flood; the connection keeps serving.
  ASSERT_TRUE(c.WriteRaw(std::string(300, 'X') + "\n").ok());
  EXPECT_TRUE(Call(&c, "SET wb A1 5").starts_with("OK set"));

  // An oversized line that arrives already terminated, followed by a
  // pipelined command: one ERR, then the command runs.
  ASSERT_TRUE(c.WriteRaw(std::string(400, 'Y') + "\nGET wb A1\n").ok());
  EXPECT_EQ(*c.ReadResponse(), "ERR InvalidArgument: line exceeds 256 bytes");
  EXPECT_EQ(*c.ReadResponse(), "VALUE A1 5");

  // Inside a BATCH body the dropped line consumes its slot, so framing
  // never slips: the batch fails cleanly and the next command works.
  ASSERT_TRUE(
      c.WriteRaw("BATCH wb 2\n" + std::string(400, 'Z') + "\nSET A2 9\n")
          .ok());
  auto batch = c.ReadResponse();
  ASSERT_TRUE(batch.ok());
  EXPECT_NE(batch->find("batch line 1"), std::string::npos) << *batch;
  EXPECT_EQ(Call(&c, "GET wb A2"), "VALUE A2 ");  // Batch applied nothing.
  EXPECT_TRUE(Call(&c, "LIST").starts_with("OK sessions"));
}

TEST_F(NetTransportTest, OversizedBatchHeaderIsUnframeableAndCloses) {
  SocketServerOptions options;
  options.max_line_bytes = 256;
  StartServer(options);
  SocketClient c = Client();
  ASSERT_TRUE(Call(&c, "OPEN wb").starts_with("OK opened"));

  // The header's body-line count is somewhere in the dropped bytes, so
  // the frame is unknowable: the body lines that follow must NOT be
  // reinterpreted as commands — the server answers and hangs up.
  ASSERT_TRUE(c.WriteRaw("BATCH wb " + std::string(400, ' ') +
                         "3\nSET A1 1\nSET A2 2\nSET A3 3\n")
                  .ok());
  auto err = c.ReadResponse();
  ASSERT_TRUE(err.ok());
  EXPECT_NE(err->find("BATCH frame unknowable"), std::string::npos) << *err;
  EXPECT_EQ(c.ReadLine().status().code(), StatusCode::kUnavailable);

  // Leading whitespace must not defeat the detection (the normal path's
  // tokenizer skips it, so this is still a BATCH header).
  SocketClient d = Client();
  ASSERT_TRUE(d.WriteRaw("  \tBATCH wb " + std::string(400, 'x') +
                         "\nSET A1 1\n")
                  .ok());
  auto err2 = d.ReadResponse();
  ASSERT_TRUE(err2.ok());
  EXPECT_NE(err2->find("BATCH frame unknowable"), std::string::npos) << *err2;
  EXPECT_EQ(d.ReadLine().status().code(), StatusCode::kUnavailable);
}

TEST_F(NetTransportTest, UnframeableBatchHeaderClosesConnection) {
  StartServer();
  SocketClient c = Client();
  ASSERT_TRUE(Call(&c, "OPEN wb").starts_with("OK opened"));

  std::string response = Call(&c, "BATCH wb 99999999");
  EXPECT_TRUE(response.starts_with("ERR InvalidArgument")) << response;
  // The body length was unknowable, so the server hung up afterwards.
  auto next = c.ReadLine();
  EXPECT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kUnavailable);
}

TEST_F(NetTransportTest, EofMidBatchExecutesPartialFrame) {
  StartServer();
  SocketClient c = Client();
  ASSERT_TRUE(Call(&c, "OPEN wb").starts_with("OK opened"));

  ASSERT_TRUE(c.SendCommand("BATCH wb 3\nSET A1 5\nSET A2 6").ok());
  c.FinishWrites();
  auto response = c.ReadResponse();
  ASSERT_TRUE(response.ok());
  // Identical to what the stdin loop produces at EOF inside a body.
  EXPECT_NE(response->find("batch line 3"), std::string::npos) << *response;
  auto eof = c.ReadLine();
  EXPECT_EQ(eof.status().code(), StatusCode::kUnavailable);
}

TEST_F(NetTransportTest, IdleTimeoutClosesConnectionWithAnErrLine) {
  SocketServerOptions options;
  options.idle_timeout_ms = 100;
  StartServer(options);
  SocketClient c = Client();
  ASSERT_TRUE(Call(&c, "OPEN wb").starts_with("OK opened"));

  // Stay silent; the server must say why before hanging up.
  auto line = c.ReadLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(*line, "ERR Unavailable: idle timeout, closing connection");
  EXPECT_EQ(c.ReadLine().status().code(), StatusCode::kUnavailable);
}

TEST_F(NetTransportTest, MaxClientsRefusedWithErrLineThenReadmitted) {
  SocketServerOptions options;
  options.max_clients = 1;
  StartServer(options);

  SocketClient first = Client();
  ASSERT_TRUE(Call(&first, "OPEN wb").starts_with("OK opened"));

  SocketClient second = Client();
  auto refusal = second.ReadLine();
  ASSERT_TRUE(refusal.ok());
  EXPECT_EQ(*refusal, "ERR Unavailable: too many clients (max 1)");
  EXPECT_EQ(second.ReadLine().status().code(), StatusCode::kUnavailable);

  // Freeing the slot readmits (the close is observed asynchronously, so
  // poll with a bounded retry loop rather than one racy attempt).
  first.Close();
  bool admitted = false;
  for (int attempt = 0; attempt < 100 && !admitted; ++attempt) {
    SocketClient retry;
    ASSERT_TRUE(retry.Connect("127.0.0.1", server_->port()).ok());
    auto response = retry.Call("GET wb A1");
    if (response.ok() && response->starts_with("VALUE")) {
      admitted = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(admitted);
}

TEST_F(NetTransportTest, QuitClosesTheConnectionSilently) {
  StartServer();
  SocketClient c = Client();
  ASSERT_TRUE(Call(&c, "OPEN wb").starts_with("OK opened"));
  ASSERT_TRUE(c.SendCommand("QUIT").ok());
  EXPECT_EQ(c.ReadLine().status().code(), StatusCode::kUnavailable);
}

TEST_F(NetTransportTest, ShutdownWithClientsAttachedLeavesNoLeaks) {
  StartServer();
  constexpr int kClients = 4;

  // Each client keeps a command stream going until the server goes
  // away. Every response it does receive must be complete and
  // well-formed — shutdown may cut the session short but never a
  // response in half.
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  std::atomic<int> malformed{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      SocketClient c;
      if (!c.Connect("127.0.0.1", server_->port()).ok()) return;
      std::string session = "wb" + std::to_string(i);
      if (!c.SendCommand("OPEN " + session).ok()) return;
      if (!c.ReadResponse().ok()) return;
      for (int op = 0; !stop.load(); op = (op + 1) % 100) {
        auto response =
            c.Call("SET " + session + " A1 " + std::to_string(op));
        if (!response.ok()) break;  // Server drained us: fine.
        if (!(response->starts_with("OK") || response->starts_with("ERR") ||
              response->starts_with("VALUE"))) {
          malformed.fetch_add(1);
        }
      }
    });
  }

  // Let traffic build, then pull the plug mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->Shutdown();
  stop.store(true);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(malformed.load(), 0);
  EXPECT_EQ(server_->open_connections(), 0);
  EXPECT_EQ(service_->metrics().transport().open.load(), 0);

  // The sessions the clients opened belong to the service, not the
  // transport: they survive the transport's death and stay reachable
  // in-process (no session leaked, none lost).
  CommandProcessor processor(service_.get());
  for (int i = 0; i < kClients; ++i) {
    std::string session = "wb" + std::to_string(i);
    std::string response = processor.Execute("GET " + session + " A1");
    EXPECT_TRUE(response.starts_with("VALUE A1")) << response;
  }

  // A fresh transport can be stood up over the same service.
  server_ = std::make_unique<SocketServer>(service_.get());
  ASSERT_TRUE(server_->Start().ok());
  SocketClient again = Client();
  EXPECT_TRUE(Call(&again, "GET wb0 A1").starts_with("VALUE A1"));
  server_->Shutdown();
}

// Mixed concurrent traffic — own session plus a shared one — exercising
// the accept path, per-connection framing, and the shared service under
// TSan. Values on the shared session race by design; well-formedness
// and per-client self-consistency are the assertions.
TEST_F(NetTransportTest, ConcurrentClientsMixedTrafficSoak) {
  StartServer();

  {
    SocketClient setup = Client();
    ASSERT_TRUE(Call(&setup, "OPEN shared").starts_with("OK opened"));
  }

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 60;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      SocketClient c;
      if (!c.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      std::string own = "own" + std::to_string(i);
      auto check = [&](const std::string& command, const char* prefix) {
        auto response = c.Call(command);
        if (!response.ok() || !response->starts_with(prefix)) {
          failures.fetch_add(1);
        }
      };
      check("OPEN " + own, "OK opened");
      for (int op = 0; op < kOpsPerClient; ++op) {
        switch (op % 5) {
          case 0:
            check("SET " + own + " A" + std::to_string(1 + op % 9) + " " +
                      std::to_string(op),
                  "OK set");
            break;
          case 1:
            check("FORMULA " + own + " B1 SUM(A1:A9)", "OK set");
            break;
          case 2:
            check("SET shared C" + std::to_string(1 + i) + " " +
                      std::to_string(op),
                  "OK set");
            break;
          case 3:
            check("GET shared C" + std::to_string(1 + i), "VALUE");
            break;
          default:
            check("BATCH " + own + " 2\nSET A1 " + std::to_string(op) +
                      "\nFORMULA B2 A1*2",
                  "OK batch");
            break;
        }
      }
      // Own-session state is not racy: the last writes must read back.
      check("GET " + own + " B2", "VALUE B2 ");
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const TransportCounters& counters = service_->metrics().transport();
  EXPECT_EQ(counters.accepted.load(), static_cast<uint64_t>(kClients + 1));
  EXPECT_GE(counters.commands.load(),
            static_cast<uint64_t>(kClients * kOpsPerClient));
}

}  // namespace
}  // namespace taco
