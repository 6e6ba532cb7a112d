// Protocol conformance: the socket transport must be invisible.
//
// Table-driven transcripts covering every protocol verb (OPEN LOAD SAVE
// CLOSE SET FORMULA GET GETRANGE CLEAR BATCH RECALC EXPLAIN STATS
// METRICS TRACE LIST) plus malformed
// traffic are replayed twice — as a byte stream through the
// CommandFramer taco_serve's stdin loop feeds, and through a real TCP
// connection —
// each against its own fresh service, and every response must come back
// byte-identical. The only tolerated difference is wall-clock noise:
// latency fields (find_ms, the STATS ms columns) and the STATS
// connection-counter line (a transport necessarily counts itself) are
// scrubbed before comparison; every other byte must match.
//
// The soak test then drives randomized protocol scripts
// (WorkloadGenerator's protocol-script mode) through a serial-oracle
// WorkbookSession and through the socket, asserting cell-for-cell
// equality over the whole sheet region. Scale with TACO_FUZZ_TRIALS.

#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "graph_test_util.h"
#include "net/socket_client.h"
#include "net/socket_server.h"
#include "service/protocol.h"
#include "service/workbook_service.h"

namespace taco {
namespace {

/// One scripted conversation. Commands are complete (BATCH bodies
/// included); `truncate_tail` cuts the final command's frame short on
/// the wire (half-close mid-BATCH) to exercise the EOF path, and
/// `closes_stream` marks transcripts whose last command poisons the
/// stream (unframeable BATCH header) so the socket side can assert the
/// hangup. A QUIT command ends the conversation wherever it appears.
/// `max_line_bytes` is the line cap on both transports.
struct Transcript {
  std::string name;
  std::vector<std::string> commands;
  bool truncate_tail = false;
  bool closes_stream = false;
  size_t max_line_bytes = CommandFramer::kDefaultMaxLineBytes;
};

/// Strips what may legitimately differ between two executions: latency
/// floats and the connection-counter line of the service STATS report.
/// VALUE lines pass through verbatim — cell values must be bit-equal.
///
/// METRICS and TRACE responses additionally scrub EVERY number: their
/// values are measurements (latency buckets, transport counters, span
/// timings) that necessarily differ across transports, while their
/// LAYOUT — the family/series/label structure and the span line fields
/// — is the contract and must match byte for byte.
std::string Scrub(const std::string& response) {
  static const std::regex kFloat("-?[0-9]+\\.[0-9]+");
  static const std::regex kConnections("connections [^\n]*");
  static const std::regex kNumber(
      "-?[0-9]+(\\.[0-9]+)?([eE][+-]?[0-9]+)?");
  bool scrub_all = response.starts_with("OK metrics") ||
                   response.starts_with("OK trace") ||
                   response.starts_with("OK explain");
  std::string out;
  size_t begin = 0;
  while (begin <= response.size()) {
    size_t end = response.find('\n', begin);
    std::string line = response.substr(
        begin, end == std::string::npos ? std::string::npos : end - begin);
    if (scrub_all) {
      line = std::regex_replace(line, kNumber, "#");
    } else if (!line.starts_with("VALUE")) {
      line = std::regex_replace(line, kConnections, "connections #");
      line = std::regex_replace(line, kFloat, "#");
    }
    out += line;
    if (end == std::string::npos) break;
    out += '\n';
    begin = end + 1;
  }
  return out;
}

/// Collects each emitted response, the way a stdout reader would see it.
class CapturingWriter : public ResponseWriter {
 public:
  bool Emit(std::string_view response) override {
    responses.emplace_back(response);
    return true;
  }
  std::vector<std::string> responses;
};

/// The stdin reference: the transcript's bytes through a CommandFramer,
/// then end of input — the calls taco_serve's stdin loop makes — against
/// a fresh service.
std::vector<std::string> RunOverStdin(const Transcript& transcript) {
  WorkbookService service;
  CommandProcessor processor(&service);
  CapturingWriter writer;
  CommandFramer framer(&processor, &writer, &service.metrics().transport(),
                       transcript.max_line_bytes);
  for (const std::string& command : transcript.commands) {
    framer.Feed(command + "\n");
  }
  framer.Finish();
  return writer.responses;
}

bool IsQuit(const std::string& command) {
  return command.starts_with("QUIT") || command.starts_with("EXIT");
}

std::vector<std::string> RunOverSocket(const Transcript& transcript) {
  WorkbookService service;
  SocketServerOptions options;
  options.max_line_bytes = transcript.max_line_bytes;
  SocketServer server(&service, options);
  EXPECT_TRUE(server.Start().ok());
  SocketClient client;
  EXPECT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  std::vector<std::string> responses;
  for (size_t i = 0; i < transcript.commands.size(); ++i) {
    const std::string& command = transcript.commands[i];
    if (IsQuit(command)) {
      // QUIT has no response: the server just closes. Whatever follows
      // is sent anyway and must never execute; the send itself may fail
      // once the server is gone, and the close may arrive as a reset.
      for (size_t j = i; j < transcript.commands.size(); ++j) {
        (void)client.SendCommand(transcript.commands[j]);
      }
      EXPECT_FALSE(client.ReadLine().ok()) << "stream should have closed";
      server.Shutdown();
      return responses;
    }
    bool last = i + 1 == transcript.commands.size();
    if (last && transcript.truncate_tail) {
      EXPECT_TRUE(client.SendCommand(command).ok());
      client.FinishWrites();
    } else {
      EXPECT_TRUE(client.SendCommand(command).ok());
    }
    auto response = client.ReadResponse();
    EXPECT_TRUE(response.ok())
        << transcript.name << " command " << i << ": "
        << response.status().ToString();
    if (!response.ok()) break;
    responses.push_back(*response);
  }
  if (transcript.closes_stream || transcript.truncate_tail) {
    EXPECT_EQ(client.ReadLine().status().code(), StatusCode::kUnavailable)
        << transcript.name << ": stream should have closed";
  }
  server.Shutdown();
  return responses;
}

void ExpectConformance(const Transcript& transcript) {
  SCOPED_TRACE(transcript.name);
  std::vector<std::string> stdin_responses = RunOverStdin(transcript);
  std::vector<std::string> socket_responses = RunOverSocket(transcript);
  ASSERT_EQ(stdin_responses.size(), socket_responses.size());
  for (size_t i = 0; i < stdin_responses.size(); ++i) {
    EXPECT_EQ(Scrub(stdin_responses[i]), Scrub(socket_responses[i]))
        << "command " << i << ": " << transcript.commands[i];
  }
}

std::string TempPath(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("taco_conformance_" + tag + "." + std::to_string(::getpid()) +
           ".tsheet"))
      .string();
}

TEST(ProtocolConformanceTest, EditReadVerbs) {
  ExpectConformance(
      {.name = "edit-read",
       .commands = {
           "OPEN wb",
           "OPEN wb2",
           "LIST",
           "SET wb A1 100",
           "SET wb A2 -3",
           "SET wb A3 quarterly",
           "SET wb A4 \"spaced text\"",
           "FORMULA wb B1 SUM(A1:A2)*2",
           "FORMULA wb B2 =B1+1",
           "GET wb A3",
           "GET wb B1",
           "GET wb B2",
           "GET wb Z99",
           "CLEAR wb A1:A2",
           "GET wb B1",
           "RECALC wb",
           "STATS wb",
           "CLOSE wb2",
           "LIST",
       }});
}

TEST(ProtocolConformanceTest, GetRangeVerb) {
  // The one multi-line data response: both transports must frame the
  // header + VALUE lines + terminator identically, including the first
  // read of a never-published session, the all-blank form (header + END
  // only), and every error shape.
  ExpectConformance(
      {.name = "getrange",
       .commands = {
           "OPEN wb",
           "GETRANGE wb A1:B2",  // First read publishes version 1.
           "SET wb A1 1",
           "SET wb A3 2.5",
           "FORMULA wb B2 A1*4",
           "GETRANGE wb A1:B3",  // Values in column-major order.
           "GETRANGE wb A1",     // Single-cell range.
           "GETRANGE wb D8:E9",  // All blank: header + END only.
           "GETRANGE wb",        // Usage error.
           "GETRANGE nosuch A1:B2",
           "GETRANGE wb A1:D20000",  // Over the area cap.
           "STATS wb",
       }});
}

TEST(ProtocolConformanceTest, PipelinedReadsComeBackInOrderAndFramed) {
  // A client may write a burst of commands before reading anything.
  // Responses must come back in submission order with the multi-line
  // GETRANGE frames intact — a framing bug would misattribute the
  // VALUE lines of one response to the next command's reply.
  WorkbookService service;
  SocketServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  SocketClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (const char* setup : {"OPEN wb", "SET wb A1 5", "FORMULA wb B1 A1*2"}) {
    auto response = client.Call(setup);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  const std::vector<std::string> burst = {
      "GET wb A1", "GETRANGE wb A1:B1", "GET wb B1",
      "GETRANGE wb A9:B9", "GET wb Z1"};
  for (const std::string& command : burst) {
    ASSERT_TRUE(client.SendCommand(command).ok());
  }
  const std::vector<std::string> expected = {
      "VALUE A1 5",
      "OK range A1:B1 version=2 cells=2\nVALUE A1 5\nVALUE B1 10\nEND",
      "VALUE B1 10",
      "OK range A9:B9 version=2 cells=0\nEND",
      "VALUE Z1 ",
  };
  for (size_t i = 0; i < expected.size(); ++i) {
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok())
        << "response " << i << ": " << response.status().ToString();
    EXPECT_EQ(*response, expected[i]) << "response " << i;
  }
  server.Shutdown();
}

TEST(ProtocolConformanceTest, BatchVerb) {
  ExpectConformance(
      {.name = "batch",
       .commands = {
           "OPEN wb",
           "BATCH wb 4\nSET A1 10\nSET A2 20\nFORMULA B1 SUM(A1:A2)\n"
           "SET C1 \"note\"",
           "GET wb B1",
           "BATCH wb 0",
           "BATCH wb 2\nSET A1 1\nFORMULA B9 NOSUCHFN(((",  // Bad edit.
           "GET wb A1",  // The failed batch applied nothing.
           "BATCH wb 1\nCLEAR A1:C9",
           "GET wb B1",
           "STATS wb",
       }});
}

TEST(ProtocolConformanceTest, PersistenceVerbs) {
  std::string path = TempPath("persist");
  std::string path2 = TempPath("persist2");
  ExpectConformance(
      {.name = "persistence",
       .commands = {
           "OPEN wb",
           "SET wb A1 7",
           "FORMULA wb B1 A1*6",
           "SAVE wb " + path,
           "SAVE wb",  // Bound path from the save above.
           "CLOSE wb",
           "LOAD back " + path,
           "GET back B1",
           "STATS back",
           "SAVE back " + path2,
           "LOAD dup " + path2,
           "GET dup B1",
           "LOAD back " + path,  // AlreadyExists.
           "CLOSE back",
           "CLOSE back",  // NotFound the second time.
       }});
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(ProtocolConformanceTest, MalformedTraffic) {
  ExpectConformance(
      {.name = "malformed",
       .commands = {
           "",              // Empty line.
           "   \t ",        // Whitespace only.
           "# a comment",
           "FROBNICATE x",  // Unknown verb.
           "OPEN",          // Usage.
           "OPEN wb sparkly-backend",  // Trailing token: usage.
           "OPEN wb",
           "LOAD wb f x",  // Trailing token: usage, before any file I/O.
           "GET nosuch A1",          // Bad session.
           "GET wb NOTACELL",        // Bad cell.
           "SET wb A1",              // Missing value.
           "FORMULA wb B1",          // Missing source.
           "FORMULA wb B1 SUM((((",  // Parse error.
           "CLEAR wb 99",            // Bad range.
           "RECALC wb warp-speed",
           "RECALC wb parallel",  // Mode words are gone: usage.
           "SET wb A1 5",  // Still serving after all of the above.
           "GET wb A1",
       }});
}

TEST(ProtocolConformanceTest, ServiceStatsReport) {
  ExpectConformance(
      {.name = "service-stats",
       .commands = {
           "OPEN wb",
           "SET wb A1 1",
           "FORMULA wb B1 A1+1",
           "GET wb B1",
           "STATS",  // Multi-line report, END-terminated.
           "STATS nosuch",
       }});
}

TEST(ProtocolConformanceTest, ObservabilityVerbs) {
  // METRICS and TRACE must render the same structure over both
  // transports: same families, same series in the same order, same span
  // lines — only the measured numbers (scrubbed) may differ. This is
  // what makes the exposition layout a stable contract rather than a
  // load-dependent accident.
  ExpectConformance(
      {.name = "observability",
       .commands = {
           "OPEN wb",
           "SET wb A1 1",
           "FORMULA wb B1 A1*2",
           "GET wb B1",
           "METRICS",
           "TRACE",     // Both spans (SET, FORMULA), newest first.
           "TRACE 1",   // Just the FORMULA span.
           "TRACE 0",   // Explicit "everything held".
           "TRACE -2",  // Usage error.
           "TRACE six", // Usage error.
           "METRICS",   // The first METRICS/TRACE calls are now counted.
       }});
}

TEST(ProtocolConformanceTest, ExplainVerb) {
  // EXPLAIN is a read-only dry run, so its PLAN/WAVE/EST structure must
  // be transport-independent like METRICS/TRACE: same lines in the same
  // order, with only the measured numbers (find_us, estimates) scrubbed.
  // The commands AFTER each EXPLAIN prove it committed nothing.
  ExpectConformance(
      {.name = "explain",
       .commands = {
           "OPEN wb",
           "SET wb A1 10",
           "FORMULA wb B1 A1*2",
           "FORMULA wb B2 B1+1",
           "FORMULA wb B3 SUM(B1:B2)",
           "EXPLAIN wb A1",      // Chain: B1 -> B2 -> B3.
           "GET wb B3",          // Unchanged by the dry run.
           "EXPLAIN wb A1:B3",   // Range target.
           "EXPLAIN wb Z99",     // No dependents: empty plan.
           "STATS wb",           // Same session stats on both transports.
           "EXPLAIN wb",         // Usage error.
           "EXPLAIN nosuch A1",  // Bad session.
           "EXPLAIN wb NOTACELL",
           "GET wb B3",
       }});
}

TEST(ProtocolConformanceTest, OverCapLines) {
  // Lines over the cap are dropped with one ERR each and the stream
  // survives; inside a BATCH body the dropped line keeps its slot.
  const std::string flood(400, 'X');
  ExpectConformance({.name = "over-cap-lines",
                     .commands = {"OPEN wb",
                                  "SET wb A1 " + flood,
                                  "BATCH wb 2\n" + flood + "\nSET A2 9",
                                  "GET wb A2",  // The batch applied nothing.
                                  "SET wb A1 5",
                                  "GET wb A1"},
                     .max_line_bytes = 256});
}

TEST(ProtocolConformanceTest, OverCapBatchHeaderPoisonsTheStream) {
  // The count sits in the dropped bytes, so the frame is unknowable:
  // ERR, then the stream closes before any body line runs.
  ExpectConformance(
      {.name = "over-cap-batch-header",
       .commands = {"OPEN wb",
                    "BATCH wb " + std::string(400, ' ') +
                        "3\nSET A1 1\nSET A2 2\nSET A3 3"},
       .closes_stream = true,
       .max_line_bytes = 256});
}

TEST(ProtocolConformanceTest, QuitMidStream) {
  // QUIT ends the stream without a response; nothing after it runs.
  ExpectConformance({.name = "quit-mid-stream",
                     .commands = {"OPEN wb", "SET wb A1 1", "GET wb A1",
                                  "QUIT", "SET wb A1 2", "GET wb A1"}});
}

TEST(ProtocolConformanceTest, TruncatedBatchAtEof) {
  // The stream ends inside a BATCH body; both transports execute the
  // partial frame at end of input identically.
  ExpectConformance({.name = "truncated-batch",
                     .commands = {"OPEN wb",
                                  "SET wb A1 3",
                                  "BATCH wb 3\nSET A1 5\nSET A2 6"},
                     .truncate_tail = true});
}

TEST(ProtocolConformanceTest, UnframeableBatchHeaderPoisonsTheStream) {
  // A BATCH count that cannot be framed: both transports report the
  // error and refuse to interpret anything after it (the shared framer
  // closes the stream).
  ExpectConformance({.name = "unframeable-batch",
                     .commands = {"OPEN wb", "BATCH wb 9999999"},
                     .closes_stream = true});
  ExpectConformance({.name = "unframeable-batch-nan",
                     .commands = {"OPEN wb", "BATCH wb seven"},
                     .closes_stream = true});
  // A missing or negative count is just as unframeable as a huge one.
  ExpectConformance({.name = "unframeable-batch-missing",
                     .commands = {"OPEN wb", "BATCH wb"},
                     .closes_stream = true});
  ExpectConformance({.name = "unframeable-batch-negative",
                     .commands = {"OPEN wb", "BATCH wb -1"},
                     .closes_stream = true});
}

// --- Randomized protocol soak ---------------------------------------

TEST(ProtocolSoakTest, RandomScriptsMatchSerialOracleCellForCell) {
  constexpr int kStepsPerScript = 60;
  constexpr int kMaxCol = 8;
  constexpr int kMaxRow = 30;
  const int trials = test::FuzzTrials(6);

  for (int trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));

    // The serial oracle: a bare WorkbookSession driven through the
    // session API — no protocol, no transport, no threads.
    WorkbookSession oracle("oracle", Sheet(), TacoGraph());

    // The system under test: the same script as wire traffic.
    WorkbookService service;
    SocketServer server(&service);
    ASSERT_TRUE(server.Start().ok());
    SocketClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(client.Call("OPEN wb")->starts_with("OK opened"));

    test::WorkloadGenerator gen(0x50AC + trial, kMaxCol, kMaxRow);
    for (int i = 0; i < kStepsPerScript; ++i) {
      auto step = gen.NextProtocolStep("wb");
      auto response = client.Call(step.command);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_TRUE(response->starts_with("OK") ||
                  response->starts_with("VALUE"))
          << step.command << " -> " << *response;
      for (const Edit& edit : step.edits) {
        switch (edit.kind) {
          case Edit::Kind::kSetNumber:
            ASSERT_TRUE(oracle.SetNumber(edit.cell, edit.number).ok());
            break;
          case Edit::Kind::kSetText:
            ASSERT_TRUE(oracle.SetText(edit.cell, edit.text).ok());
            break;
          case Edit::Kind::kSetFormula:
            ASSERT_TRUE(oracle.SetFormula(edit.cell, edit.text).ok());
            break;
          case Edit::Kind::kClearRange:
            ASSERT_TRUE(oracle.ClearRange(edit.range).ok());
            break;
        }
      }
    }

    // Cell-for-cell equality across the whole region, via the wire.
    for (int col = 1; col <= kMaxCol; ++col) {
      for (int row = 1; row <= kMaxRow; ++row) {
        Cell cell{col, row};
        std::string expected =
            "VALUE " + cell.ToString() + " " + oracle.GetValue(cell).ToString();
        auto actual = client.Call("GET wb " + cell.ToString());
        ASSERT_TRUE(actual.ok());
        EXPECT_EQ(*actual, expected) << cell.ToString();
      }
    }
    server.Shutdown();
  }
}

}  // namespace
}  // namespace taco
