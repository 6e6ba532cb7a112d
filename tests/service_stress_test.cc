// Multi-threaded service stress test with a serial oracle.
//
// Eight sessions, four writer threads (each owning two sessions so every
// session's command order is deterministic), plus reader threads firing
// cross-session GETs — mixed SET/FORMULA/BATCH/CLEAR/GET traffic through
// the text protocol. The oracle is a second, single-threaded service
// replaying the identical per-session command streams; every session must
// match it response-for-response (timing fields stripped) and
// cell-for-cell, and every BATCH must report exactly one recalc pass.
//
// Run under ThreadSanitizer in CI (cmake -DTACO_TSAN=ON); any lock-order
// or data-race bug in the service layer shows up here.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/a1.h"
#include "service/protocol.h"
#include "service/workbook_service.h"

namespace taco {
namespace {

constexpr int kSessions = 8;
constexpr int kWriterThreads = 4;
constexpr int kReaderThreads = 2;
constexpr int kCommandsPerSession = 60;
constexpr int kMaxCol = 6;
constexpr int kMaxRow = 24;

std::string CellName(int col, int row) {
  return ColumnToLetters(col) + std::to_string(row);
}

/// One deterministic edit line (no session name), as used inside BATCH.
/// Formulas only reference rows strictly above their own, keeping every
/// sheet a DAG so evaluation results are order-independent.
std::string RandomEditLine(std::mt19937* rng) {
  std::uniform_int_distribution<int> col(1, kMaxCol);
  std::uniform_int_distribution<int> pick(0, 9);
  int kind = pick(*rng);
  if (kind < 5) {  // SET number
    std::uniform_int_distribution<int> row(1, kMaxRow);
    std::uniform_int_distribution<int> value(-1000, 1000);
    return "SET " + CellName(col(*rng), row(*rng)) + " " +
           std::to_string(value(*rng));
  }
  if (kind < 8) {  // FORMULA over a band above the formula row
    std::uniform_int_distribution<int> row(2, kMaxRow);
    int r = row(*rng);
    std::uniform_int_distribution<int> prec_row(1, r - 1);
    int r1 = prec_row(*rng);
    int r2 = std::min(r - 1, r1 + 2);
    int c1 = col(*rng);
    int c2 = std::min(kMaxCol, c1 + 1);
    return "FORMULA " + CellName(col(*rng), r) + " SUM(" + CellName(c1, r1) +
           ":" + CellName(c2, r2) + ")+" + std::to_string(r);
  }
  // CLEAR a thin band.
  std::uniform_int_distribution<int> row(1, kMaxRow);
  int r1 = row(*rng);
  int r2 = std::min(kMaxRow, r1 + 1);
  int c1 = col(*rng);
  return "CLEAR " + CellName(c1, r1) + ":" + CellName(c1, r2);
}

/// The deterministic protocol command stream for one session.
std::vector<std::string> SessionCommands(int session_index) {
  std::mt19937 rng(0xC0FFEE + session_index);
  std::string name = "wb" + std::to_string(session_index);
  std::vector<std::string> commands;
  commands.push_back("OPEN " + name);
  std::uniform_int_distribution<int> pick(0, 9);
  for (int i = 0; i < kCommandsPerSession; ++i) {
    int kind = pick(rng);
    if (kind < 2) {  // In-stream GET: deterministic, oracle-checkable.
      std::uniform_int_distribution<int> col(1, kMaxCol);
      std::uniform_int_distribution<int> row(1, kMaxRow);
      commands.push_back("GET " + name + " " + CellName(col(rng), row(rng)));
    } else if (kind < 5) {  // BATCH of 2..6 edits, one merged recalc.
      std::uniform_int_distribution<int> size(2, 6);
      int n = size(rng);
      std::string command = "BATCH " + name + " " + std::to_string(n);
      for (int e = 0; e < n; ++e) command += "\n" + RandomEditLine(&rng);
      commands.push_back(std::move(command));
    } else {  // Single edit through the session-addressed form.
      std::string edit = RandomEditLine(&rng);
      size_t space = edit.find(' ');
      commands.push_back(edit.substr(0, space) + " " + name +
                         edit.substr(space));
    }
  }
  return commands;
}

/// Strips the volatile timing suffix ("... find_ms=0.123") so responses
/// compare deterministically.
std::string Normalize(const std::string& response) {
  size_t pos = response.find(" find_ms=");
  return pos == std::string::npos ? response : response.substr(0, pos);
}

bool IsMutating(const std::string& command) {
  return command.starts_with("SET") || command.starts_with("FORMULA") ||
         command.starts_with("CLEAR") || command.starts_with("BATCH");
}

TEST(ServiceStressTest, ConcurrentSessionsMatchSerialOracle) {
  std::vector<std::vector<std::string>> streams;
  streams.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) streams.push_back(SessionCommands(i));

  // --- Concurrent run: 4 writers (2 sessions each) + cross readers. ---
  WorkbookServiceOptions options;
  options.shards = 4;
  // Wave-parallel recalc inside every session, with thresholds forced to
  // zero so even these small dirty sets exercise the scheduler — the
  // serial oracle below proves determinism THROUGH the whole service
  // while TSan watches the scheduler run under real cross-session
  // concurrency.
  options.recalc_threads = 2;
  options.scheduler.min_parallel_cells = 1;
  options.scheduler.min_parallel_wave = 1;
  WorkbookService service(options);
  CommandProcessor processor(&service);

  std::vector<std::vector<std::string>> responses(kSessions);
  std::atomic<bool> writers_done{false};
  std::atomic<uint64_t> reader_gets{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriterThreads; ++t) {
    threads.emplace_back([&, t] {
      // Round-robin across the owned sessions, one command at a time, so
      // every thread keeps several session locks hot simultaneously.
      std::vector<int> owned;
      for (int s = t; s < kSessions; s += kWriterThreads) owned.push_back(s);
      for (size_t c = 0; c < streams[0].size(); ++c) {
        for (int session : owned) {
          if (c < streams[session].size()) {
            responses[session].push_back(
                processor.Execute(streams[session][c]));
          }
        }
      }
    });
  }
  for (int t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(0xBEEF + t);
      std::uniform_int_distribution<int> session(0, kSessions - 1);
      std::uniform_int_distribution<int> col(1, kMaxCol);
      std::uniform_int_distribution<int> row(1, kMaxRow);
      while (!writers_done.load()) {
        std::string name = "wb" + std::to_string(session(rng));
        std::string response = processor.Execute(
            "GET " + name + " " + CellName(col(rng), row(rng)));
        // Sessions appear as writers reach their OPEN; both outcomes are
        // legal under concurrency, crashes/races are not.
        EXPECT_TRUE(response.starts_with("VALUE") ||
                    response.starts_with("ERR NotFound"))
            << response;
        reader_gets.fetch_add(1);
        std::this_thread::yield();  // Don't starve writers on small hosts.
      }
    });
  }
  for (int t = 0; t < kWriterThreads; ++t) threads[t].join();
  writers_done.store(true);
  for (size_t t = kWriterThreads; t < threads.size(); ++t) threads[t].join();

  // --- Serial oracle: identical streams, one thread, fresh service. ---
  WorkbookService oracle;
  CommandProcessor oracle_processor(&oracle);
  std::vector<std::vector<std::string>> oracle_responses(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    for (const std::string& command : streams[i]) {
      oracle_responses[i].push_back(oracle_processor.Execute(command));
    }
  }

  // Every session: responses match the oracle line for line (timing
  // stripped) — this covers every in-stream GET value and every recalc
  // summary — and every BATCH reports exactly one merged recalc pass.
  for (int i = 0; i < kSessions; ++i) {
    ASSERT_EQ(responses[i].size(), oracle_responses[i].size());
    uint64_t batches = 0;
    for (size_t c = 0; c < responses[i].size(); ++c) {
      EXPECT_EQ(Normalize(responses[i][c]), Normalize(oracle_responses[i][c]))
          << "session " << i << " command " << c << ": " << streams[i][c];
      if (streams[i][c].starts_with("BATCH")) {
        ++batches;
        EXPECT_NE(responses[i][c].find("passes=1"), std::string::npos)
            << responses[i][c];
      }
    }
    EXPECT_GT(batches, 0u) << "stream " << i << " exercised no batches";
  }

  // Final state: cell-for-cell equality against the oracle replay, both
  // as stored content (snapshot) and as evaluated values.
  for (int i = 0; i < kSessions; ++i) {
    std::string name = "wb" + std::to_string(i);
    auto session = service.Get(name);
    auto oracle_session = oracle.Get(name);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(oracle_session.ok());
    EXPECT_EQ((*session)->Snapshot(), (*oracle_session)->Snapshot())
        << "session " << name;
    for (int col = 1; col <= kMaxCol; ++col) {
      for (int row = 1; row <= kMaxRow; ++row) {
        Cell cell{col, row};
        EXPECT_EQ((*session)->GetValue(cell),
                  (*oracle_session)->GetValue(cell))
            << name << " " << cell.ToString();
      }
    }
    // Recalc-pass accounting: one pass per mutating command, batch or not.
    uint64_t expected_passes = 0;
    for (const std::string& command : streams[i]) {
      if (IsMutating(command)) ++expected_passes;
    }
    SessionStats stats = (*session)->Stats();
    EXPECT_EQ(stats.recalc_passes, expected_passes) << name;
    EXPECT_EQ(stats.recalc_passes, (*oracle_session)->Stats().recalc_passes);
  }
}

// The LRU eviction machinery under real concurrency: six file-bound
// sessions over a residency cap of two, two writer threads mutating
// their own sessions while churn threads Get/read across all of them —
// so save+park, transparent reload, and the epoch/use_count park
// re-checks all fire repeatedly under TSan. No write may ever be lost
// to a park racing it.
TEST(ServiceStressTest, ConcurrentEvictionParkReloadLosesNoEdits) {
  constexpr int kBound = 6;
  constexpr int kRounds = 25;

  WorkbookServiceOptions options;
  options.shards = 2;
  options.max_resident_sessions = 2;
  WorkbookService service(options);

  auto session_name = [](int i) { return "ev" + std::to_string(i); };
  std::vector<std::string> paths(kBound);
  for (int i = 0; i < kBound; ++i) {
    paths[i] = (std::filesystem::temp_directory_path() /
                ("taco_evict_stress_" + std::to_string(i) + ".tsheet"))
                   .string();
    auto session = service.Open(session_name(i));
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*session)->SetNumber(Cell{1, 1}, 0).ok());
    ASSERT_TRUE(service.Save(session_name(i), paths[i]).ok());
  }

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {  // Writers: sessions i with i%2==t.
    threads.emplace_back([&, t] {
      for (int round = 1; round <= kRounds; ++round) {
        for (int i = t; i < kBound; i += 2) {
          // Every round may hit a parked session: Get transparently
          // reloads it, and the write must land on the reloaded state.
          auto session = service.Get(session_name(i));
          ASSERT_TRUE(session.ok()) << session.status().ToString();
          ASSERT_TRUE((*session)->SetNumber(Cell{1, 1}, round).ok());
          ASSERT_TRUE(
              (*session)->SetNumber(Cell{2, 1}, i * 1000.0 + round).ok());
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) {  // Churners: cross-session reads.
    threads.emplace_back([&, t] {
      std::mt19937 rng(0xEC0 + t);
      std::uniform_int_distribution<int> pick(0, kBound - 1);
      while (!done.load()) {
        auto session = service.Get(session_name(pick(rng)));
        if (session.ok()) (*session)->GetValue(Cell{1, 1});
        std::this_thread::yield();
      }
    });
  }
  for (int t = 0; t < 2; ++t) threads[t].join();
  done.store(true);
  for (size_t t = 2; t < threads.size(); ++t) threads[t].join();

  // Quiescent now: one more registry op must drain the backlog down to
  // the cap (nothing is pinned, everything is file-bound and savable).
  ASSERT_TRUE(service.Get(session_name(0)).ok());
  EXPECT_GT(service.evictions(), 0u);
  EXPECT_GT(service.parked_sessions(), 0u);

  // Every session — resident or parked — must carry its final writes.
  for (int i = 0; i < kBound; ++i) {
    auto session = service.Get(session_name(i));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_EQ((*session)->GetValue(Cell{1, 1}), Value::Number(kRounds))
        << session_name(i);
    EXPECT_EQ((*session)->GetValue(Cell{2, 1}),
              Value::Number(i * 1000.0 + kRounds))
        << session_name(i);
  }
  for (const std::string& path : paths) std::remove(path.c_str());
}

}  // namespace
}  // namespace taco
