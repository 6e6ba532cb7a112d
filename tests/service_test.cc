// Workbook service + protocol unit tests: session registry semantics
// (open/load/save/close, LRU parking + transparent reload), protocol
// round trips including BATCH framing, and metrics.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/exposition.h"
#include "service/protocol.h"
#include "service/workbook_service.h"
#include "sheet/textio.h"

namespace taco {
namespace {

std::string TempPath(const std::string& stem) {
  return (std::filesystem::temp_directory_path() / stem).string();
}

TEST(WorkbookServiceTest, OpenIsIdempotentAndCloseDrops) {
  WorkbookService service;
  auto a = service.Open("book");
  ASSERT_TRUE(a.ok());
  auto b = service.Open("book");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->get(), b->get());
  EXPECT_EQ(service.resident_sessions(), 1u);

  ASSERT_TRUE(service.Close("book").ok());
  EXPECT_EQ(service.resident_sessions(), 0u);
  EXPECT_EQ(service.Get("book").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Close("book").code(), StatusCode::kNotFound);
}

TEST(WorkbookServiceTest, SessionOpsRecalculateAndReport) {
  WorkbookService service;
  auto session = *service.Open("book");
  ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 5).ok());
  ASSERT_TRUE(session->SetFormula(Cell{2, 1}, "A1*3").ok());
  EXPECT_EQ(session->GetValue(Cell{2, 1}), Value::Number(15));

  EditBatch batch;
  batch.push_back(Edit::SetNumber(Cell{1, 1}, 10));
  batch.push_back(Edit::SetFormula(Cell{2, 2}, "B1+1"));
  auto result = session->ApplyBatch(batch);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->recalc_passes, 1u);
  EXPECT_EQ(session->GetValue(Cell{2, 2}), Value::Number(31));

  SessionStats stats = session->Stats();
  EXPECT_TRUE(stats.dirty);
  EXPECT_GE(stats.edits, 4u);
  OpStats batch_stats = service.metrics().Get(ServiceOp::kBatch);
  EXPECT_EQ(batch_stats.count, 1u);
  EXPECT_EQ(batch_stats.recalc_passes, 1u);
}

TEST(WorkbookServiceTest, SaveLoadRoundTrip) {
  std::string path = TempPath("taco_service_roundtrip.tsnap");
  WorkbookService service;
  {
    auto session = *service.Open("src");
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 2).ok());
    ASSERT_TRUE(session->SetFormula(Cell{1, 2}, "A1*A1").ok());
    ASSERT_TRUE(service.Save("src", path).ok());
    EXPECT_EQ(session->bound_path(), path);
    EXPECT_FALSE(session->Stats().dirty);
  }
  auto loaded = service.Load("copy", path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->GetValue(Cell{1, 2}), Value::Number(4));
  // A no-op batch must not mark a clean session unsaved.
  ASSERT_TRUE((*loaded)->ApplyBatch({}).ok());
  EXPECT_FALSE((*loaded)->Stats().dirty);
  // A second load under the same name collides.
  EXPECT_EQ(service.Load("copy", path).status().code(),
            StatusCode::kAlreadyExists);
  std::remove(path.c_str());
}

TEST(WorkbookServiceTest, LruEvictionParksAndReloadsTransparently) {
  WorkbookServiceOptions options;
  options.max_resident_sessions = 2;
  WorkbookService service(options);

  // Three file-bound sessions under a cap of two: the LRU one parks.
  std::string paths[3];
  for (int i = 0; i < 3; ++i) {
    std::string name = "wb" + std::to_string(i);
    paths[i] = TempPath("taco_service_lru_" + std::to_string(i) + ".tsnap");
    auto session = *service.Open(name);
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, i * 100.0).ok());
    ASSERT_TRUE(service.Save(name, paths[i]).ok());
  }
  EXPECT_EQ(service.resident_sessions(), 2u);
  EXPECT_EQ(service.parked_sessions(), 1u);
  EXPECT_EQ(service.evictions(), 1u);

  // wb0 was least recently used; Get reloads it from its file with its
  // data intact.
  auto reloaded = service.Get("wb0");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*reloaded)->GetValue(Cell{1, 1}), Value::Number(0));
  EXPECT_EQ((*reloaded)->bound_path(), paths[0]);

  // A closed name must stay closed: Close drops the parked entry too, so
  // a later Get cannot resurrect it from the parked map.
  ASSERT_TRUE(service.Close("wb1").ok() || service.Close("wb2").ok());
  for (const std::string& path : paths) std::remove(path.c_str());
}

TEST(WorkbookServiceTest, FailedParkedReloadKeepsTheParkedEntry) {
  WorkbookServiceOptions options;
  options.max_resident_sessions = 1;
  WorkbookService service(options);

  std::string path = TempPath("taco_service_repark.tsnap");
  auto first = *service.Open("first");
  ASSERT_TRUE(first->SetNumber(Cell{1, 1}, 1).ok());
  ASSERT_TRUE(service.Save("first", path).ok());
  first.reset();  // Only the registry holds it now: evictable.
  ASSERT_TRUE(service.Open("other").ok());  // Cap 1: parks "first".
  ASSERT_EQ(service.parked_sessions(), 1u);

  // Break the backing file: reload must fail WITHOUT consuming the
  // parked entry, so the name stays bound to its data instead of being
  // recreated empty on the next open.
  std::remove(path.c_str());
  EXPECT_EQ(service.Get("first").status().code(), StatusCode::kIoError);
  EXPECT_EQ(service.parked_sessions(), 1u);
  EXPECT_EQ(service.Open("first").status().code(), StatusCode::kIoError);

  // Restoring the file makes the same name reloadable again.
  Sheet sheet;
  ASSERT_TRUE(sheet.SetNumber(Cell{1, 1}, 1).ok());
  ASSERT_TRUE(SaveSheetFile(sheet, path).ok());
  auto reloaded = service.Get("first");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*reloaded)->GetValue(Cell{1, 1}), Value::Number(1));
  std::remove(path.c_str());
}

TEST(WorkbookServiceTest, UnboundSessionsArePinnedResident) {
  WorkbookServiceOptions options;
  options.max_resident_sessions = 1;
  WorkbookService service(options);
  ASSERT_TRUE(service.Open("a").ok());
  ASSERT_TRUE(service.Open("b").ok());
  // No backing files: nothing can be parked losslessly, the cap is soft.
  EXPECT_EQ(service.resident_sessions(), 2u);
  EXPECT_EQ(service.evictions(), 0u);
}

// A metrics scrape observes residency; it must not change it. Rendering
// per-session gauges through Get would re-stamp every session's LRU tick
// in name order, so the next eviction would follow names, not recency.
TEST(WorkbookServiceTest, MetricsScrapeDoesNotReorderLruEviction) {
  WorkbookServiceOptions options;
  options.max_resident_sessions = 2;
  WorkbookService service(options);
  std::string paths[3];
  for (int i = 0; i < 3; ++i) {
    paths[i] =
        TempPath("taco_service_scrape_lru_" + std::to_string(i) + ".tsheet");
    Sheet sheet;
    ASSERT_TRUE(sheet.SetNumber(Cell{1, 1}, i).ok());
    ASSERT_TRUE(SaveSheetFile(sheet, paths[i]).ok());
  }
  ASSERT_TRUE(service.Load("a", paths[0]).ok());
  ASSERT_TRUE(service.Load("b", paths[1]).ok());
  ASSERT_TRUE(service.Get("b").ok());  // Recency, oldest first: b, a.
  ASSERT_TRUE(service.Get("a").ok());

  std::string scrape = RenderServiceExposition(service);
  EXPECT_NE(scrape.find("taco_session_cells{session=\"b\"}"),
            std::string::npos);

  ASSERT_TRUE(service.Load("c", paths[2]).ok());  // Over the cap: one parks.
  EXPECT_EQ(service.parked_sessions(), 1u);
  EXPECT_EQ(service.SessionNames(), (std::vector<std::string>{"a", "c"}));
  for (const std::string& path : paths) std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

class ProtocolTest : public ::testing::Test {
 protected:
  WorkbookService service_;
  CommandProcessor processor_{&service_};

  std::string Run(const std::string& command) {
    return processor_.Execute(command);
  }
};

TEST_F(ProtocolTest, OpenSetFormulaGetRoundTrip) {
  EXPECT_EQ(Run("OPEN book"), "OK opened book");
  EXPECT_TRUE(Run("SET book A1 2.5").starts_with("OK set")) << Run("LIST");
  EXPECT_TRUE(Run("FORMULA book B1 A1*4").starts_with("OK set"));
  EXPECT_EQ(Run("GET book B1"), "VALUE B1 10");
  EXPECT_TRUE(Run("SET book C1 \"hello world\"")
                  .starts_with("OK set edits=1 dirty=0 recalced=0 passes=1"));
  EXPECT_EQ(Run("GET book C1"), "VALUE C1 hello world");
}

TEST_F(ProtocolTest, ErrorsComeBackAsErrLines) {
  EXPECT_TRUE(Run("GET nosuch A1").starts_with("ERR NotFound:"));
  EXPECT_TRUE(Run("FLY book").starts_with("ERR InvalidArgument:"));
  EXPECT_TRUE(Run("OPEN").starts_with("ERR InvalidArgument: usage:"));
  // A trailing token that used to choose a graph is refused, not ignored.
  EXPECT_EQ(Run("OPEN book nocomp"),
            "ERR InvalidArgument: usage: OPEN <session>");
  EXPECT_EQ(Run("LOAD book f x"),
            "ERR InvalidArgument: usage: LOAD <session> <path>");
  EXPECT_EQ(Run("LIST"), "OK sessions");
  Run("OPEN book");
  EXPECT_TRUE(Run("SET book ZZZZZZZ99 1").starts_with("ERR"));
  EXPECT_TRUE(Run("FORMULA book A1 SUM((").starts_with("ERR ParseError:"));
  EXPECT_TRUE(Run("SAVE book").starts_with("ERR InvalidArgument:"));
}

TEST_F(ProtocolTest, BatchAppliesAtomicallyOrderedEditsWithOneRecalc) {
  Run("OPEN book");
  std::string response = Run(
      "BATCH book 4\n"
      "SET A1 1\n"
      "SET A2 2\n"
      "FORMULA A3 SUM(A1:A2)\n"
      "SET A1 10");
  EXPECT_TRUE(response.starts_with("OK batch edits=4")) << response;
  EXPECT_NE(response.find("passes=1"), std::string::npos) << response;
  EXPECT_EQ(Run("GET book A3"), "VALUE A3 12");

  // A malformed edit line reports its 1-based position.
  std::string bad = Run("BATCH book 2\nSET A1 3\nNOPE A2 4");
  EXPECT_TRUE(bad.starts_with("ERR InvalidArgument: batch line 2")) << bad;
  // And the batch was rejected before touching the session.
  EXPECT_EQ(Run("GET book A1"), "VALUE A1 10");
}

TEST_F(ProtocolTest, ExtraBodyLinesFramesBatchOnly) {
  EXPECT_EQ(CommandProcessor::ExtraBodyLines("BATCH book 3"), 3);
  EXPECT_EQ(CommandProcessor::ExtraBodyLines("batch book 12"), 12);
  EXPECT_EQ(CommandProcessor::ExtraBodyLines("SET book A1 1"), 0);
  EXPECT_EQ(CommandProcessor::ExtraBodyLines("STATS"), 0);
  // Unusable counts make the frame boundary unknowable: -1 tells the
  // transport to report the error and close instead of re-interpreting
  // body lines as commands addressed to other sessions.
  EXPECT_EQ(CommandProcessor::ExtraBodyLines("BATCH book"), -1);
  EXPECT_EQ(CommandProcessor::ExtraBodyLines("BATCH book -2"), -1);
  EXPECT_EQ(CommandProcessor::ExtraBodyLines("BATCH book nine"), -1);
}

TEST_F(ProtocolTest, OversizedBatchCountIsAProtocolErrorNotACrash) {
  // A hostile count must neither swallow the stream nor reserve memory.
  EXPECT_EQ(CommandProcessor::ExtraBodyLines("BATCH book 999999999"), -1);
  Run("OPEN book");
  std::string response = Run("BATCH book 999999999");
  EXPECT_TRUE(response.starts_with("ERR InvalidArgument:")) << response;
  EXPECT_NE(response.find("exceeds the limit"), std::string::npos);
}

// A one-line FORMULA with 20,000 terms fits under the 64 KiB line cap,
// and a tree that deep would overflow the stack of whatever walks it.
// The parser's nesting bound must turn it into an ERR line, and the
// processor must keep serving.
TEST_F(ProtocolTest, DeepFormulaIsAnErrorNotACrash) {
  Run("OPEN book");
  std::string deep = "FORMULA book A1 1";
  for (int i = 1; i < 20000; ++i) deep += "+1";
  ASSERT_LT(deep.size(), 64u * 1024);
  std::string response = Run(deep);
  EXPECT_TRUE(response.starts_with("ERR ParseError:")) << response;
  EXPECT_TRUE(Run("SET book A1 5").starts_with("OK set"));
  EXPECT_EQ(Run("GET book A1"), "VALUE A1 5");
}

TEST_F(ProtocolTest, StatsAndListReport) {
  Run("OPEN alpha");
  Run("OPEN beta");
  Run("SET alpha A1 1");
  EXPECT_EQ(Run("LIST"), "OK sessions alpha beta");

  std::string session_stats = Run("STATS alpha");
  EXPECT_TRUE(session_stats.starts_with("OK session=alpha cells=1 "))
      << session_stats;
  std::string service_stats = Run("STATS");
  EXPECT_TRUE(service_stats.starts_with("OK service resident=2"))
      << service_stats;
  EXPECT_NE(service_stats.find("OPEN"), std::string::npos);
  EXPECT_NE(service_stats.find("SET"), std::string::npos);
  EXPECT_TRUE(service_stats.ends_with("END"));
}

TEST(WorkbookServiceTest, CutoffSessionsRunWavesAndMatchSerial) {
  WorkbookServiceOptions cutoff_options;
  cutoff_options.cutoff = true;
  WorkbookService cutoff_service(cutoff_options);
  WorkbookService serial_service;

  auto waves = *cutoff_service.Open("book");
  auto serial = *serial_service.Open("book");
  for (auto& session : {waves, serial}) {
    EditBatch setup;
    setup.push_back(Edit::SetNumber(Cell{1, 1}, 7));
    for (int r = 1; r <= 50; ++r) {
      setup.push_back(
          Edit::SetFormula(Cell{2, r}, "$A$1*" + std::to_string(r)));
    }
    ASSERT_TRUE(session->ApplyBatch(setup).ok());
  }
  auto wresult = waves->SetNumber(Cell{1, 1}, 3);
  auto sresult = serial->SetNumber(Cell{1, 1}, 3);
  ASSERT_TRUE(wresult.ok());
  ASSERT_TRUE(sresult.ok());
  EXPECT_EQ(wresult->recalculated, sresult->recalculated);
  EXPECT_EQ(wresult->waves, 1u);
  EXPECT_EQ(sresult->waves, 0u);
  for (const Cell& cell : EnumerateCells(Range(1, 1, 2, 50))) {
    EXPECT_EQ(waves->GetValue(cell), serial->GetValue(cell))
        << cell.ToString();
  }

  // The session stats surface the wave metrics.
  SessionStats stats = waves->Stats();
  EXPECT_GE(stats.waves, 1u);
  EXPECT_GE(stats.max_wave_cells, 50u);
}

TEST(WorkbookServiceTest, SaveRefusesATsheetPathAndWritesNothing) {
  std::string bound = TempPath("taco_service_bound.tsnap");
  std::string text = TempPath("taco_service_refused.tsheet");
  std::remove(text.c_str());
  WorkbookService service;
  auto session = *service.Open("book");
  ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 4).ok());
  ASSERT_TRUE(service.Save("book", bound).ok());
  ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 5).ok());
  ASSERT_TRUE(session->Stats().dirty);

  for (Status status : {service.Save("book", text), session->Checkpoint(text)}) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
  EXPECT_FALSE(std::filesystem::exists(text));
  // Binding and dirty flag are untouched: the next path-less save still
  // goes to the snapshot bound above.
  EXPECT_EQ(session->bound_path(), bound);
  EXPECT_TRUE(session->Stats().dirty);
  ASSERT_TRUE(service.Save("book").ok());
  EXPECT_FALSE(session->Stats().dirty);
  std::remove(bound.c_str());
}

TEST(WorkbookServiceTest, ConcurrentOpensOfAParkedSessionLoadOnce) {
  WorkbookServiceOptions options;
  options.max_resident_sessions = 1;
  WorkbookService service(options);

  std::string path = TempPath("taco_service_inflight.tsnap");
  {
    auto first = *service.Open("first");
    ASSERT_TRUE(first->SetNumber(Cell{1, 1}, 42).ok());
    ASSERT_TRUE(service.Save("first", path).ok());
  }
  ASSERT_TRUE(service.Open("other").ok());  // Cap 1: parks "first".
  ASSERT_EQ(service.parked_sessions(), 1u);

  // Many threads race to reload the parked name. Exactly one runs the
  // file I/O (behind the InFlight placeholder, outside the shard lock);
  // the rest wait on the placeholder and must all get THE SAME session
  // with the saved data — never a fresh empty one.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<WorkbookSession>> sessions(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto result = service.Open("first");
      if (result.ok()) sessions[i] = *result;
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_NE(sessions[0], nullptr);
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_NE(sessions[i], nullptr) << "open " << i << " failed";
    EXPECT_EQ(sessions[i].get(), sessions[0].get());
  }
  EXPECT_EQ(sessions[0]->GetValue(Cell{1, 1}), Value::Number(42));
  std::remove(path.c_str());
}

TEST_F(ProtocolTest, RecalcCommandReportsCutoffAndRejectsModeWords) {
  // Recalc runs on the session thread; there is no mode to switch, so
  // the old mode words are usage errors.
  Run("OPEN book");
  EXPECT_EQ(Run("RECALC book"), "OK recalc book cutoff=off");
  EXPECT_TRUE(Run("RECALC book parallel")
                  .starts_with("ERR InvalidArgument: usage"));
  EXPECT_TRUE(Run("RECALC book serial")
                  .starts_with("ERR InvalidArgument: usage"));
  EXPECT_TRUE(Run("RECALC").starts_with("ERR InvalidArgument: usage"));
  EXPECT_TRUE(Run("RECALC book sideways").starts_with("ERR InvalidArgument"));

  std::string stats = Run("STATS book");
  EXPECT_NE(stats.find("waves="), std::string::npos) << stats;
  std::string service_stats = Run("STATS");
  EXPECT_TRUE(service_stats.starts_with("OK service resident=1 parked=0 "
                                        "evictions=0\n"))
      << service_stats;
}

TEST_F(ProtocolTest, ExplainRunLengthEncodesEqualWaves) {
  // B1 reads the edit directly (never prunable); B2..B6 are one-cell
  // links that may prune: two wave shapes, so two wave lines, while
  // PLAN keeps the true wave count.
  Run("OPEN wb");
  Run("SET wb A1 1");
  Run("FORMULA wb B1 A1+1");
  for (int r = 2; r <= 6; ++r) {
    Run("FORMULA wb B" + std::to_string(r) + " B" + std::to_string(r - 1) +
        "+1");
  }
  std::string serial = Run("EXPLAIN wb A1");
  EXPECT_NE(serial.find("\nPLAN granularity=serial-inline "
                        "decision=cutoff(off) formulas=6 edges=0 waves=0 "),
            std::string::npos)
      << serial;
  EXPECT_EQ(serial.find("\nWAVE"), std::string::npos) << serial;

  Run("RECALC wb cutoff on");
  std::string waves = Run("EXPLAIN wb A1");
  EXPECT_TRUE(waves.starts_with("OK explain session=wb target=A1 seeds=1 "))
      << waves;
  EXPECT_NE(waves.find(" waves=6 max_wave_cells=1 cycle_cells=0\n"
                       "WAVE 1 cells=1 cutoff_eligible=0\n"
                       "WAVES 2..6 cells=1 cutoff_eligible=1\n"
                       "EST "),
            std::string::npos)
      << waves;
}

TEST_F(ProtocolTest, RecalcCutoffTogglePrunesAndReportsInStats) {
  // The cutoff toggle survives round trips and actually prunes: an
  // absorbing IF chain edited upstream
  // re-evaluates only up to the absorber, and STATS counts the rest as
  // cells_skipped.
  Run("OPEN wb");
  EXPECT_EQ(Run("RECALC wb cutoff on"), "OK recalc wb cutoff=on");
  EXPECT_EQ(Run("RECALC wb cutoff off"), "OK recalc wb cutoff=off");
  EXPECT_TRUE(Run("RECALC wb cutoff sideways")
                  .starts_with("ERR InvalidArgument: usage"));
  EXPECT_TRUE(Run("RECALC wb cutoff").starts_with("ERR InvalidArgument"));
  EXPECT_TRUE(Run("RECALC wb cutoff on extra")
                  .starts_with("ERR InvalidArgument: usage"));
  EXPECT_EQ(Run("RECALC wb cutoff on"), "OK recalc wb cutoff=on");

  // A1 -> B1 = IF(A1>100,1,0) -> C1 = B1+1 -> D1 = C1+1. Priming pass
  // first (cutoff needs cached priors), then an absorbed edit: A1=5 ->
  // A1=6 keeps B1 at 0, so C1 and D1 prune.
  Run("SET wb A1 5");
  Run("FORMULA wb B1 IF(A1>100,1,0)");
  Run("FORMULA wb C1 B1+1");
  Run("FORMULA wb D1 C1+1");
  Run("SET wb A1 6");
  std::string stats = Run("STATS wb");
  EXPECT_NE(stats.find("cutoff=on"), std::string::npos) << stats;
  EXPECT_NE(stats.find("cells_skipped=2"), std::string::npos) << stats;
  EXPECT_EQ(Run("GET wb D1"), "VALUE D1 2");
  EXPECT_EQ(Run("GET wb B1"), "VALUE B1 0");

  // An edit that DOES flip the absorber re-evaluates everything below.
  Run("SET wb A1 500");
  EXPECT_EQ(Run("GET wb D1"), "VALUE D1 3");
  std::string explain = Run("EXPLAIN wb A1");
  EXPECT_NE(explain.find("cutoff=on"), std::string::npos) << explain;
}

TEST(WorkbookServiceTest, StorageCountersTrackWalAndCheckpoints) {
  // The storage satellite: checkpoints / wal_records / wal_bytes /
  // recoveries / recovered_records must be visible in ServiceMetrics and
  // on the STATS report.
  std::string wal_dir = TempPath("taco_service_counters_wal");
  std::string snap = TempPath("taco_service_counters.snap");
  {
    WorkbookServiceOptions options;
    options.wal_dir = wal_dir;
    WorkbookService service(options);
    auto session = *service.Open("book");
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 1).ok());
    ASSERT_TRUE(session->SetFormula(Cell{2, 1}, "A1*2").ok());
    const StorageCounters& st = service.metrics().storage();
    EXPECT_EQ(st.wal_records.load(), 2u);
    EXPECT_GT(st.wal_bytes.load(), 0u);
    EXPECT_EQ(st.checkpoints.load(), 0u);
    ASSERT_TRUE(service.Save("book", snap).ok());
    EXPECT_EQ(st.checkpoints.load(), 1u);
    ASSERT_TRUE(session->SetNumber(Cell{1, 2}, 5).ok());
    EXPECT_EQ(st.wal_records.load(), 3u);
    EXPECT_EQ(st.recoveries.load(), 0u);
  }
  {
    // A new service over the same WAL dir: OPEN recovers snapshot + the
    // one post-checkpoint record.
    WorkbookServiceOptions options;
    options.wal_dir = wal_dir;
    WorkbookService service(options);
    CommandProcessor processor(&service);
    EXPECT_EQ(processor.Execute("OPEN book"), "OK opened book");
    const StorageCounters& st = service.metrics().storage();
    EXPECT_EQ(st.recoveries.load(), 1u);
    EXPECT_EQ(st.recovered_records.load(), 1u);
    EXPECT_EQ(processor.Execute("GET book B1"), "VALUE B1 2");
    EXPECT_EQ(processor.Execute("GET book A2"), "VALUE A2 5");
    std::string stats = processor.Execute("STATS");
    EXPECT_NE(stats.find("storage checkpoints=0 wal_records=0 "
                         "wal_bytes=0 recoveries=1 recovered_records=1"),
              std::string::npos)
        << stats;
    std::string storage = processor.Execute("STORAGE book");
    EXPECT_TRUE(storage.starts_with("OK storage session=book wal="))
        << storage;
    EXPECT_NE(storage.find("wal_records=1"), std::string::npos) << storage;
    EXPECT_NE(storage.find("recovered=1"), std::string::npos) << storage;
    EXPECT_NE(storage.find("unsaved=1"), std::string::npos) << storage;
    // CHECKPOINT rotates: the live record count drops to zero.
    EXPECT_EQ(processor.Execute("CHECKPOINT book"),
              "OK checkpoint book path=" + snap);
    EXPECT_EQ(st.checkpoints.load(), 1u);
    storage = processor.Execute("STORAGE book");
    EXPECT_NE(storage.find("wal_records=0"), std::string::npos) << storage;
    EXPECT_NE(storage.find("unsaved=0"), std::string::npos) << storage;
    ASSERT_TRUE(service.Close("book").ok());
  }
  std::filesystem::remove_all(wal_dir);
  std::remove(snap.c_str());
}

/// The value of an unlabeled sample in a Prometheus scrape (-1 if absent).
double ScrapeValue(const std::string& scrape, const std::string& series) {
  size_t at = scrape.find("\n" + series + " ");
  if (at == std::string::npos) return -1;
  return std::stod(scrape.substr(at + series.size() + 2));
}

TEST(WorkbookServiceTest, EveryWalAppendIsAcknowledgedThroughAGroupFlush) {
  // With a WAL there is one durability path: each acknowledged edit's
  // record is covered by exactly one group flush, and a single writer
  // never needs more flushes than edits.
  std::string wal_dir = TempPath("taco_service_group_wal");
  std::filesystem::remove_all(wal_dir);
  constexpr int kEdits = 12;
  {
    WorkbookServiceOptions options;
    options.wal_dir = wal_dir;
    WorkbookService service(options);
    CommandProcessor processor(&service);
    ASSERT_EQ(processor.Execute("OPEN book"), "OK opened book");
    for (int i = 1; i <= kEdits; ++i) {
      ASSERT_TRUE(processor.Execute("SET book A" + std::to_string(i) + " " +
                                    std::to_string(i))
                      .starts_with("OK"));
    }
    std::string scrape = RenderServiceExposition(service);
    EXPECT_EQ(ScrapeValue(scrape, "taco_wal_group_appends_total"), kEdits)
        << scrape;
    double flushes = ScrapeValue(scrape, "taco_wal_group_flushes_total");
    EXPECT_GE(flushes, 1);
    EXPECT_LE(flushes, kEdits);
    EXPECT_EQ(ScrapeValue(scrape, "taco_wal_group_flush_failures_total"), 0);
    std::string stats = processor.Execute("STATS");
    EXPECT_NE(stats.find("wal_group enabled=1 "), std::string::npos) << stats;
  }
  std::filesystem::remove_all(wal_dir);
}

TEST_F(ProtocolTest, CheckpointAndStorageVerbsValidateUsage) {
  EXPECT_TRUE(Run("CHECKPOINT").starts_with("ERR InvalidArgument: usage:"));
  EXPECT_TRUE(Run("STORAGE").starts_with("ERR InvalidArgument: usage:"));
  EXPECT_TRUE(Run("CHECKPOINT ghost").starts_with("ERR NotFound:"));
  EXPECT_TRUE(Run("STORAGE ghost").starts_with("ERR NotFound:"));
  Run("OPEN book");
  // No bound path and none given: same contract as SAVE.
  EXPECT_TRUE(Run("CHECKPOINT book").starts_with("ERR InvalidArgument:"));
  // Without --wal-dir the report shows no WAL.
  std::string storage = Run("STORAGE book");
  EXPECT_TRUE(storage.starts_with("OK storage session=book wal=(none) "))
      << storage;
}

TEST_F(ProtocolTest, SaveCloseLoadThroughProtocol) {
  std::string path = TempPath("taco_protocol_roundtrip.tsnap");
  Run("OPEN book");
  Run("SET book A1 9");
  Run("FORMULA book A2 A1+1");
  EXPECT_EQ(Run("SAVE book " + path), "OK saved book");
  EXPECT_EQ(Run("CLOSE book"), "OK closed book");
  std::string loaded = Run("LOAD book2 " + path);
  EXPECT_TRUE(loaded.starts_with("OK loaded book2 cells=2 formulas=1"))
      << loaded;
  EXPECT_EQ(Run("GET book2 A2"), "VALUE A2 10");
  std::remove(path.c_str());
}

TEST_F(ProtocolTest, GetRangeValidatesUsageBeforeTouchingSessions) {
  EXPECT_TRUE(Run("GETRANGE").starts_with("ERR InvalidArgument: usage:"));
  EXPECT_TRUE(Run("GETRANGE book").starts_with("ERR InvalidArgument: usage:"));
  // The range parses before the session resolves, so a bad range on a
  // missing session is a parse error, not NotFound.
  EXPECT_TRUE(Run("GETRANGE ghost NOPE!").starts_with("ERR"));
  EXPECT_TRUE(Run("GETRANGE ghost A1:B2").starts_with("ERR NotFound:"));
  // An in-bounds but oversized area is refused up front: the response
  // would otherwise carry up to Area() VALUE lines.
  Run("OPEN book");
  std::string oversized = Run("GETRANGE book A1:D20000");
  EXPECT_TRUE(oversized.starts_with("ERR InvalidArgument:")) << oversized;
  EXPECT_NE(oversized.find("over the GETRANGE limit"), std::string::npos)
      << oversized;
  // Exactly at the cap is fine: 65536 = 1 column x 65536 rows.
  std::string at_cap = Run("GETRANGE book A1:A65536");
  EXPECT_TRUE(at_cap.starts_with("OK range A1:A65536")) << at_cap;
}

TEST_F(ProtocolTest, GetRangeFramesHeaderValuesAndTerminator) {
  Run("OPEN book");
  Run("SET book A1 1");
  Run("SET book A3 2");
  Run("FORMULA book B2 A1+A3");
  std::string response = Run("GETRANGE book A1:B3");
  // Header carries the published version and the non-blank cell count;
  // VALUE lines come in EnumerateCells (column-major) order; the lone
  // terminator closes the frame for SocketClient.
  EXPECT_TRUE(response.starts_with("OK range A1:B3 version=3 cells=3"))
      << response;
  EXPECT_EQ(response,
            "OK range A1:B3 version=3 cells=3\n"
            "VALUE A1 1\n"
            "VALUE A3 2\n"
            "VALUE B2 3\n"
            "END");
  // The framing predicate must keep reading GETRANGE bodies.
  EXPECT_TRUE(CommandProcessor::ResponseContinues(
      "OK range A1:B3 version=3 cells=3"));
  EXPECT_FALSE(CommandProcessor::ResponseContinues("OK session=book ..."));
  EXPECT_FALSE(CommandProcessor::ResponseContinues("VALUE A1 1"));
}

TEST_F(ProtocolTest, GetRangeOnNeverPublishedSessionPublishesVersionOne) {
  Run("OPEN book");  // No mutation yet: nothing has been published.
  EXPECT_EQ(Run("GETRANGE book A1:B2"),
            "OK range A1:B2 version=1 cells=0\nEND");
  // The next mutation publishes version 2 on top of the first read's.
  Run("SET book A1 7");
  EXPECT_EQ(Run("GETRANGE book A1:B2"),
            "OK range A1:B2 version=2 cells=1\nVALUE A1 7\nEND");
}

TEST_F(ProtocolTest, StatsReportVersionAndReadPathCounters) {
  Run("OPEN book");
  Run("SET book A1 1");
  Run("SET book A2 2");
  Run("GET book A1");
  Run("GETRANGE book A1:A2");
  std::string stats = Run("STATS book");
  EXPECT_NE(stats.find(" version=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find(" versions=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find(" reads_versioned=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find(" wal_failed=0"), std::string::npos) << stats;
}

}  // namespace
}  // namespace taco
