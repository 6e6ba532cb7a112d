// MVCC read-path tests: version publication per mutation, lock-free
// GetValue/GetRange equivalence against a bare-engine oracle, range-
// snapshot atomicity, the lazy first publish (and first readers racing
// it), read metrics, and — the point of the whole design — concurrent
// readers hammering a session mid-recalc (cutoff waves on the writer's
// thread) without ever observing a torn state.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "eval/recalc.h"
#include "eval/value_version.h"
#include "graph/nocomp_graph.h"
#include "service/protocol.h"
#include "service/workbook_service.h"
#include "sheet/textio.h"

namespace taco {
namespace {

std::shared_ptr<WorkbookSession> OpenSession(WorkbookService& service,
                                             const std::string& name) {
  auto session = service.Open(name);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return *session;
}

/// A sheet of `rows` generated rows: numbers in A, formulas over them in
/// B and C, text in D, a column total in E1 and a #DIV/0! in F1.
Sheet GeneratedSheet(int32_t rows) {
  Sheet sheet;
  for (int32_t row = 1; row <= rows; ++row) {
    std::string r = std::to_string(row);
    EXPECT_TRUE(sheet.SetNumber(Cell{1, row}, row * 0.5 - 7).ok());
    EXPECT_TRUE(sheet.SetFormula(Cell{2, row}, "A" + r + "*3").ok());
    EXPECT_TRUE(sheet.SetFormula(Cell{3, row}, "B" + r + "+A1").ok());
    EXPECT_TRUE(sheet.SetText(Cell{4, row}, "row" + r).ok());
  }
  EXPECT_TRUE(
      sheet.SetFormula(Cell{5, 1}, "SUM(C1:C" + std::to_string(rows) + ")")
          .ok());
  EXPECT_TRUE(sheet.SetFormula(Cell{6, 1}, "1/0").ok());
  return sheet;
}

std::string TempSheetPath(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("taco_read_path_" + tag + ".tsheet"))
      .string();
}

TEST(ReadPathTest, EveryMutationPublishesAVersion) {
  WorkbookService service;
  auto session = OpenSession(service, "book");

  EXPECT_EQ(session->Stats().version, 0u);
  ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 5).ok());
  EXPECT_EQ(session->Stats().version, 1u);
  ASSERT_TRUE(session->SetFormula(Cell{2, 1}, "A1*3").ok());
  EXPECT_EQ(session->Stats().version, 2u);
  ASSERT_TRUE(session->ClearRange(Range(Cell{1, 1})).ok());
  EXPECT_EQ(session->Stats().version, 3u);

  EditBatch batch;
  batch.push_back(Edit::SetNumber(Cell{1, 1}, 7));
  batch.push_back(Edit::SetNumber(Cell{1, 2}, 8));
  ASSERT_TRUE(session->ApplyBatch(batch).ok());
  SessionStats stats = session->Stats();
  EXPECT_EQ(stats.version, 4u);  // One batch, one version.
  EXPECT_EQ(stats.versions_published, 4u);
}

// A LOADed session has published nothing; its first read publishes the
// full version (id 1) and serves from it, cell-for-cell equal to a bare
// engine over the same file. Further reads reuse that version.
TEST(ReadPathTest, FirstReadPublishesTheFullVersion) {
  constexpr int32_t kRows = 40;
  std::string path = TempSheetPath("first_read");
  ASSERT_TRUE(SaveSheetFile(GeneratedSheet(kRows), path).ok());

  auto oracle_sheet = LoadSheetFile(path);
  ASSERT_TRUE(oracle_sheet.ok());
  NoCompGraph oracle_graph;
  ASSERT_TRUE(BuildGraphFromSheet(*oracle_sheet, &oracle_graph).ok());
  RecalcEngine oracle(&*oracle_sheet, &oracle_graph);

  WorkbookService service;
  CommandProcessor processor(&service);
  ASSERT_TRUE(processor.Execute("LOAD book " + path).starts_with("OK loaded"));
  EXPECT_EQ(processor.Execute("GET book E1"),
            "VALUE E1 " + oracle.GetValue(Cell{5, 1}).ToString());

  std::string range = processor.Execute("GETRANGE book A1:F" +
                                        std::to_string(kRows));
  std::string expected = "OK range A1:F" + std::to_string(kRows) +
                         " version=1 cells=" + std::to_string(4 * kRows + 2);
  Range region(1, 1, 6, kRows);
  for (const Cell& cell : EnumerateCells(region)) {
    Value value = oracle.GetValue(cell);
    if (!value.is_blank()) {
      expected += "\nVALUE " + cell.ToString() + " " + value.ToString();
    }
  }
  EXPECT_EQ(range, expected + "\nEND");

  std::string stats = processor.Execute("STATS book");
  EXPECT_NE(stats.find(" version=1 versions=1 "), std::string::npos) << stats;
  EXPECT_NE(stats.find(" reads_versioned=2 "), std::string::npos) << stats;
  std::remove(path.c_str());
}

// The first-touch race, run under TSan in CI: readers released together
// onto a freshly loaded session all hit the unpublished state at once.
// Exactly one of them publishes; every reader serves from that one
// version.
TEST(ReadPathTest, RacingFirstReadersShareOnePublishedVersion) {
  constexpr int kReaders = 4;
  constexpr int32_t kRows = 500;
  std::string path = TempSheetPath("first_touch");
  ASSERT_TRUE(SaveSheetFile(GeneratedSheet(kRows), path).ok());
  WorkbookService service;
  auto loaded = service.Load("book", path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::shared_ptr<WorkbookSession> session = *loaded;
  ASSERT_EQ(session->Stats().versions_published, 0u);

  std::atomic<int> ready{0};
  std::vector<uint64_t> versions(kReaders);
  std::vector<Value> totals(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ready.fetch_add(1);
      while (ready.load() < kReaders) std::this_thread::yield();
      if (r % 2 == 0) {
        versions[r] = session->GetRange(Range(5, 1, 5, 1)).version;
      } else {
        totals[r] = session->GetValue(Cell{5, 1});
        versions[r] = session->Stats().version;
      }
    });
  }
  for (std::thread& t : readers) t.join();

  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(versions[r], 1u) << "reader " << r;
    if (r % 2 == 1) EXPECT_EQ(totals[r], totals[1]) << "reader " << r;
  }
  SessionStats stats = session->Stats();
  EXPECT_EQ(stats.versions_published, 1u);
  EXPECT_EQ(stats.reads_versioned, uint64_t(kReaders));
  std::remove(path.c_str());
}

// The equivalence oracle: a bare RecalcEngine replays the same edits;
// after every step, every cell of the working region must read the same
// through the session's published versions and through the engine. The
// sequence is long enough (> ValueVersion::kMaxDepth steps touching
// overlapping regions) to exercise delta-chain flattening.
TEST(ReadPathTest, VersionedReadsMatchLockedOracle) {
  WorkbookService service;
  auto mvcc = OpenSession(service, "mvcc");
  Sheet oracle_sheet;
  NoCompGraph oracle_graph;
  RecalcEngine oracle(&oracle_sheet, &oracle_graph);

  auto apply_both = [&](const Edit& edit) {
    EditBatch batch{edit};
    ASSERT_TRUE(mvcc->ApplyBatch(batch).ok());
    ASSERT_TRUE(oracle.ApplyBatch(batch).ok());
  };
  auto check_region = [&](int32_t cols, int32_t rows) {
    for (int32_t col = 1; col <= cols; ++col) {
      for (int32_t row = 1; row <= rows; ++row) {
        Cell cell{col, row};
        EXPECT_EQ(mvcc->GetValue(cell), oracle.GetValue(cell))
            << "divergence at " << cell.ToString();
      }
    }
  };

  // A small autofilled region: column A inputs, B..D formulas over them.
  for (int32_t row = 1; row <= 8; ++row) {
    apply_both(Edit::SetNumber(Cell{1, row}, row * 1.5));
    apply_both(Edit::SetFormula(Cell{2, row}, "A" + std::to_string(row) + "*2"));
    apply_both(Edit::SetFormula(Cell{3, row},
                                "B" + std::to_string(row) + "+A" +
                                    std::to_string(row)));
  }
  apply_both(Edit::SetFormula(Cell{4, 1}, "SUM(C1:C8)"));
  check_region(4, 8);

  // 24 more steps (flattening kicks in past depth 8): overwrite inputs,
  // clear sub-rectangles, re-add formulas.
  for (int step = 0; step < 24; ++step) {
    int32_t row = 1 + (step % 8);
    switch (step % 3) {
      case 0:
        apply_both(Edit::SetNumber(Cell{1, row}, step * 0.25 - 3));
        break;
      case 1:
        apply_both(Edit::ClearRange(Range(2, row, 3, row)));
        break;
      default:
        apply_both(Edit::SetFormula(
            Cell{2, row}, "A" + std::to_string(row) + "*10"));
        break;
    }
    check_region(4, 8);
  }

  // Both paths agree range-wise too, and on error values.
  apply_both(Edit::SetFormula(Cell{5, 1}, "1/0"));
  check_region(5, 8);
  RangeSnapshot snap = mvcc->GetRange(Range(1, 1, 5, 8));
  for (const auto& [cell, value] : snap.values) {
    EXPECT_EQ(value, oracle.GetValue(cell)) << cell.ToString();
  }
}

TEST(ReadPathTest, GetRangeSkipsBlanksInColumnMajorOrder) {
  WorkbookService service;
  auto session = OpenSession(service, "book");
  ASSERT_TRUE(session->SetNumber(Cell{1, 3}, 1).ok());   // A3
  ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 2).ok());   // A1
  ASSERT_TRUE(session->SetText(Cell{3, 2}, "x").ok());   // C2
  ASSERT_TRUE(session->SetNumber(Cell{2, 2}, 3).ok());   // B2

  RangeSnapshot snap = session->GetRange(Range(1, 1, 4, 4));
  ASSERT_EQ(snap.values.size(), 4u);
  // EnumerateCells order: column-major (A1, A3, B2, C2); blanks absent.
  EXPECT_EQ(snap.values[0].first, (Cell{1, 1}));
  EXPECT_EQ(snap.values[1].first, (Cell{1, 3}));
  EXPECT_EQ(snap.values[2].first, (Cell{2, 2}));
  EXPECT_EQ(snap.values[3].first, (Cell{3, 2}));
  EXPECT_EQ(snap.values[2].second, Value::Number(3));
}

TEST(ReadPathTest, ClearedCellsReadBlankThroughTheVersion) {
  WorkbookService service;
  auto session = OpenSession(service, "book");
  for (int32_t row = 1; row <= 4; ++row) {
    ASSERT_TRUE(session->SetNumber(Cell{1, row}, row).ok());
  }
  ASSERT_TRUE(session->ClearRange(Range(1, 2, 1, 3)).ok());
  EXPECT_EQ(session->GetValue(Cell{1, 1}), Value::Number(1));
  EXPECT_EQ(session->GetValue(Cell{1, 2}), Value::Blank());
  EXPECT_EQ(session->GetValue(Cell{1, 3}), Value::Blank());
  EXPECT_EQ(session->GetValue(Cell{1, 4}), Value::Number(4));
  RangeSnapshot snap = session->GetRange(Range(1, 1, 1, 4));
  ASSERT_EQ(snap.values.size(), 2u);
}

TEST(ReadPathTest, ErrorValuedReadsCountAsErrorsInMetrics) {
  WorkbookService service;
  auto session = OpenSession(service, "book");
  ASSERT_TRUE(session->SetFormula(Cell{1, 1}, "1/0").ok());
  ASSERT_TRUE(session->SetNumber(Cell{2, 1}, 4).ok());

  Value error = session->GetValue(Cell{1, 1});
  EXPECT_TRUE(error.is_error());
  EXPECT_EQ(session->GetValue(Cell{2, 1}), Value::Number(4));

  OpStats get = service.metrics().Get(ServiceOp::kGet);
  EXPECT_EQ(get.count, 2u);
  EXPECT_EQ(get.errors, 1u);  // The #DIV/0! read reports ok=false.

  RangeSnapshot snap = session->GetRange(Range(1, 1, 2, 1));
  ASSERT_EQ(snap.values.size(), 2u);
  OpStats getrange = service.metrics().Get(ServiceOp::kGetRange);
  EXPECT_EQ(getrange.count, 1u);
  EXPECT_EQ(getrange.errors, 1u);  // Snapshot contains an error value.
}

// Delta versions must carry only what a commit CHANGED, not what it
// scheduled: value-unchanged cells of the dirty closure are dropped
// entirely (no coverage, no entry), so the chain answers them from the
// older node. This pins the payload size — the MVCC side of cutoff
// recalc, where an absorbed edit dirties a wide closure but changes one
// cell.
TEST(ReadPathTest, DeltaVersionsCarryOnlyChangedCells) {
  Sheet sheet;
  NoCompGraph graph;
  RecalcEngine engine(&sheet, &graph);
  auto publish = [&](const Result<RecalcResult>& r, const Range& edited) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::vector<Range> touched = r->dirty;
    touched.push_back(edited);
    engine.PublishVersion(touched);
  };

  // A1 feeds an absorbing IF; B1 absorbs, C1 rides on B1.
  publish(engine.SetNumber(Cell{1, 1}, 5), Range(Cell{1, 1}));
  publish(engine.SetFormula(Cell{2, 1}, "IF(A1>10,1,0)"), Range(Cell{2, 1}));
  publish(engine.SetFormula(Cell{3, 1}, "B1+1"), Range(Cell{3, 1}));

  // An absorbed edit: A1 5 -> 6 keeps B1 at 0 and C1 at 1. The delta
  // must carry exactly ONE entry (A1) even though the dirty closure
  // covered B1 and C1 too.
  publish(engine.SetNumber(Cell{1, 1}, 6), Range(Cell{1, 1}));
  const ValueVersion& absorbed = *engine.latest_version();
  EXPECT_EQ(absorbed.cell_entries(), 1u);
  EXPECT_EQ(absorbed.Lookup(Cell{1, 1}), Value::Number(6));
  EXPECT_EQ(absorbed.Lookup(Cell{2, 1}), Value::Number(0));  // Via chain.
  EXPECT_EQ(absorbed.Lookup(Cell{3, 1}), Value::Number(1));

  // A flipping edit changes all three cells: three entries.
  publish(engine.SetNumber(Cell{1, 1}, 5000), Range(Cell{1, 1}));
  const ValueVersion& flipped = *engine.latest_version();
  EXPECT_EQ(flipped.cell_entries(), 3u);
  EXPECT_EQ(flipped.Lookup(Cell{3, 1}), Value::Number(2));

  // A cleared cell changed to blank: covered WITHOUT an entry, so it
  // reads Blank instead of leaking the older node's value.
  publish(engine.ClearRange(Range(Cell{1, 1})), Range(Cell{1, 1}));
  const ValueVersion& cleared = *engine.latest_version();
  EXPECT_EQ(cleared.cell_entries(), 2u);  // B1 and C1 flipped back.
  EXPECT_EQ(cleared.Lookup(Cell{1, 1}), Value::Blank());
  EXPECT_EQ(cleared.Lookup(Cell{2, 1}), Value::Number(0));
  EXPECT_EQ(cleared.Lookup(Cell{3, 1}), Value::Number(1));
}

// A snapshot must come from ONE commit: with C1 = A1*10 maintained by
// recalc, any GetRange that mixed two versions would break the invariant.
TEST(ReadPathTest, RangeSnapshotsAreInternallyConsistent) {
  WorkbookService service;
  auto session = OpenSession(service, "book");
  ASSERT_TRUE(session->SetFormula(Cell{3, 1}, "A1*10").ok());
  for (int k = 1; k <= 50; ++k) {
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, k).ok());
    RangeSnapshot snap = session->GetRange(Range(1, 1, 3, 1));
    ASSERT_EQ(snap.values.size(), 2u);
    EXPECT_EQ(snap.values[0].second, Value::Number(k));
    EXPECT_EQ(snap.values[1].second, Value::Number(k * 10));
  }
}

// The torn-read hunt, built for TSan: one writer drives a 24-cell formula
// chain through the wave recalc path (cutoff on, so every pass schedules
// waves) while readers hammer GetValue and GetRange. Every snapshot a
// reader takes must satisfy the chain invariant cell[i] == A1 + i — i.e.
// be the complete result of one committed recalc, never a mid-wave mix —
// and version ids must be monotonic per reader. A serial session replays the same writes as the
// oracle for the final state.
TEST(ReadPathTest, ConcurrentReadersNeverObserveTornRecalcState) {
  constexpr int kChain = 24;
  constexpr int kWrites = 120;
  constexpr int kReaders = 4;

  WorkbookServiceOptions options;
  options.cutoff = true;
  WorkbookService service(options);
  auto session = OpenSession(service, "book");

  WorkbookService oracle_service;  // Serial, single-threaded replay.
  auto oracle = OpenSession(oracle_service, "oracle");

  // B1 = A1+1, C1 = B1+1, ... : one long dependency chain, so each write
  // to A1 dirties all 24 formulas across 24 single-cell waves.
  auto seed = [&](WorkbookSession& s) {
    ASSERT_TRUE(s.SetNumber(Cell{1, 1}, 0).ok());
    for (int i = 1; i <= kChain; ++i) {
      Cell prev{i, 1};
      ASSERT_TRUE(
          s.SetFormula(Cell{i + 1, 1}, prev.ToString() + "+1").ok());
    }
  };
  seed(*session);
  seed(*oracle);

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  Range chain_range(1, 1, kChain + 1, 1);

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_version = 0;
      while (!done.load(std::memory_order_acquire)) {
        if (r % 2 == 0) {
          RangeSnapshot snap = session->GetRange(chain_range);
          if (snap.values.size() != uint64_t(kChain) + 1) {
            torn.fetch_add(1);
            continue;
          }
          bool ok = snap.values[0].second.is_number();
          double base = ok ? snap.values[0].second.number() : 0;
          for (int i = 0; ok && i <= kChain; ++i) {
            const Value& v = snap.values[i].second;
            ok = v.is_number() && v.number() == base + i;
          }
          if (!ok) torn.fetch_add(1);
          if (snap.version < last_version) torn.fetch_add(1);
          last_version = snap.version;
        } else {
          // Single-cell reads: the tail of the chain only ever holds a
          // committed value base + kChain for some acknowledged base.
          Value v = session->GetValue(Cell{kChain + 1, 1});
          if (!v.is_number() || v.number() < kChain ||
              v.number() > kChain + kWrites) {
            torn.fetch_add(1);
          }
        }
      }
    });
  }

  for (int k = 1; k <= kWrites; ++k) {
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, k).ok());
    ASSERT_TRUE(oracle->SetNumber(Cell{1, 1}, k).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0) << "readers observed torn mid-recalc state";

  // Serial-oracle cross-check of the final committed state, cell by cell.
  for (int i = 0; i <= kChain; ++i) {
    Cell cell{i + 1, 1};
    EXPECT_EQ(session->GetValue(cell), oracle->GetValue(cell))
        << "divergence at " << cell.ToString();
  }
  SessionStats stats = session->Stats();
  EXPECT_EQ(stats.version, uint64_t(1 + kChain + kWrites));
  EXPECT_GT(stats.reads_versioned, 0u);
}

}  // namespace
}  // namespace taco
