// Crash-recovery property tests over the full service path.
//
// The contract under test (ISSUE 5): every acknowledged Edit/EditBatch
// is WAL-logged before its response, so for ANY kill point in the log a
// reopened service recovers exactly the acknowledged prefix — cell for
// cell equal to a serial oracle that applied the same prefix — with torn
// final records truncated silently and corrupted interior records
// rejected with a status. Crashes are simulated by destroying the
// service (fds close, files stay) and truncating the WAL at randomized
// byte offsets, which is exactly the state a SIGKILL mid-append leaves
// behind on a POSIX filesystem.
//
// The randomized suites scale with TACO_FUZZ_TRIALS.

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph_test_util.h"
#include "service/protocol.h"
#include "service/workbook_service.h"
#include "sheet/textio.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace taco {
namespace {

using test::FuzzTrials;

/// A per-test scratch directory, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& stem) {
    static int counter = 0;
    path_ = (std::filesystem::temp_directory_path() /
             (stem + "." + std::to_string(::getpid()) + "." +
              std::to_string(counter++)))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string File(const std::string& name) const {
    return (std::filesystem::path(path_) / name).string();
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

WorkbookServiceOptions StorageOptionsFor(const std::string& store,
                                         const std::string& wal_dir) {
  WorkbookServiceOptions options;
  options.store = store;
  options.wal_dir = wal_dir;
  return options;
}

std::string Canon(const Sheet& sheet) { return WriteSheetText(sheet); }

/// One acknowledged operation: the edits the client was told succeeded,
/// plus the WAL size right after the acknowledgement (= the kill points
/// at which this op survives).
struct AckedOp {
  EditBatch edits;
  uint64_t wal_end = 0;
};

/// Random single edit over a small region. Formulas reference the region
/// so recovery has real dependencies to rebuild.
Edit RandomEdit(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> col(1, 6);
  std::uniform_int_distribution<int> row(1, 12);
  Cell cell{col(rng), row(rng)};
  switch (rng() % 5) {
    case 0:
      return Edit::SetNumber(cell, double(rng() % 1000) / 4);
    case 1:
      return Edit::SetText(cell, "v" + std::to_string(rng() % 100));
    case 2:
      return Edit::SetFormula(
          cell, "SUM(A1:B6)+" + std::to_string(rng() % 10));
    case 3:
      return Edit::SetFormula(cell, "$A$1*" + std::to_string(rng() % 9 + 1));
    default: {
      Cell head{col(rng), row(rng)};
      return Edit::ClearRange(Range(head, Cell{head.col, head.row + 1}));
    }
  }
}

/// Header size of a WAL whose header names `snapshot_path` — the first
/// legal kill offset (headers are written atomically via temp+rename, so
/// a crash cannot tear one).
uint64_t WalHeaderBytes(const ScratchDir& dir,
                        const std::string& snapshot_path) {
  std::string probe = dir.File("header_probe.wal");
  std::remove(probe.c_str());
  auto wal = WriteAheadLog::Create(probe, WalOptions{},
                                   {snapshot_path, "taco"});
  EXPECT_TRUE(wal.ok());
  uint64_t bytes = (*wal)->bytes();
  std::remove(probe.c_str());
  return bytes;
}

class StorageRecoveryTest : public ::testing::TestWithParam<const char*> {};

TEST_P(StorageRecoveryTest,
       RandomizedKillPointsRecoverExactlyTheAcknowledgedPrefix) {
  const std::string store = GetParam();
  std::mt19937_64 rng(0xD15C0 + (store == "binary" ? 1 : 0));
  for (int trial = 0, n = FuzzTrials(12); trial < n; ++trial) {
    ScratchDir dir("taco_recovery_" + store);
    const std::string snap = dir.File("book.snap");
    const std::string wal_dir = dir.File("wal");

    // Phase 1: the writer. Apply random acknowledged ops, tracking the
    // oracle state and the WAL offset at each acknowledgement.
    Sheet base;                    // State the last checkpoint persisted.
    Sheet current;                 // State after every acknowledged op.
    base.set_name("book");
    current.set_name("book");
    std::vector<AckedOp> acked;    // Ops since the last checkpoint.
    std::string last_snapshot;     // Path the WAL header names.
    std::string wal_file;
    {
      WorkbookService service(StorageOptionsFor(store, wal_dir));
      auto session = *service.Open("book");
      wal_file = service.WalPathFor("book");
      int ops = 6 + int(rng() % 14);
      for (int i = 0; i < ops; ++i) {
        if (rng() % 6 == 0) {
          // Checkpoint mid-run: snapshot + rotation. Later kill points
          // land in the rotated log; earlier state comes off the
          // snapshot.
          ASSERT_TRUE(session->Checkpoint(snap).ok());
          base = current;  // Sheet is copyable: deep oracle snapshot.
          acked.clear();
          last_snapshot = snap;
          continue;
        }
        AckedOp op;
        if (rng() % 3 == 0) {
          int count = 1 + int(rng() % 4);
          for (int e = 0; e < count; ++e) op.edits.push_back(RandomEdit(rng));
        } else {
          op.edits.push_back(RandomEdit(rng));
        }
        auto result = session->ApplyBatch(op.edits);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        for (const Edit& edit : op.edits) {
          ASSERT_TRUE(ApplyEditToSheet(&current, edit).ok());
        }
        op.wal_end = session->Stats().wal_bytes;
        acked.push_back(std::move(op));
      }
    }  // "Crash": the service dies with whatever the WAL holds.

    // Phase 2: kill the log at a random offset ≥ the header.
    uint64_t header_bytes = WalHeaderBytes(dir, last_snapshot);
    uint64_t full_size = std::filesystem::file_size(wal_file);
    ASSERT_GE(full_size, header_bytes);
    uint64_t cut =
        header_bytes + (full_size > header_bytes
                            ? rng() % (full_size - header_bytes + 1)
                            : 0);
    std::filesystem::resize_file(wal_file, cut);

    // The oracle: the base snapshot plus every op acknowledged wholly
    // before the cut.
    Sheet expected = base;
    size_t surviving = 0;
    for (const AckedOp& op : acked) {
      if (op.wal_end <= cut) {
        for (const Edit& edit : op.edits) {
          ASSERT_TRUE(ApplyEditToSheet(&expected, edit).ok());
        }
        ++surviving;
      }
    }

    // Phase 3: reopen. OPEN must recover snapshot + surviving tail.
    {
      WorkbookService service(StorageOptionsFor(store, wal_dir));
      auto session = service.Open("book");
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      EXPECT_EQ((*session)->Snapshot(), Canon(expected))
          << store << " trial " << trial << ": cut " << cut << " of "
          << full_size << " (" << surviving << "/" << acked.size()
          << " ops survive)";
      SessionStats stats = (*session)->Stats();
      EXPECT_EQ(stats.recovered_records, surviving);
      EXPECT_EQ(stats.dirty, surviving > 0);
      if (surviving > 0) {
        EXPECT_EQ(service.metrics().storage().recoveries.load(), 1u);
        EXPECT_EQ(service.metrics().storage().recovered_records.load(),
                  surviving);
      }
      // Recovered state must also EVALUATE like the oracle, not just
      // store the same contents.
      RecalcEngine oracle_engine(&expected, nullptr);
      for (int c = 1; c <= 6; ++c) {
        for (int r = 1; r <= 12; ++r) {
          Cell cell{c, r};
          EXPECT_EQ((*session)->GetValue(cell),
                    oracle_engine.GetValue(cell))
              << cell.ToString();
        }
      }
    }
  }
}

TEST_P(StorageRecoveryTest,
       GroupCommitKillPointsRecoverEachSessionsAckedPrefix) {
  // The same acknowledged-prefix contract, with --group-commit on and
  // several sessions mutating CONCURRENTLY: acks now ride shared flush
  // rounds, so this is the test that a group fsync never releases an ack
  // before the bytes it promises are down. Each session has exactly one
  // driver thread, so its recorded wal_end offsets are exact ack
  // boundaries even though flushes interleave across sessions.
  const std::string store = GetParam();
  constexpr int kSessions = 3;
  std::mt19937_64 rng(0x6C07 + (store == "binary" ? 1 : 0));
  for (int trial = 0, n = FuzzTrials(6); trial < n; ++trial) {
    ScratchDir dir("taco_gc_recovery_" + store);
    struct PerSession {
      std::string name;
      std::string wal_file;
      Sheet oracle;                 // State after every acknowledged op.
      std::vector<AckedOp> acked;
      uint64_t seed = 0;
    };
    std::vector<PerSession> sessions(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      sessions[s].name = "book" + std::to_string(s);
      sessions[s].seed = rng();
    }

    // Phase 1: concurrent writers through one group committer. A small
    // coalescing window widens the rounds so acks genuinely share
    // fsyncs (the unit suite asserts the batching itself).
    {
      WorkbookServiceOptions options =
          StorageOptionsFor(store, dir.File("wal"));
      options.group_commit = true;
      options.group_commit_max_delay_us = 200;
      WorkbookService service(options);
      std::vector<std::thread> drivers;
      for (PerSession& per : sessions) {
        per.wal_file = service.WalPathFor(per.name);
        drivers.emplace_back([&service, &per] {
          std::mt19937_64 thread_rng(per.seed);
          auto session = *service.Open(per.name);
          int ops = 6 + int(thread_rng() % 10);
          for (int i = 0; i < ops; ++i) {
            AckedOp op;
            int count = 1 + int(thread_rng() % 3);
            for (int e = 0; e < count; ++e) {
              op.edits.push_back(RandomEdit(thread_rng));
            }
            auto result = session->ApplyBatch(op.edits);
            ASSERT_TRUE(result.ok()) << result.status().ToString();
            for (const Edit& edit : op.edits) {
              ASSERT_TRUE(ApplyEditToSheet(&per.oracle, edit).ok());
            }
            op.wal_end = session->Stats().wal_bytes;
            per.acked.push_back(std::move(op));
          }
        });
      }
      for (auto& driver : drivers) driver.join();
    }  // Crash: committer and sessions die together.

    // Phase 2: kill every session's log independently — sometimes at an
    // exact ack boundary (a kill between group rounds), sometimes at a
    // random byte (a kill mid-round, tearing the tail record).
    uint64_t header_bytes = WalHeaderBytes(dir, "");
    for (PerSession& per : sessions) {
      uint64_t full_size = std::filesystem::file_size(per.wal_file);
      ASSERT_GE(full_size, header_bytes);
      uint64_t cut;
      if (rng() % 2 == 0 && !per.acked.empty()) {
        cut = per.acked[rng() % per.acked.size()].wal_end;
      } else {
        cut = header_bytes + (full_size > header_bytes
                                  ? rng() % (full_size - header_bytes + 1)
                                  : 0);
      }
      std::filesystem::resize_file(per.wal_file, cut);

      Sheet expected;
      expected.set_name(per.name);
      size_t surviving = 0;
      for (const AckedOp& op : per.acked) {
        if (op.wal_end <= cut) {
          for (const Edit& edit : op.edits) {
            ASSERT_TRUE(ApplyEditToSheet(&expected, edit).ok());
          }
          ++surviving;
        }
      }

      WorkbookService service(StorageOptionsFor(store, dir.File("wal")));
      auto recovered = service.Open(per.name);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      EXPECT_EQ((*recovered)->Snapshot(), Canon(expected))
          << store << " trial " << trial << " session " << per.name
          << ": cut " << cut << " of " << full_size << " (" << surviving
          << "/" << per.acked.size() << " ops survive)";
      EXPECT_EQ((*recovered)->Stats().recovered_records, surviving);
    }
  }
}

TEST(StorageRecoveryMiscTest,
     GroupCommitSurvivesConcurrentMutatorsReadersAndRotations) {
  // Race surface for the committer (the TSan job runs this binary):
  // several sessions' mutator threads enqueue flush tickets while
  // readers hit the lock-free path and checkpoints rotate the logs out
  // from under the committer (Drain mid-traffic). Every mutation must
  // ack OK, and a reopen must recover the exact final state.
  ScratchDir dir("taco_gc_hammer");
  constexpr int kSessions = 2;
  constexpr int kMutatorsPerSession = 2;
  constexpr int kEditsPerMutator = 30;
  {
    WorkbookServiceOptions options =
        StorageOptionsFor("text", dir.File("wal"));
    options.group_commit = true;
    WorkbookService service(options);
    std::atomic<bool> done{false};
    std::vector<std::thread> mutators;
    std::vector<std::thread> readers;
    for (int s = 0; s < kSessions; ++s) {
      std::string name = "book" + std::to_string(s);
      auto session = *service.Open(name);
      for (int m = 0; m < kMutatorsPerSession; ++m) {
        mutators.emplace_back([session, s, m, &dir] {
          // Each mutator owns one cell; its last write is the final
          // value, so the recovered state below is deterministic.
          Cell cell{m + 1, 1};
          for (int i = 1; i <= kEditsPerMutator; ++i) {
            ASSERT_TRUE(session->SetNumber(cell, i).ok());
            if (m == 0 && i % 10 == 0) {
              // Rotation under load: Checkpoint drains the committer's
              // registration for this file and swaps the fd.
              ASSERT_TRUE(
                  session
                      ->Checkpoint(dir.File("book" + std::to_string(s) +
                                            ".snap"))
                      .ok());
            }
          }
        });
      }
      readers.emplace_back([session, &done] {
        while (!done.load(std::memory_order_relaxed)) {
          (void)session->GetValue(Cell{1, 1});
          (void)session->GetValue(Cell{2, 1});
        }
      });
    }
    for (auto& thread : mutators) thread.join();
    done.store(true, std::memory_order_relaxed);
    for (auto& thread : readers) thread.join();
  }  // Crash.
  WorkbookService reopened(StorageOptionsFor("text", dir.File("wal")));
  for (int s = 0; s < kSessions; ++s) {
    auto session = reopened.Open("book" + std::to_string(s));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (int m = 0; m < kMutatorsPerSession; ++m) {
      EXPECT_EQ((*session)->GetValue(Cell{m + 1, 1}),
                Value::Number(kEditsPerMutator))
          << "session " << s << " mutator " << m;
    }
  }
}

TEST_P(StorageRecoveryTest, CheckpointBoundsRecoveryAndSurvivesRestart) {
  const std::string store = GetParam();
  ScratchDir dir("taco_checkpoint_" + store);
  const std::string snap = dir.File("book.snap");
  {
    WorkbookService service(StorageOptionsFor(store, dir.File("wal")));
    auto session = *service.Open("book");
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 41).ok());
    ASSERT_TRUE(session->SetFormula(Cell{2, 1}, "A1+1").ok());
    ASSERT_TRUE(session->Checkpoint(snap).ok());
    EXPECT_FALSE(session->Stats().dirty);
    EXPECT_EQ(session->Stats().wal_records, 0u);  // Rotated away.
    // Post-checkpoint edit: lives only in the WAL tail.
    ASSERT_TRUE(session->SetNumber(Cell{1, 2}, 100).ok());
  }
  {
    WorkbookService service(StorageOptionsFor(store, dir.File("wal")));
    auto session = *service.Open("book");
    EXPECT_EQ(session->GetValue(Cell{2, 1}), Value::Number(42));
    EXPECT_EQ(session->GetValue(Cell{1, 2}), Value::Number(100));
    EXPECT_EQ(session->Stats().recovered_records, 1u);
    EXPECT_TRUE(session->Stats().dirty);
    EXPECT_EQ(session->bound_path(), snap);
  }
}

TEST_P(StorageRecoveryTest, InteriorWalCorruptionFailsOpenWithDataLoss) {
  const std::string store = GetParam();
  ScratchDir dir("taco_walcorrupt_" + store);
  std::string wal_file;
  uint64_t first_record_end = 0;
  {
    WorkbookService service(StorageOptionsFor(store, dir.File("wal")));
    auto session = *service.Open("book");
    wal_file = service.WalPathFor("book");
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 1).ok());
    first_record_end = session->Stats().wal_bytes;
    ASSERT_TRUE(session->SetNumber(Cell{1, 2}, 2).ok());
  }
  // Flip a byte inside record 1 (interior: record 2 follows intact).
  {
    std::fstream file(wal_file,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(first_record_end) - 2);
    char byte;
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(first_record_end) - 2);
    file.put(static_cast<char>(byte ^ 0x5A));
  }
  WorkbookService service(StorageOptionsFor(store, dir.File("wal")));
  auto session = service.Open("book");
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kDataLoss);
  // The log is left in place (for inspection / operator action), so the
  // failure is stable rather than quietly replaced by an empty session.
  auto again = service.Open("book");
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kDataLoss);
}

TEST_P(StorageRecoveryTest, EvictionParksThroughTheConfiguredEngine) {
  const std::string store = GetParam();
  ScratchDir dir("taco_evict_" + store);
  WorkbookServiceOptions options = StorageOptionsFor(store, dir.File("wal"));
  options.max_resident_sessions = 1;
  WorkbookService service(options);
  std::string paths[2] = {dir.File("wb0.snap"), dir.File("wb1.snap")};
  for (int i = 0; i < 2; ++i) {
    std::string name = "wb" + std::to_string(i);
    auto session = *service.Open(name);
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, i + 7.0).ok());
    ASSERT_TRUE(service.Save(name, paths[i]).ok());
  }
  EXPECT_EQ(service.parked_sessions(), 1u);
  // The parked snapshot is in the ENGINE's format.
  auto bytes = ReadFileLimited(paths[0], 1 << 20);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(LooksLikeBinarySnapshot(*bytes), store == "binary");
  // Transparent reload through the engine, data intact.
  auto reloaded = service.Get("wb0");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*reloaded)->GetValue(Cell{1, 1}), Value::Number(7));
}

INSTANTIATE_TEST_SUITE_P(Backends, StorageRecoveryTest,
                         ::testing::Values("text", "binary"));

TEST(StorageRecoveryMiscTest, RecoveryKeepsTheOriginalGraphBackend) {
  // The WAL header records the backend key, so crash recovery rebuilds
  // the session with the implementation it was created with — the first
  // opener after a crash cannot change it, mirroring how a resident or
  // parked hit ignores a requested backend.
  ScratchDir dir("taco_backend");
  {
    WorkbookService service(StorageOptionsFor("text", dir.File("wal")));
    auto session = *service.Open("book", "nocomp");
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 3).ok());
  }
  WorkbookService service(StorageOptionsFor("text", dir.File("wal")));
  auto recovered = service.Open("book", "cellgraph");  // Ignored.
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->Stats().backend, "NoComp");
  EXPECT_EQ((*recovered)->backend_key(), "nocomp");
  EXPECT_EQ((*recovered)->GetValue(Cell{1, 1}), Value::Number(3));
}

TEST(StorageRecoveryMiscTest, FailedLoadLeavesTheWalIntact) {
  // A LOAD that fails after deciding to reset a mismatched WAL must not
  // have reset it: the acknowledged records stay recoverable, and a
  // failed LOAD of a fresh name must not leave a stray log behind.
  ScratchDir dir("taco_load_fail");
  const std::string other = dir.File("other.snap");
  {
    WorkbookService writer(StorageOptionsFor("text", ""));
    auto session = *writer.Open("tmp");
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 555).ok());
    ASSERT_TRUE(session->Save(other).ok());
  }
  {
    WorkbookService service(StorageOptionsFor("text", dir.File("wal")));
    auto session = *service.Open("book");
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 42).ok());
  }
  WorkbookService service(StorageOptionsFor("text", dir.File("wal")));
  // Mismatched WAL + a bogus backend: the load fails AFTER the reset
  // decision — the reset must not have happened.
  auto failed = service.Load("book", other, "bogus-backend");
  ASSERT_FALSE(failed.ok());
  auto recovered = service.Open("book");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->GetValue(Cell{1, 1}), Value::Number(42));
  // Fresh name, failing load: no stray WAL may appear for it.
  ASSERT_FALSE(service.Load("fresh", dir.File("missing.snap")).ok());
  EXPECT_FALSE(std::filesystem::exists(service.WalPathFor("fresh")));
  ASSERT_FALSE(service.Load("fresh2", other, "bogus").ok());
  EXPECT_FALSE(std::filesystem::exists(service.WalPathFor("fresh2")));
}

TEST(StorageRecoveryMiscTest, ClosedNamesDoNotResurrectFromTheirWal) {
  ScratchDir dir("taco_close");
  WorkbookService service(StorageOptionsFor("text", dir.File("wal")));
  {
    auto session = *service.Open("book");
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 9).ok());
    EXPECT_TRUE(std::filesystem::exists(service.WalPathFor("book")));
  }
  ASSERT_TRUE(service.Close("book").ok());
  EXPECT_FALSE(std::filesystem::exists(service.WalPathFor("book")));
  // OPEN after CLOSE is a fresh, empty session — no WAL resurrection.
  auto session = *service.Open("book");
  EXPECT_EQ(session->Stats().cells, 0u);
}

TEST(StorageRecoveryMiscTest, LoadResetsAWalRecordedAgainstAnotherFile) {
  ScratchDir dir("taco_load_reset");
  const std::string other = dir.File("other.snap");
  {
    // A completely separate service writes `other`.
    WorkbookService writer(StorageOptionsFor("text", ""));
    auto session = *writer.Open("tmp");
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 555).ok());
    ASSERT_TRUE(session->Save(other).ok());
  }
  {
    // Crash a session whose WAL extends the EMPTY snapshot (never saved).
    WorkbookService service(StorageOptionsFor("text", dir.File("wal")));
    auto session = *service.Open("book");
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 1).ok());
  }
  // LOAD of `other` under the same name: the operator's explicit file
  // wins; the stale WAL must not replay on top of it.
  WorkbookService service(StorageOptionsFor("text", dir.File("wal")));
  auto loaded = service.Load("book", other);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->GetValue(Cell{1, 1}), Value::Number(555));
  EXPECT_EQ((*loaded)->Stats().recovered_records, 0u);
  // ... and the reset WAL now extends `other`: post-LOAD edits recover.
  ASSERT_TRUE((*loaded)->SetNumber(Cell{1, 2}, 2.0).ok());
  {
    WorkbookService after_crash(StorageOptionsFor("text", dir.File("wal")));
    auto recovered = after_crash.Open("book");
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ((*recovered)->GetValue(Cell{1, 1}), Value::Number(555));
    EXPECT_EQ((*recovered)->GetValue(Cell{1, 2}), Value::Number(2));
  }
}

TEST(StorageRecoveryMiscTest, DeepFormulaSurvivesCheckpointAndRecovery) {
  // 400 terms nest 399 levels: within the parser's bound but past the
  // binary decoder's old one, so recovery from the checkpoint failed
  // with DataLoss.
  ScratchDir dir("taco_deep_checkpoint");
  const std::string snap = dir.File("book.bsnap");
  std::string formula = "1";
  for (int i = 1; i < 400; ++i) formula += "+1";
  {
    WorkbookService service(StorageOptionsFor("binary", dir.File("wal")));
    CommandProcessor processor(&service);
    ASSERT_TRUE(processor.Execute("OPEN book").starts_with("OK"));
    ASSERT_TRUE(processor.Execute("FORMULA book A1 " + formula)
                    .starts_with("OK"));
    ASSERT_EQ(processor.Execute("GET book A1"), "VALUE A1 400");
    std::string checkpoint = processor.Execute("CHECKPOINT book " + snap);
    ASSERT_TRUE(checkpoint.starts_with("OK")) << checkpoint;
    ASSERT_TRUE(processor.Execute("SET book B1 7").starts_with("OK"));
  }  // Crash.
  WorkbookService service(StorageOptionsFor("binary", dir.File("wal")));
  auto recovered = service.Open("book");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->GetValue(Cell{1, 1}), Value::Number(400));
  EXPECT_EQ((*recovered)->GetValue(Cell{2, 1}), Value::Number(7));
  EXPECT_EQ((*recovered)->Stats().recovered_records, 1u);
}

TEST(StorageRecoveryMiscTest, KillPointRecoveryKeepsTheNoCompBackend) {
  // The backend key must survive ANY kill point, not just a clean
  // shutdown: the WAL header is written atomically at creation, so even
  // a log truncated to the header — or torn mid-record — still names
  // the backend, and recovery rebuilds a NoComp session holding exactly
  // the acknowledged prefix.
  constexpr int kOps = 5;
  // Header size of a log whose header is {no snapshot, "nocomp"}.
  uint64_t header_bytes = 0;
  {
    ScratchDir probe_dir("taco_nocomp_probe");
    auto probe = WriteAheadLog::Create(probe_dir.File("probe.wal"),
                                       WalOptions{}, {"", "nocomp"});
    ASSERT_TRUE(probe.ok());
    header_bytes = (*probe)->bytes();
  }
  for (int cut_at = 0; cut_at <= kOps; ++cut_at) {
    for (bool tear : {false, true}) {
      // A header is written whole via temp+rename — no kill point can
      // tear it — so the smallest legal cut is the full header.
      if (tear && cut_at == 0) continue;
      ScratchDir dir("taco_nocomp_kill");
      std::vector<uint64_t> boundaries{header_bytes};
      std::string wal_file;
      {
        WorkbookService service(StorageOptionsFor("text", dir.File("wal")));
        auto session = *service.Open("book", "nocomp");
        wal_file = service.WalPathFor("book");
        for (int i = 1; i <= kOps; ++i) {
          ASSERT_TRUE(session->SetNumber(Cell{1, i}, i).ok());
          boundaries.push_back(session->Stats().wal_bytes);
        }
      }  // Crash.
      // A torn cut loses the (never fully written) record it bites into.
      uint64_t cut = boundaries[cut_at] - (tear ? 1 : 0);
      int surviving = tear ? std::max(cut_at - 1, 0) : cut_at;
      std::filesystem::resize_file(wal_file, cut);

      WorkbookService service(StorageOptionsFor("text", dir.File("wal")));
      auto recovered = service.Open("book");  // No backend requested.
      ASSERT_TRUE(recovered.ok())
          << recovered.status().ToString() << " cut=" << cut;
      EXPECT_EQ((*recovered)->Stats().backend, "NoComp")
          << "cut=" << cut << " tear=" << tear;
      EXPECT_EQ((*recovered)->backend_key(), "nocomp");
      EXPECT_EQ((*recovered)->Stats().recovered_records,
                uint64_t(surviving));
      for (int i = 1; i <= kOps; ++i) {
        EXPECT_EQ((*recovered)->GetValue(Cell{1, i}),
                  i <= surviving ? Value::Number(i) : Value::Blank())
            << "cut=" << cut << " row " << i;
      }
    }
  }
}

TEST(StorageRecoveryMiscTest, LoadRestoresTheBackendFromTheWalHeader) {
  // LOAD of the very file the crashed session's WAL extends is recovery:
  // with no explicit backend the WAL header's key wins, and the logged
  // tail replays on top of the snapshot.
  ScratchDir dir("taco_load_backend");
  const std::string snap = dir.File("book.snap");
  {
    WorkbookService service(StorageOptionsFor("text", dir.File("wal")));
    auto session = *service.Open("book", "nocomp");
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 1).ok());
    ASSERT_TRUE(session->Checkpoint(snap).ok());
    ASSERT_TRUE(session->SetNumber(Cell{1, 2}, 2).ok());  // In the WAL.
  }  // Crash.
  WorkbookService service(StorageOptionsFor("text", dir.File("wal")));
  auto loaded = service.Load("book", snap);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->Stats().backend, "NoComp");
  EXPECT_EQ((*loaded)->GetValue(Cell{1, 1}), Value::Number(1));
  EXPECT_EQ((*loaded)->GetValue(Cell{1, 2}), Value::Number(2));
  EXPECT_EQ((*loaded)->Stats().recovered_records, 1u);
  // An explicit caller choice still outranks the header.
  ASSERT_TRUE(service.Close("book").ok());
  auto explicit_load = service.Load("book", snap, "cellgraph");
  ASSERT_TRUE(explicit_load.ok()) << explicit_load.status().ToString();
  EXPECT_EQ((*explicit_load)->Stats().backend, "CellGraph");
}

TEST(StorageRecoveryMiscTest, BinarySnapshotRestoresTheBackendWithoutAWal) {
  // With the WAL disabled entirely, the binary snapshot's meta section
  // is the only place the key survives — a later LOAD with no explicit
  // backend must come back on it, not on the service default.
  ScratchDir dir("taco_snapmeta_backend");
  const std::string snap = dir.File("book.bsnap");
  {
    WorkbookService service(StorageOptionsFor("binary", ""));
    auto session = *service.Open("book", "nocomp");
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 5).ok());
    ASSERT_TRUE(session->Save(snap).ok());
  }
  WorkbookService service(StorageOptionsFor("binary", ""));
  auto loaded = service.Load("copy", snap);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->Stats().backend, "NoComp");
  EXPECT_EQ((*loaded)->GetValue(Cell{1, 1}), Value::Number(5));
  // Explicit choice outranks the snapshot meta.
  auto chosen = service.Load("copy2", snap, "cellgraph");
  ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
  EXPECT_EQ((*chosen)->Stats().backend, "CellGraph");
}

TEST(StorageRecoveryMiscTest, WalFailureLatchesUntilACheckpointSucceeds) {
  // An append failure leaves the log missing an acknowledged edit, so
  // the session must (a) report the failed mutation as an error even
  // though it applied in memory, (b) refuse further mutations with
  // DataLoss — accepting them would widen the unlogged gap silently —
  // and (c) clear the latch only once a CHECKPOINT folds the unlogged
  // state into a durable snapshot.
  ScratchDir dir("taco_wal_latch");
  const std::string wal_dir = dir.File("wal");
  WorkbookService service(StorageOptionsFor("text", wal_dir));
  CommandProcessor processor(&service);
  EXPECT_EQ(processor.Execute("OPEN book"), "OK opened book backend=TACO");

  // Break WAL creation: replace the (still empty) wal directory with a
  // plain file, so the lazy Create on first append cannot open a path
  // under it. (chmod tricks don't inject here: tests may run as root.)
  std::filesystem::remove_all(wal_dir);
  std::ofstream(wal_dir).put('x');

  std::string failed = processor.Execute("SET book A1 7");
  EXPECT_TRUE(failed.starts_with("ERR")) << failed;
  EXPECT_NE(failed.find("not logged"), std::string::npos) << failed;
  // The edit DID apply in memory, and readers see it: the post-commit
  // version published before the error went out.
  EXPECT_EQ(processor.Execute("GET book A1"), "VALUE A1 7");
  std::string stats = processor.Execute("STATS book");
  EXPECT_NE(stats.find(" wal_failed=1"), std::string::npos) << stats;
  // Regression: the failed append must not report a durability wait —
  // last_sync_ns is only harvested from a SUCCESSFUL append, so the
  // span's wal_fsync phase stays zero (it used to leak the previous
  // successful append's timing into the failed op's breakdown).
  {
    auto spans = service.metrics().trace().Newest(1);
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_FALSE(spans[0].ok);
    EXPECT_EQ(spans[0].wal_fsync_ns, 0u);
  }

  // The latch refuses everything mutating, single edits and batches.
  std::string refused = processor.Execute("SET book A2 8");
  EXPECT_TRUE(refused.starts_with("ERR DataLoss:")) << refused;
  EXPECT_NE(refused.find("CHECKPOINT"), std::string::npos) << refused;
  EXPECT_TRUE(processor.Execute("BATCH book 1\nSET A2 8")
                  .starts_with("ERR DataLoss:"));
  EXPECT_EQ(processor.Execute("GET book A2"), "VALUE A2 ");

  // A CHECKPOINT that still cannot write its WAL must keep the latch.
  std::string snap = dir.File("book.snap");
  EXPECT_TRUE(processor.Execute("CHECKPOINT book " + snap)
                  .starts_with("ERR"));
  EXPECT_NE(processor.Execute("STATS book").find(" wal_failed=1"),
            std::string::npos);

  // Restore the directory: CHECKPOINT now snapshots the full in-memory
  // state (including the unlogged A1) and re-establishes durability.
  std::filesystem::remove(wal_dir);
  std::filesystem::create_directories(wal_dir);
  EXPECT_TRUE(processor.Execute("CHECKPOINT book " + snap)
                  .starts_with("OK checkpoint book"));
  EXPECT_NE(processor.Execute("STATS book").find(" wal_failed=0"),
            std::string::npos);
  EXPECT_TRUE(processor.Execute("SET book A2 8").starts_with("OK set"));

  // Crash + recover: snapshot carries A1, the fresh log carries A2.
  WorkbookService reopened(StorageOptionsFor("text", wal_dir));
  auto recovered = reopened.Open("book");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->GetValue(Cell{1, 1}), Value::Number(7));
  EXPECT_EQ((*recovered)->GetValue(Cell{1, 2}), Value::Number(8));
}

// ---------------------------------------------------------------------------
// Differential backend equivalence through the protocol
// ---------------------------------------------------------------------------

TEST(StorageDifferentialTest, BackendsAgreeOverRandomProtocolWorkloads) {
  std::mt19937_64 rng(0xB0B);
  for (int trial = 0, n = FuzzTrials(8); trial < n; ++trial) {
    ScratchDir text_dir("taco_diff_text");
    ScratchDir binary_dir("taco_diff_binary");
    auto text_service = std::make_unique<WorkbookService>(
        StorageOptionsFor("text", text_dir.File("wal")));
    auto binary_service = std::make_unique<WorkbookService>(
        StorageOptionsFor("binary", binary_dir.File("wal")));
    CommandProcessor text_proc(text_service.get());
    CommandProcessor binary_proc(binary_service.get());

    auto both = [&](const std::string& command) {
      std::string a = text_proc.Execute(command);
      std::string b = binary_proc.Execute(command);
      // Responses carry no paths for these commands, so equality is
      // byte-level (recalc timings are formatted but... find_ms varies).
      return std::make_pair(a, b);
    };

    std::string text_snap = text_dir.File("book.snap");
    std::string binary_snap = binary_dir.File("book.snap");
    both("OPEN book");
    int ops = 10 + int(rng() % 20);
    for (int i = 0; i < ops; ++i) {
      Edit edit = RandomEdit(rng);
      std::string command;
      switch (edit.kind) {
        case Edit::Kind::kSetNumber:
          command = "SET book " + edit.cell.ToString() + " " +
                    std::to_string(edit.number);
          break;
        case Edit::Kind::kSetText:
          command = "SET book " + edit.cell.ToString() + " \"" + edit.text +
                    "\"";
          break;
        case Edit::Kind::kSetFormula:
          command = "FORMULA book " + edit.cell.ToString() + " " + edit.text;
          break;
        case Edit::Kind::kClearRange:
          command = "CLEAR book " + edit.range.ToString();
          break;
      }
      both(command);
      if (rng() % 7 == 0) {
        text_proc.Execute("CHECKPOINT book " + text_snap);
        binary_proc.Execute("CHECKPOINT book " + binary_snap);
      }
      if (rng() % 9 == 0) {
        // GET responses must agree byte-for-byte.
        Cell cell{int(rng() % 6) + 1, int(rng() % 12) + 1};
        auto [a, b] = both("GET book " + cell.ToString());
        ASSERT_EQ(a, b) << "trial " << trial;
      }
    }
    // Final state equality (the sheet text is engine-independent).
    std::string text_state = (*text_service->Get("book"))->Snapshot();
    std::string binary_state = (*binary_service->Get("book"))->Snapshot();
    ASSERT_EQ(text_state, binary_state) << "trial " << trial;

    // Crash both, recover both: still identical.
    text_service = std::make_unique<WorkbookService>(
        StorageOptionsFor("text", text_dir.File("wal")));
    binary_service = std::make_unique<WorkbookService>(
        StorageOptionsFor("binary", binary_dir.File("wal")));
    auto text_session = text_service->Open("book");
    auto binary_session = binary_service->Open("book");
    ASSERT_TRUE(text_session.ok()) << text_session.status().ToString();
    ASSERT_TRUE(binary_session.ok()) << binary_session.status().ToString();
    ASSERT_EQ((*text_session)->Snapshot(), (*binary_session)->Snapshot())
        << "trial " << trial;
    ASSERT_EQ((*text_session)->Snapshot(), text_state) << "trial " << trial;
  }
}

}  // namespace
}  // namespace taco
