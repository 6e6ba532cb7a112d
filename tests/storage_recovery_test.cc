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
// The parameterized suites run once per base-file format: the session
// starts from a LOAD of a .tsheet text file or of a binary snapshot.
// Whatever the base, every SAVE, CHECKPOINT and eviction writes a binary
// snapshot. The randomized suites scale with TACO_FUZZ_TRIALS.

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

WorkbookServiceOptions WalOptionsIn(const std::string& wal_dir) {
  WorkbookServiceOptions options;
  options.wal_dir = wal_dir;
  return options;
}

std::string Canon(const Sheet& sheet) { return WriteSheetText(sheet); }

/// Writes `sheet` as a base file in `format` ("text" = .tsheet, "binary"
/// = snapshot) under `dir` and returns its path. The stem is `stem`, so
/// a LOAD names the sheet after it.
std::string WriteBase(const ScratchDir& dir, const std::string& stem,
                      const std::string& format, const Sheet& sheet) {
  const bool binary = format == "binary";
  std::string path = dir.File(stem + (binary ? ".tsnap" : ".tsheet"));
  EXPECT_TRUE(WriteFileAtomic(path, binary ? WriteSheetBinary(sheet)
                                           : WriteSheetText(sheet))
                  .ok());
  return path;
}

/// True when the file at `path` holds a binary snapshot.
bool IsBinarySnapshotFile(const std::string& path) {
  auto bytes = ReadFileLimited(path, kDefaultMaxSnapshotBytes);
  return bytes.ok() && LooksLikeBinarySnapshot(*bytes);
}

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
  auto wal = WriteAheadLog::Create(probe, WalOptions{}, {snapshot_path});
  EXPECT_TRUE(wal.ok());
  uint64_t bytes = (*wal)->bytes();
  std::remove(probe.c_str());
  return bytes;
}

/// A random starting sheet for a LOAD: a few edits over the region the
/// ops touch, named after the session.
Sheet RandomBaseSheet(std::mt19937_64& rng, const std::string& name) {
  Sheet sheet;
  sheet.set_name(name);
  for (int i = 0, n = 2 + int(rng() % 5); i < n; ++i) {
    EXPECT_TRUE(ApplyEditToSheet(&sheet, RandomEdit(rng)).ok());
  }
  return sheet;
}

/// The parameter is the base file's format: "text" or "binary".
class StorageRecoveryTest : public ::testing::TestWithParam<const char*> {};

TEST_P(StorageRecoveryTest,
       RandomizedKillPointsRecoverExactlyTheAcknowledgedPrefix) {
  const std::string format = GetParam();
  std::mt19937_64 rng(0xD15C0 + (format == "binary" ? 1 : 0));
  for (int trial = 0, n = FuzzTrials(12); trial < n; ++trial) {
    ScratchDir dir("taco_recovery_" + format);
    const std::string snap = dir.File("book.snap");
    const std::string wal_dir = dir.File("wal");

    // Phase 1: the writer. LOAD the base file, then apply random
    // acknowledged ops, tracking the oracle state and the WAL offset at
    // each acknowledgement.
    Sheet base = RandomBaseSheet(rng, "book");  // Last persisted state.
    Sheet current = base;          // State after every acknowledged op.
    std::vector<AckedOp> acked;    // Ops since the last checkpoint.
    std::string last_snapshot = WriteBase(dir, "book", format, base);
    std::string wal_file;
    {
      WorkbookService service(WalOptionsIn(wal_dir));
      auto session = *service.Load("book", last_snapshot);
      wal_file = service.WalPathFor("book");
      int ops = 6 + int(rng() % 14);
      for (int i = 0; i < ops; ++i) {
        if (rng() % 6 == 0) {
          // Checkpoint mid-run: snapshot + rotation. Later kill points
          // land in the rotated log; earlier state comes off the
          // snapshot.
          ASSERT_TRUE(session->Checkpoint(snap).ok());
          ASSERT_TRUE(IsBinarySnapshotFile(snap));
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
      WorkbookService service(WalOptionsIn(wal_dir));
      auto session = service.Open("book");
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      EXPECT_EQ((*session)->Snapshot(), Canon(expected))
          << format << " trial " << trial << ": cut " << cut << " of "
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
  const std::string format = GetParam();
  constexpr int kSessions = 3;
  std::mt19937_64 rng(0x6C07 + (format == "binary" ? 1 : 0));
  for (int trial = 0, n = FuzzTrials(6); trial < n; ++trial) {
    ScratchDir dir("taco_gc_recovery_" + format);
    struct PerSession {
      std::string name;
      std::string base_path;        // The LOADed file the WAL extends.
      std::string wal_file;
      Sheet base;                   // The base file's contents.
      Sheet oracle;                 // State after every acknowledged op.
      std::vector<AckedOp> acked;
      uint64_t seed = 0;
    };
    std::vector<PerSession> sessions(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      PerSession& per = sessions[s];
      per.name = "book" + std::to_string(s);
      per.seed = rng();
      per.base = RandomBaseSheet(rng, per.name);
      per.oracle = per.base;
      per.base_path = WriteBase(dir, per.name, format, per.base);
    }

    // Phase 1: concurrent writers through one group committer. A small
    // coalescing window widens the rounds so acks genuinely share
    // fsyncs (the unit suite asserts the batching itself).
    {
      WorkbookServiceOptions options = WalOptionsIn(dir.File("wal"));
      options.group_commit = true;
      options.group_commit_max_delay_us = 200;
      WorkbookService service(options);
      std::vector<std::thread> drivers;
      for (PerSession& per : sessions) {
        per.wal_file = service.WalPathFor(per.name);
        drivers.emplace_back([&service, &per] {
          std::mt19937_64 thread_rng(per.seed);
          auto session = *service.Load(per.name, per.base_path);
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
    for (PerSession& per : sessions) {
      uint64_t header_bytes = WalHeaderBytes(dir, per.base_path);
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

      Sheet expected = per.base;
      size_t surviving = 0;
      for (const AckedOp& op : per.acked) {
        if (op.wal_end <= cut) {
          for (const Edit& edit : op.edits) {
            ASSERT_TRUE(ApplyEditToSheet(&expected, edit).ok());
          }
          ++surviving;
        }
      }

      WorkbookService service(WalOptionsIn(dir.File("wal")));
      auto recovered = service.Open(per.name);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      EXPECT_EQ((*recovered)->Snapshot(), Canon(expected))
          << format << " trial " << trial << " session " << per.name
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
    WorkbookServiceOptions options = WalOptionsIn(dir.File("wal"));
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
  WorkbookService reopened(WalOptionsIn(dir.File("wal")));
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
  const std::string format = GetParam();
  ScratchDir dir("taco_checkpoint_" + format);
  const std::string snap = dir.File("book.snap");
  Sheet base;
  ASSERT_TRUE(base.SetNumber(Cell{1, 1}, 40).ok());
  const std::string base_path = WriteBase(dir, "book", format, base);
  {
    WorkbookService service(WalOptionsIn(dir.File("wal")));
    auto session = *service.Load("book", base_path);
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 41).ok());
    ASSERT_TRUE(session->SetFormula(Cell{2, 1}, "A1+1").ok());
    ASSERT_TRUE(session->Checkpoint(snap).ok());
    EXPECT_TRUE(IsBinarySnapshotFile(snap));
    EXPECT_FALSE(session->Stats().dirty);
    EXPECT_EQ(session->Stats().wal_records, 0u);  // Rotated away.
    // Post-checkpoint edit: lives only in the WAL tail.
    ASSERT_TRUE(session->SetNumber(Cell{1, 2}, 100).ok());
  }
  {
    WorkbookService service(WalOptionsIn(dir.File("wal")));
    auto session = *service.Open("book");
    EXPECT_EQ(session->GetValue(Cell{2, 1}), Value::Number(42));
    EXPECT_EQ(session->GetValue(Cell{1, 2}), Value::Number(100));
    EXPECT_EQ(session->Stats().recovered_records, 1u);
    EXPECT_TRUE(session->Stats().dirty);
    EXPECT_EQ(session->bound_path(), snap);
  }
}

TEST_P(StorageRecoveryTest, InteriorWalCorruptionFailsOpenWithDataLoss) {
  const std::string format = GetParam();
  ScratchDir dir("taco_walcorrupt_" + format);
  const std::string base_path = WriteBase(dir, "book", format, Sheet());
  std::string wal_file;
  uint64_t first_record_end = 0;
  {
    WorkbookService service(WalOptionsIn(dir.File("wal")));
    auto session = *service.Load("book", base_path);
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
  WorkbookService service(WalOptionsIn(dir.File("wal")));
  auto session = service.Open("book");
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kDataLoss);
  // The log is left in place (for inspection / operator action), so the
  // failure is stable rather than quietly replaced by an empty session.
  auto again = service.Open("book");
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kDataLoss);
}

TEST_P(StorageRecoveryTest, EvictionParksAsABinarySnapshot) {
  const std::string format = GetParam();
  ScratchDir dir("taco_evict_" + format);
  WorkbookServiceOptions options = WalOptionsIn(dir.File("wal"));
  options.max_resident_sessions = 1;
  WorkbookService service(options);
  std::string paths[2];
  for (int i = 0; i < 2; ++i) {
    std::string name = "wb" + std::to_string(i);
    paths[i] = WriteBase(dir, name, format, Sheet());
    auto session = *service.Load(name, paths[i]);
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, i + 7.0).ok());
  }
  // Loading wb1 put the service over its cap: dirty wb0 was saved to
  // its bound file, the LOADed base, and parked.
  EXPECT_EQ(service.parked_sessions(), 1u);
  EXPECT_TRUE(IsBinarySnapshotFile(paths[0]));
  // Transparent reload, data intact.
  auto reloaded = service.Get("wb0");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*reloaded)->GetValue(Cell{1, 1}), Value::Number(7));
  // An explicit SAVE of the other one writes a snapshot too.
  ASSERT_TRUE(service.Save("wb1", dir.File("wb1.saved")).ok());
  EXPECT_TRUE(IsBinarySnapshotFile(dir.File("wb1.saved")));
}

TEST_P(StorageRecoveryTest, OverBoundFileIsDataLossThroughTheService) {
  // The one loader reads at most kDefaultMaxSnapshotBytes, whatever the
  // format: a file past the bound is refused before any byte of it is
  // read. The file is sparse, so it takes no disk space.
  const std::string format = GetParam();
  ScratchDir dir("taco_overbound_" + format);
  Sheet sheet;
  ASSERT_TRUE(sheet.SetNumber(Cell{1, 1}, 1).ok());
  const std::string path = WriteBase(dir, "big", format, sheet);
  std::filesystem::resize_file(path, kDefaultMaxSnapshotBytes + 1);
  WorkbookService service(WalOptionsIn(dir.File("wal")));
  auto loaded = service.Load("big", path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
      << loaded.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(service.WalPathFor("big")));
}

INSTANTIATE_TEST_SUITE_P(BaseFormats, StorageRecoveryTest,
                         ::testing::Values("text", "binary"));

TEST(StorageRecoveryMiscTest, FailedLoadLeavesTheWalIntact) {
  // A LOAD that fails after deciding to reset a mismatched WAL must not
  // have reset it: the acknowledged records stay recoverable, and a
  // failed LOAD of a fresh name must not leave a stray log behind.
  ScratchDir dir("taco_load_fail");
  const std::string corrupt = dir.File("corrupt.tsnap");
  {
    Sheet sheet;
    ASSERT_TRUE(sheet.SetNumber(Cell{1, 1}, 555).ok());
    std::string bytes = WriteSheetBinary(sheet);
    bytes.back() ^= 0x5A;  // The cells section CRC no longer matches.
    ASSERT_TRUE(WriteFileAtomic(corrupt, bytes).ok());
  }
  {
    WorkbookService service(WalOptionsIn(dir.File("wal")));
    auto session = *service.Open("book");
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 42).ok());
  }
  WorkbookService service(WalOptionsIn(dir.File("wal")));
  // Mismatched WAL + a corrupt snapshot: the load fails AFTER the reset
  // decision — the reset must not have happened.
  auto failed = service.Load("book", corrupt);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);
  auto recovered = service.Open("book");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->GetValue(Cell{1, 1}), Value::Number(42));
  // Fresh name, failing load: no stray WAL may appear for it.
  ASSERT_FALSE(service.Load("fresh", dir.File("missing.snap")).ok());
  EXPECT_FALSE(std::filesystem::exists(service.WalPathFor("fresh")));
  ASSERT_FALSE(service.Load("fresh2", corrupt).ok());
  EXPECT_FALSE(std::filesystem::exists(service.WalPathFor("fresh2")));
}

TEST(StorageRecoveryMiscTest, ClosedNamesDoNotResurrectFromTheirWal) {
  ScratchDir dir("taco_close");
  WorkbookService service(WalOptionsIn(dir.File("wal")));
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
    WorkbookService writer;
    auto session = *writer.Open("tmp");
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 555).ok());
    ASSERT_TRUE(session->Save(other).ok());
  }
  {
    // Crash a session whose WAL extends the EMPTY snapshot (never saved).
    WorkbookService service(WalOptionsIn(dir.File("wal")));
    auto session = *service.Open("book");
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 1).ok());
  }
  // LOAD of `other` under the same name: the operator's explicit file
  // wins; the stale WAL must not replay on top of it.
  WorkbookService service(WalOptionsIn(dir.File("wal")));
  auto loaded = service.Load("book", other);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->GetValue(Cell{1, 1}), Value::Number(555));
  EXPECT_EQ((*loaded)->Stats().recovered_records, 0u);
  // ... and the reset WAL now extends `other`: post-LOAD edits recover.
  ASSERT_TRUE((*loaded)->SetNumber(Cell{1, 2}, 2.0).ok());
  {
    WorkbookService after_crash(WalOptionsIn(dir.File("wal")));
    auto recovered = after_crash.Open("book");
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ((*recovered)->GetValue(Cell{1, 1}), Value::Number(555));
    EXPECT_EQ((*recovered)->GetValue(Cell{1, 2}), Value::Number(2));
  }
}

TEST(StorageRecoveryMiscTest, LoadOfTheFileTheWalExtendsReplaysTheTail) {
  // LOAD of the very file the crashed session's WAL extends is recovery,
  // not a fresh import: the logged tail replays on top of the snapshot.
  ScratchDir dir("taco_load_replay");
  const std::string snap = dir.File("book.snap");
  {
    WorkbookService service(WalOptionsIn(dir.File("wal")));
    auto session = *service.Open("book");
    ASSERT_TRUE(session->SetNumber(Cell{1, 1}, 1).ok());
    ASSERT_TRUE(session->Checkpoint(snap).ok());
    ASSERT_TRUE(session->SetNumber(Cell{1, 2}, 2).ok());  // In the WAL.
  }  // Crash.
  WorkbookService service(WalOptionsIn(dir.File("wal")));
  auto loaded = service.Load("book", snap);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->GetValue(Cell{1, 1}), Value::Number(1));
  EXPECT_EQ((*loaded)->GetValue(Cell{1, 2}), Value::Number(2));
  EXPECT_EQ((*loaded)->Stats().recovered_records, 1u);
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
    WorkbookService service(WalOptionsIn(dir.File("wal")));
    CommandProcessor processor(&service);
    ASSERT_TRUE(processor.Execute("OPEN book").starts_with("OK"));
    ASSERT_TRUE(processor.Execute("FORMULA book A1 " + formula)
                    .starts_with("OK"));
    ASSERT_EQ(processor.Execute("GET book A1"), "VALUE A1 400");
    std::string checkpoint = processor.Execute("CHECKPOINT book " + snap);
    ASSERT_TRUE(checkpoint.starts_with("OK")) << checkpoint;
    ASSERT_TRUE(processor.Execute("SET book B1 7").starts_with("OK"));
  }  // Crash.
  WorkbookService service(WalOptionsIn(dir.File("wal")));
  auto recovered = service.Open("book");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->GetValue(Cell{1, 1}), Value::Number(400));
  EXPECT_EQ((*recovered)->GetValue(Cell{2, 1}), Value::Number(7));
  EXPECT_EQ((*recovered)->Stats().recovered_records, 1u);
}

// ---------------------------------------------------------------------------
// Files written when the service could host other graphs
// ---------------------------------------------------------------------------
//
// Until the service hosted TACO only, a session could run on NoComp, and
// both the v2 snapshot meta and the v1 WAL header recorded that choice.
// These bytes come from that writer (WriteSheetBinary with backend
// "nocomp"; WriteAheadLog with header {"", "nocomp"} and two appends).
// The sheet is:
//
//   A1 = 3   A2 = 4   B1 = =SUM(A1:A2)   B2 = =A2*2   B3 = =A3*2   C1 = "hi"
//
// and the log holds {SET A1 5} then {FORMULA B1 A1*10, SET A2 "note"}.

// 220 bytes
constexpr char kNoCompSnapshotV2[] =
    "\x54\x53\x4e\x50\x02\x00\x00\x00\x04\x00\x00\x00\x76\xfa\x92\x9a"
    "\x01\x00\x00\x00\x24\x00\x00\x00\x00\x00\x00\x00\x38\x88\x04\x62"
    "\x06\x00\x00\x00\x6c\x65\x67\x61\x63\x79\x06\x00\x00\x00\x00\x00"
    "\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x06\x00\x00\x00\x6e\x6f"
    "\x63\x6f\x6d\x70\x02\x00\x00\x00\x1c\x00\x00\x00\x00\x00\x00\x00"
    "\xfb\x42\xe9\x6a\x04\x00\x00\x00\x0a\x53\x55\x4d\x28\x41\x31\x3a"
    "\x41\x32\x29\x04\x41\x32\x2a\x32\x04\x41\x33\x2a\x32\x02\x68\x69"
    "\x03\x00\x00\x00\x23\x00\x00\x00\x00\x00\x00\x00\x72\xfe\x02\xd2"
    "\x02\x00\x00\x00\x00\x0c\x06\x03\x53\x55\x4d\x01\x03\x00\x01\x00"
    "\x01\x02\x00\x0f\x05\x02\x03\x10\x01\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x40\x04\x00\x00\x00\x29\x00\x00\x00\x00\x00\x00\x00\xe1"
    "\x32\xfe\x6e\x02\x02\x00\x00\x00\x00\x00\x00\x00\x08\x40\x00\x02"
    "\x00\x00\x00\x00\x00\x00\x00\x10\x40\x02\x01\x03\x00\x00\x00\x02"
    "\x03\x01\x01\x00\x02\x03\x02\x01\x02\x03\x01\x03";

// 102 bytes
constexpr char kNoCompWalV1[] =
    "\x54\x57\x41\x4c\x01\x00\x00\x00\x00\x00\x00\x00\x06\x00\x00\x00"
    "\x6e\x6f\x63\x6f\x6d\x70\x0a\x0d\x13\x9d\x15\x00\x00\x00\x2e\x0d"
    "\x61\xb3\x01\x00\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x14\x40\x27\x00\x00\x00\xc7\x7e\xbe\x0c\x02"
    "\x00\x00\x00\x02\x02\x00\x00\x00\x01\x00\x00\x00\x05\x00\x00\x00"
    "\x41\x31\x2a\x31\x30\x01\x01\x00\x00\x00\x02\x00\x00\x00\x04\x00"
    "\x00\x00\x6e\x6f\x74\x65";

std::string LegacyBytes(const char* bytes, size_t size) {
  return std::string(bytes, size - 1);  // Drop the literal's NUL.
}

TEST(LegacyFileTest, V2SnapshotNamingNoCompLoadsOntoTaco) {
  ScratchDir dir("taco_legacy_snapshot");
  const std::string path = dir.File("legacy.tsnap");
  ASSERT_TRUE(WriteFileAtomic(path, LegacyBytes(kNoCompSnapshotV2,
                                                sizeof(kNoCompSnapshotV2)))
                  .ok());
  auto expected = ReadSheetText(
      "A1 = 3\nA2 = 4\nB1 = =SUM(A1:A2)\nB2 = =A2*2\nB3 = =A3*2\n"
      "C1 = \"hi\"\n");
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  expected->set_name("legacy");

  WorkbookService service;
  CommandProcessor processor(&service);
  EXPECT_EQ(processor.Execute("LOAD legacy " + path),
            "OK loaded legacy cells=6 formulas=3");
  auto session = *service.Get("legacy");
  EXPECT_EQ(session->Snapshot(), Canon(*expected));
  EXPECT_EQ(processor.Execute("GET legacy B1"), "VALUE B1 7");
  EXPECT_EQ(processor.Execute("GET legacy B2"), "VALUE B2 8");
  EXPECT_EQ(processor.Execute("GET legacy B3"), "VALUE B3 0");
  // The graph is TACO's: the autofilled B2:B3 pair shares one edge.
  EXPECT_EQ(session->Stats().graph_edges, 2u);

  // Saving it back writes the backend slot empty.
  ASSERT_TRUE(session->Save().ok());
  auto resaved = ReadFileLimited(path, kDefaultMaxSnapshotBytes);
  ASSERT_TRUE(resaved.ok());
  EXPECT_TRUE(LooksLikeBinarySnapshot(*resaved));
  EXPECT_EQ(resaved->find("nocomp"), std::string::npos);
  auto reread = ReadSheetBinary(*resaved);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  EXPECT_EQ(Canon(*reread), Canon(*expected));
}

TEST(LegacyFileTest, V1WalNamingNoCompRecoversOntoTaco) {
  ScratchDir dir("taco_legacy_wal");
  WorkbookService probe(WalOptionsIn(dir.File("wal")));
  const std::string wal_file = probe.WalPathFor("book");
  ASSERT_TRUE(WriteFileAtomic(wal_file, LegacyBytes(kNoCompWalV1,
                                                    sizeof(kNoCompWalV1)))
                  .ok());
  Sheet expected;
  expected.set_name("book");
  ASSERT_TRUE(
      ApplyEditToSheet(&expected, Edit::SetNumber(Cell{1, 1}, 5)).ok());
  ASSERT_TRUE(
      ApplyEditToSheet(&expected, Edit::SetFormula(Cell{2, 1}, "A1*10"))
          .ok());
  ASSERT_TRUE(
      ApplyEditToSheet(&expected, Edit::SetText(Cell{1, 2}, "note")).ok());

  WorkbookService service(WalOptionsIn(dir.File("wal")));
  auto recovered = service.Open("book");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->Snapshot(), Canon(expected));
  EXPECT_EQ((*recovered)->Stats().recovered_records, 2u);
  EXPECT_EQ((*recovered)->GetValue(Cell{2, 1}), Value::Number(50));
  EXPECT_EQ((*recovered)->GetValue(Cell{1, 2}), Value::Text("note"));
  // New records append after the old header, and recover with it.
  ASSERT_TRUE((*recovered)->SetNumber(Cell{1, 1}, 6).ok());
  WorkbookService reopened(WalOptionsIn(dir.File("wal")));
  auto again = reopened.Open("book");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->GetValue(Cell{2, 1}), Value::Number(60));
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
  WorkbookService service(WalOptionsIn(wal_dir));
  CommandProcessor processor(&service);
  EXPECT_EQ(processor.Execute("OPEN book"), "OK opened book");
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
  WorkbookService reopened(WalOptionsIn(wal_dir));
  auto recovered = reopened.Open("book");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->GetValue(Cell{1, 1}), Value::Number(7));
  EXPECT_EQ((*recovered)->GetValue(Cell{1, 2}), Value::Number(8));
}

// ---------------------------------------------------------------------------
// Base-format equivalence through the protocol
// ---------------------------------------------------------------------------

TEST(StorageDifferentialTest, BaseFormatsAgreeOverRandomProtocolWorkloads) {
  // Two services start from the same sheet, one LOADed from a .tsheet
  // and one from a binary snapshot, and take the same random protocol
  // traffic with checkpoints in between. Their sheets must agree after
  // every step that reports one, and again after a crash and recovery.
  std::mt19937_64 rng(0xB0B);
  for (int trial = 0, n = FuzzTrials(8); trial < n; ++trial) {
    ScratchDir text_dir("taco_diff_text");
    ScratchDir binary_dir("taco_diff_binary");
    Sheet base = RandomBaseSheet(rng, "book");
    const std::string text_base = WriteBase(text_dir, "book", "text", base);
    const std::string binary_base =
        WriteBase(binary_dir, "book", "binary", base);
    auto text_service = std::make_unique<WorkbookService>(
        WalOptionsIn(text_dir.File("wal")));
    auto binary_service = std::make_unique<WorkbookService>(
        WalOptionsIn(binary_dir.File("wal")));
    CommandProcessor text_proc(text_service.get());
    CommandProcessor binary_proc(binary_service.get());

    auto both = [&](const std::string& command) {
      return std::make_pair(text_proc.Execute(command),
                            binary_proc.Execute(command));
    };

    std::string text_snap = text_dir.File("book.snap");
    std::string binary_snap = binary_dir.File("book.snap");
    ASSERT_TRUE(text_proc.Execute("LOAD book " + text_base)
                    .starts_with("OK loaded"));
    ASSERT_TRUE(binary_proc.Execute("LOAD book " + binary_base)
                    .starts_with("OK loaded"));
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
    std::string text_state = (*text_service->Get("book"))->Snapshot();
    std::string binary_state = (*binary_service->Get("book"))->Snapshot();
    ASSERT_EQ(text_state, binary_state) << "trial " << trial;

    // Crash both, recover both: still identical.
    text_service = std::make_unique<WorkbookService>(
        WalOptionsIn(text_dir.File("wal")));
    binary_service = std::make_unique<WorkbookService>(
        WalOptionsIn(binary_dir.File("wal")));
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
