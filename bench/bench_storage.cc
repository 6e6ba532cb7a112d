// Storage benchmark: snapshot save/load latency and size for the .tsheet
// text format vs the binary snapshot format over the bench corpora, WAL append throughput
// (with and without fsync), and durable edit throughput through the full
// service with N concurrent mutating sessions — group commit on vs off
// (the ISSUE 9 tentpole: >=5x at the smoke profile, >10x on multicore
// with a real disk; docs/BENCHMARKS.md records the tables).
//
// Profile-aware: TACO_BENCH_PROFILE=smoke|paper scales the corpus like
// every other bench binary.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "eval/recalc.h"
#include "service/workbook_service.h"
#include "sheet/textio.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace taco::bench {
namespace {

/// One on-disk sheet format, driven through its codec directly: saves
/// write atomically with fsync (WriteFileAtomic), loads do one bounded
/// read (ReadFileLimited) and parse.
struct Format {
  const char* name;
  std::string (*serialize)(const Sheet&);
  Result<Sheet> (*parse)(std::string_view);
};

constexpr Format kTextFormat{"text", &WriteSheetText, &ReadSheetText};
constexpr Format kBinaryFormat{"binary", &WriteSheetBinary, &ReadSheetBinary};

struct BackendNumbers {
  double save_ms = 0;
  double load_ms = 0;
  uint64_t bytes = 0;
};

std::string ScratchFile(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + "." + std::to_string(::getpid())))
      .string();
}

/// Saves + loads every sheet of `sheets` in `format`, accumulating wall
/// time and file size. Round-trip equality is asserted against the text
/// serialization (the differential oracle) on the first sheet.
BackendNumbers MeasureBackend(const Format& format,
                              const std::vector<CorpusSheet>& sheets) {
  BackendNumbers numbers;
  std::string path =
      ScratchFile(std::string("bench_storage_") + format.name);
  bool checked = false;
  for (const CorpusSheet& cs : sheets) {
    TimerMs save_timer;
    if (!WriteFileAtomic(path, format.serialize(cs.sheet)).ok()) {
      std::fprintf(stderr, "save failed (%s)\n", format.name);
      continue;
    }
    numbers.save_ms += save_timer.ElapsedMs();
    numbers.bytes += std::filesystem::file_size(path);
    TimerMs load_timer;
    auto data = ReadFileLimited(path, kDefaultMaxSnapshotBytes);
    Result<Sheet> loaded =
        data.ok() ? format.parse(*data) : Result<Sheet>(data.status());
    numbers.load_ms += load_timer.ElapsedMs();
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed (%s): %s\n", format.name,
                   loaded.status().ToString().c_str());
      continue;
    }
    if (!checked) {
      checked = true;
      Sheet reference = cs.sheet;
      loaded->set_name(reference.name());
      if (WriteSheetText(*loaded) != WriteSheetText(reference)) {
        std::fprintf(stderr, "ROUND-TRIP MISMATCH (%s)!\n", format.name);
      }
    }
  }
  std::remove(path.c_str());
  return numbers;
}

/// Appends `records` single-edit records, returning records/second.
double MeasureWalAppends(bool sync, int records) {
  std::string path = ScratchFile(sync ? "bench_storage_sync.wal"
                                      : "bench_storage_nosync.wal");
  std::remove(path.c_str());
  WalOptions options;
  options.sync = sync;
  auto wal = WriteAheadLog::Create(path, options, {});
  if (!wal.ok()) return 0;
  TimerMs timer;
  for (int i = 0; i < records; ++i) {
    Edit edit = Edit::SetNumber(Cell{i % 50 + 1, i % 1000 + 1}, i * 0.5);
    if (!(*wal)->Append({&edit, 1}).ok()) return 0;
  }
  double elapsed = timer.ElapsedMs();
  std::remove(path.c_str());
  return elapsed > 0 ? records / (elapsed / 1000.0) : 0;
}

struct DurableNumbers {
  double edits_per_sec = 0;
  uint64_t group_flushes = 0;  ///< 0 when group commit is off.
  double mean_group_size = 0;
};

/// Durable (fsync-before-ack) edit throughput through the service:
/// `sessions` workbooks, each mutated by `threads_per_session` concurrent
/// threads, every edit WAL-logged and synced before its ack. The on/off
/// pair is the group-commit headline — same workload, same durability
/// contract, O(files) vs O(edits) fsyncs per round.
DurableNumbers MeasureDurableServiceThroughput(bool group_commit,
                                               int sessions,
                                               int threads_per_session,
                                               int edits_per_thread,
                                               bool wal = true) {
  DurableNumbers numbers;
  std::string wal_dir =
      ScratchFile(group_commit ? "bench_storage_gc_wal" : "bench_storage_wal");
  std::filesystem::remove_all(wal_dir);
  {
    WorkbookServiceOptions options;
    if (wal) options.wal_dir = wal_dir;
    options.group_commit = group_commit;
    options.group_commit_max_delay_us =
        uint32_t(EnvInt("TACO_BENCH_DURABLE_DELAY_US", 0));
    WorkbookService service(options);
    std::vector<std::shared_ptr<WorkbookSession>> handles;
    for (int s = 0; s < sessions; ++s) {
      auto session = service.Open("bench" + std::to_string(s));
      if (!session.ok()) return numbers;
      handles.push_back(*session);
    }
    TimerMs timer;
    std::vector<std::thread> threads;
    for (int s = 0; s < sessions; ++s) {
      for (int t = 0; t < threads_per_session; ++t) {
        threads.emplace_back([session = handles[s], t, edits_per_thread] {
          // Plain numbers into a per-thread column: the measured cost is
          // the durability path, not recalc.
          for (int i = 0; i < edits_per_thread; ++i) {
            if (!session->SetNumber(Cell{t + 1, i % 200 + 1}, i).ok()) {
              return;
            }
          }
        });
      }
    }
    for (auto& thread : threads) thread.join();
    double elapsed = timer.ElapsedMs();
    uint64_t edits = uint64_t(sessions) * threads_per_session *
                     uint64_t(edits_per_thread);
    numbers.edits_per_sec = elapsed > 0 ? edits / (elapsed / 1000.0) : 0;
    const WalGroupCounters& g = service.metrics().wal_group();
    numbers.group_flushes = g.flushes.load();
    numbers.mean_group_size =
        numbers.group_flushes
            ? double(g.appends.load()) / double(numbers.group_flushes)
            : 0;
  }
  std::filesystem::remove_all(wal_dir);
  return numbers;
}

void RunDurableThroughput() {
  int sessions = 8;
  int threads_per_session = 8;
  int edits_per_thread = 50;
  if (ActiveBenchProfile() == BenchProfile::kSmoke) {
    // Enough concurrent writers per workbook for rounds to coalesce
    // meaningfully, few enough edits to stay fast on CI hardware.
    threads_per_session = 16;
    edits_per_thread = 25;
  } else if (ActiveBenchProfile() == BenchProfile::kPaper) {
    sessions = 16;
    threads_per_session = 12;
    edits_per_thread = 100;
  }
  sessions = EnvInt("TACO_BENCH_DURABLE_SESSIONS", sessions);
  threads_per_session =
      EnvInt("TACO_BENCH_DURABLE_THREADS", threads_per_session);
  edits_per_thread = EnvInt("TACO_BENCH_DURABLE_EDITS", edits_per_thread);

  std::printf(
      "\nDurable edits through the service (%d sessions x %d threads x %d "
      "edits, fsync-before-ack):\n",
      sessions, threads_per_session, edits_per_thread);
  DurableNumbers off = MeasureDurableServiceThroughput(
      false, sessions, threads_per_session, edits_per_thread);
  DurableNumbers on = MeasureDurableServiceThroughput(
      true, sessions, threads_per_session, edits_per_thread);
  // The non-durable run bounds what ANY fsync scheme can reach on this
  // host: it is the same service path with the WAL disabled entirely.
  DurableNumbers ceiling = MeasureDurableServiceThroughput(
      false, sessions, threads_per_session, edits_per_thread, /*wal=*/false);
  std::printf("  no WAL (ceiling): %10.0f edits/s\n", ceiling.edits_per_sec);
  std::printf("  group commit off: %10.0f edits/s\n", off.edits_per_sec);
  std::printf(
      "  group commit on : %10.0f edits/s  (%llu group flushes, mean "
      "%.1f appends/flush)\n",
      on.edits_per_sec,
      static_cast<unsigned long long>(on.group_flushes),
      on.mean_group_size);
  double speedup =
      off.edits_per_sec > 0 ? on.edits_per_sec / off.edits_per_sec : 0;
  std::printf("  speedup: %.2fx (acceptance floor: 5x at smoke scale)\n",
              speedup);
}

void RunCorpus(const CorpusProfile& profile) {
  std::vector<CorpusSheet> sheets = LoadCorpus(profile);
  BackendNumbers text_numbers = MeasureBackend(kTextFormat, sheets);
  BackendNumbers binary_numbers = MeasureBackend(kBinaryFormat, sheets);

  TablePrinter table({profile.name, "save_ms", "load_ms", "bytes"});
  auto row = [&](const char* name, const BackendNumbers& n) {
    char save[32], load[32];
    std::snprintf(save, sizeof(save), "%.2f", n.save_ms);
    std::snprintf(load, sizeof(load), "%.2f", n.load_ms);
    table.AddRow({name, save, load, std::to_string(n.bytes)});
  };
  row("text", text_numbers);
  row("binary", binary_numbers);
  table.Print();
  if (binary_numbers.load_ms > 0) {
    std::printf(
        "  binary load speedup: %.2fx  (size: %.2fx of text)\n",
        text_numbers.load_ms / binary_numbers.load_ms,
        text_numbers.bytes == 0
            ? 0.0
            : double(binary_numbers.bytes) / double(text_numbers.bytes));
  }
}

}  // namespace
}  // namespace taco::bench

int main() {
  using namespace taco::bench;
  PrintHeader("Storage formats: snapshot save/load + WAL append",
              "ISSUE 5 (storage tentpole)");

  RunCorpus(BenchEnron());
  std::printf("\n");
  RunCorpus(BenchGithub());

  int records = ActiveBenchProfile() == BenchProfile::kSmoke ? 2000 : 20000;
  std::printf("\nWAL appends (%d single-edit records):\n", records);
  double sync_rate = MeasureWalAppends(true, records);
  double nosync_rate = MeasureWalAppends(false, records);
  std::printf("  fsync on : %10.0f records/s\n", sync_rate);
  std::printf("  fsync off: %10.0f records/s\n", nosync_rate);

  RunDurableThroughput();

  std::printf(
      "\nShape check: binary loads >= 2x faster than text at every\n"
      "profile; fsync dominates WAL append cost (the durability price);\n"
      "group commit recovers most of it under concurrency.\n");
  return 0;
}
