// Reader scaling of the MVCC read path: 1 writer + N readers on one
// session.
//
// One session holds an autofilled block (inputs + formula columns) in
// which EVERY formula references A1. A writer thread overwrites A1 as
// fast as acks come back — each write recalcs the whole block under the
// session mutex and publishes a new version — while N reader threads
// spin on GET (plus a periodic GETRANGE row slice). A read is a
// thread-local version lookup that never takes the session mutex, so
// the aggregate read rate should grow with reader cores and no read
// should stall for a recalc.
//
// Two observables:
//   * throughput — the aggregate GET rate per reader count, and its
//     scaling over the 1-reader run. Readers only scale as far as the
//     host has cores for them (the writer holds one).
//   * read tail latency (sampled) — the max over every 64th read. A
//     read never waits on the writer's recalc, so anything above a few
//     microseconds is scheduler preemption.
//
// Profiles (TACO_BENCH_PROFILE): smoke = 0.2 s per run, default = 1 s,
// paper = 3 s; reader counts {1, 2, 4, 8}.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "service/workbook_service.h"

namespace taco::bench {
namespace {

constexpr int32_t kRows = 256;  // Input rows in column A.
constexpr int32_t kCols = 4;    // A = inputs, B..D = formula columns.

// Every formula references A1, so each write to A1 dirties the whole
// 3*kRows formula block: the writer holds the session mutex for a full
// recalc per ack, which readers never wait on.
void SeedBlock(WorkbookSession& session) {
  EditBatch batch;
  for (int32_t row = 1; row <= kRows; ++row) {
    std::string r = std::to_string(row);
    batch.push_back(Edit::SetNumber(Cell{1, row}, row));
    batch.push_back(Edit::SetFormula(Cell{2, row}, "A1+A" + r));
    batch.push_back(Edit::SetFormula(Cell{3, row}, "B" + r + "+A" + r));
    batch.push_back(Edit::SetFormula(Cell{4, row}, "C" + r + "-A1"));
  }
  auto applied = session.ApplyBatch(batch);
  if (!applied.ok()) {
    std::fprintf(stderr, "seed failed: %s\n",
                 applied.status().ToString().c_str());
    std::abort();
  }
}

struct RunResult {
  double reads_per_sec = 0;
  double writes_per_sec = 0;
  double read_p50_ms = 0;
  double read_max_ms = 0;
};

/// One measured run: `readers` threads doing GET/GETRANGE for
/// `duration_ms` while one writer overwrites A1 as fast as acks come
/// back. Every 64th read is individually timed for the latency
/// percentiles.
RunResult Run(int readers, double duration_ms) {
  WorkbookService service;
  auto session = *service.Open("bench");
  SeedBlock(*session);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
  std::mutex samples_mu;
  std::vector<double> samples;

  std::vector<std::thread> threads;
  threads.reserve(readers + 1);
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      uint64_t local = 0;
      std::vector<double> local_samples;
      local_samples.reserve(4096);
      // Mostly single-cell GETs across the block, with a periodic
      // GETRANGE slice (one row) mixed in — the bulk verb's share of
      // real read traffic.
      int32_t row = 1 + (r * 7) % kRows;
      while (!stop.load(std::memory_order_acquire)) {
        for (int32_t col = 1; col <= kCols; ++col) {
          if (local % 64 == 0) {
            TimerMs one;
            session->GetValue(Cell{col, row});
            local_samples.push_back(one.ElapsedMs());
          } else {
            session->GetValue(Cell{col, row});
          }
          ++local;
        }
        if (local % 256 == 0) {
          session->GetRange(Range(1, row, kCols, row));
          ++local;
        }
        row = row % kRows + 1;
      }
      reads.fetch_add(local);
      std::lock_guard<std::mutex> lock(samples_mu);
      samples.insert(samples.end(), local_samples.begin(),
                     local_samples.end());
    });
  }
  threads.emplace_back([&] {
    uint64_t local = 0;
    while (!stop.load(std::memory_order_acquire)) {
      // A1 fans out to every formula: each ack paid a full-block recalc.
      if (session->SetNumber(Cell{1, 1}, double(local)).ok()) ++local;
    }
    writes.fetch_add(local);
  });

  TimerMs timer;
  while (timer.ElapsedMs() < duration_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  double secs = timer.ElapsedMs() / 1000.0;
  RunResult result;
  result.reads_per_sec = double(reads.load()) / secs;
  result.writes_per_sec = double(writes.load()) / secs;
  result.read_p50_ms = Percentile(samples, 50);
  result.read_max_ms = Percentile(samples, 100);
  return result;
}

std::string FormatRate(double per_sec) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f/s", per_sec);
  return buf;
}

std::string FormatUs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fus", ms * 1000.0);
  return buf;
}

}  // namespace
}  // namespace taco::bench

int main() {
  using namespace taco::bench;

  PrintHeader("Read throughput: MVCC reader scaling",
              "service extension; 1 writer + N readers, one session");

  double duration_ms = 1000;
  switch (ActiveBenchProfile()) {
    case BenchProfile::kSmoke: duration_ms = 200; break;
    case BenchProfile::kPaper: duration_ms = 3000; break;
    case BenchProfile::kDefault: break;
  }
  duration_ms = EnvDouble("TACO_BENCH_READ_MS", duration_ms);

  unsigned cores = std::thread::hardware_concurrency();
  std::printf("host cores: %u%s\n\n", cores,
              cores <= 1 ? "  (single CPU: readers cannot scale; compare "
                           "the max-latency column)"
                         : "");

  TablePrinter table({"readers", "reads", "scaling", "read p50", "read max",
                      "writes"});
  double one_reader_rate = 0;
  for (int readers : {1, 2, 4, 8}) {
    RunResult run = Run(readers, duration_ms);
    if (readers == 1) one_reader_rate = run.reads_per_sec;
    double scaling =
        one_reader_rate > 0 ? run.reads_per_sec / one_reader_rate : 0;
    std::string r = std::to_string(readers);
    char scaling_str[32];
    std::snprintf(scaling_str, sizeof(scaling_str), "%.1fx", scaling);
    table.AddRow({r + "R", FormatRate(run.reads_per_sec), scaling_str,
                  FormatUs(run.read_p50_ms), FormatUs(run.read_max_ms),
                  FormatRate(run.writes_per_sec)});
  }
  table.Print();
  std::printf(
      "\nscaling = aggregate reads/s over the 1-reader run. GET resolves\n"
      "against the published version — no lock, no stall behind the\n"
      "writer's full-block recalcs.\n");
  return 0;
}
