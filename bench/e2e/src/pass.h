// One pass of one workload against a freshly spawned taco_serve:
// set-up (spawn + LOAD, repeated), the closed-loop timed phase, and the
// correctness gate that reads every formula cell back and compares it
// with an in-process oracle.

#ifndef TACO_E2E_PASS_H_
#define TACO_E2E_PASS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "workload.h"

namespace taco::e2e {

struct PassConfig {
  std::string serve_binary;
  std::string work_dir;  ///< This workload's scratch directory.
  uint64_t seed = 1;
  double seconds = 15;   ///< Nominal timed-phase length.
  /// Spawn + LOAD this many times; the last daemon serves the timed phase.
  int setup_reps = 3;
  /// Start the daemon with --slow-op-ms 0.001, so it mirrors every
  /// mutation's trace span to its stderr, and scrape METRICS right after
  /// LOAD as well as after the timed phase.
  bool traced = false;
};

struct PassResult {
  std::vector<double> setup_s;  ///< One per set-up repetition.
  double phase_s = 0;           ///< Timed phase wall time.
  bool deadline_hit = false;    ///< Clients stopped before their count.
  uint64_t attempted = 0;
  uint64_t failed = 0;          ///< ERR responses + transport failures.
  std::string first_failure;
  /// Client round-trip times in microseconds, by command class.
  std::vector<double> edit_us, get_us, getrange_us;
  double rss_mb = 0;            ///< Daemon VmHWM after the timed phase.
  std::string metrics_after_load;  ///< Traced passes only.
  std::string metrics_after;       ///< METRICS right after the timed phase.
  std::string stderr_path;         ///< The daemon's stderr (span lines).
  double recovery_ms = 0;       ///< Mean OPEN time after SIGKILL (WAL only).
  bool correct = false;
  uint64_t cells_checked = 0;
  std::string gate_report;      ///< First mismatches, when incorrect.
};

/// Runs one pass. A non-OK status means the pass could not run at all
/// (build/spawn/protocol failure); a wrong answer is `correct == false`.
Result<PassResult> RunPass(const WorkloadSpec& spec,
                           const std::vector<BenchSheet>& sheets,
                           const PassConfig& config);

}  // namespace taco::e2e

#endif  // TACO_E2E_PASS_H_
