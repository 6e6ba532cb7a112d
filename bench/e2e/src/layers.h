// Per-layer accounting for a traced pass. Layer names follow the src/
// modules a command crosses (net, service, taco, sched, eval, store,
// sheet, obs). Three sources:
//   * trace spans the daemon mirrors to stderr (--slow-op-ms), one per
//     mutation, giving each phase's time;
//   * METRICS scrapes after LOAD and after the timed phase, giving exact
//     counters and server-side latency sums;
//   * probes that call stable core entry points (LoadSheetFile,
//     BuildGraphFromSheet, DependencyGraph::FindDependents) in-process on
//     the same generated sheets.

#ifndef TACO_E2E_LAYERS_H_
#define TACO_E2E_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "pass.h"
#include "workload.h"

namespace taco::e2e {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool lower_is_better = true;
  /// Exact by construction: must repeat bit-for-bit on the same seed.
  bool counter = false;
  uint64_t samples = 0;   ///< Samples behind a timing; 0 when not one.
  std::string moves;      ///< "edit_p50_ms @ anchor_recalc" style note.
};

/// One mutation's span, as the daemon's slow-op mirror prints it
/// (obs::TraceSpan::ToLine; integer microseconds).
struct SpanLine {
  uint64_t total_us = 0, lock_us = 0, find_us = 0, eval_us = 0,
           publish_us = 0, fsync_us = 0, respond_us = 0;
  uint64_t dirty = 0, waves = 0;
};

/// Every span line in the daemon's stderr capture.
Result<std::vector<SpanLine>> ReadSpans(const std::string& stderr_path);

/// Results of the in-process probes on the workload's sheets.
struct ProbeResult {
  double parse_ms = 0;             ///< LoadSheetFile, all sheets.
  double build_ms = 0;             ///< BuildGraphFromSheet (TACO), all sheets.
  double taco_find_us = 0;         ///< Mean FindDependents at the anchors.
  double nocomp_find_us = 0;
};
Result<ProbeResult> RunProbes(const std::vector<BenchSheet>& sheets);

/// The per-layer table of one workload from its untraced and traced
/// passes. Also fills `identity` with the RTT = layers + gap lines.
Result<std::vector<Metric>> LayerMetrics(const PassResult& untraced,
                                         const PassResult& traced,
                                         const ProbeResult& probes,
                                         std::string* identity);

}  // namespace taco::e2e

#endif  // TACO_E2E_LAYERS_H_
