// Prometheus exposition over a live WorkbookService.
//
// One function renders everything a scrape wants: per-op latency
// histograms (+ precomputed quantile gauges), traffic/error counters,
// recalc phase totals, transport/storage counters, and per-session
// gauges (cells, versions, WAL bytes, reads). Served by the
// METRICS protocol verb and by taco_serve's HTTP GET /metrics listener
// — both return these bytes, so a scrape sees the same truth as a
// protocol client.
//
// The layout is CONSTANT: every op family emits a series for every
// ServiceOp whether or not it has traffic, and families appear in a
// fixed order. Scrape output therefore differs across transports and
// runs only in sample VALUES, which is what makes byte-level protocol
// conformance (after number scrubbing) testable at all.

#ifndef TACO_SERVICE_EXPOSITION_H_
#define TACO_SERVICE_EXPOSITION_H_

#include <string>

namespace taco {

class WorkbookService;

/// Renders the full text-format (0.0.4) exposition of `service`.
/// Thread-safe; takes only short internal locks (histogram snapshots
/// are lock-free merges; per-session stats take each session's mutex
/// briefly). Never blocks the lock-free read path.
std::string RenderServiceExposition(WorkbookService& service);

}  // namespace taco

#endif  // TACO_SERVICE_EXPOSITION_H_
