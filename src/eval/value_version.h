// Immutable published value snapshots — the MVCC read path.
//
// A ValueVersion is the committed cell->value state of one session at one
// recalc commit, published as a refcounted immutable object so readers
// can serve GET/GETRANGE from one shared pointer to it: no session
// mutex, no evaluator-cache mutation, and no possibility of observing a
// torn mid-recalc state. Writers build the next version UNDER the session
// lock (right after the recalc commit — the same barrier the wave
// scheduler commits at) and publish it with a release store; readers
// acquire-load and walk a short copy-on-write delta chain:
//
//   version N   { id, touched ranges of commit N, values of those cells }
//         |base
//   version N-1 { ... }
//         |base
//   full        { every evaluated cell of the sheet at its commit }
//
// Lookup(cell) scans newest-to-oldest: the first node whose value map
// holds the cell wins; a node whose `touched` ranges cover the cell
// without a map entry means the commit left it blank (cleared or empty).
// Chains are bounded: once a delta would make the chain deeper than
// kMaxDepth, the builder flattens the whole chain into a fresh full
// version, so reads stay O(depth-bounded) and dropped versions free their
// deltas promptly.
//
// Thread-safety: a ValueVersion is deeply immutable after construction;
// any number of threads may Lookup concurrently while the writer builds
// (and publishes) successors that share the tail of the chain.

#ifndef TACO_EVAL_VALUE_VERSION_H_
#define TACO_EVAL_VALUE_VERSION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/range.h"
#include "eval/evaluator.h"
#include "eval/value.h"
#include "sheet/sheet.h"

namespace taco {

class ValueVersion {
 public:
  /// Deltas deeper than this flatten into a fresh full snapshot. Small:
  /// every GET pays O(depth) map probes in the worst case.
  static constexpr size_t kMaxDepth = 8;

  /// Builds a full snapshot: every cell of `sheet`, evaluated through
  /// `evaluator` (cache-warm after a recalc, so mostly hash probes).
  static std::shared_ptr<const ValueVersion> Full(uint64_t id,
                                                  const Sheet& sheet,
                                                  Evaluator* evaluator);

  /// Builds the successor of `base` after a commit that touched
  /// `touched` (seed rectangles plus dirty ranges; need not be
  /// disjoint). Cells whose committed value equals the base version's
  /// are dropped from the delta (the older chain already answers them),
  /// so the node carries only what the commit CHANGED. Falls back to a
  /// full rebuild when the touched area rivals the sheet itself or the
  /// chain would exceed kMaxDepth.
  static std::shared_ptr<const ValueVersion> Delta(
      uint64_t id, std::shared_ptr<const ValueVersion> base,
      const Sheet& sheet, Evaluator* evaluator,
      std::span<const Range> touched);

  /// The committed value of `cell` in this version (Blank when the cell
  /// is empty). Lock-free and safe to call from any thread.
  Value Lookup(const Cell& cell) const;

  uint64_t id() const { return id_; }
  /// Chain length including this node (a full snapshot is depth 1).
  size_t depth() const { return depth_; }
  /// Cells carried by this node alone (not the chain).
  size_t cell_entries() const { return values_.size(); }

 private:
  ValueVersion() = default;

  uint64_t id_ = 0;
  std::shared_ptr<const ValueVersion> base_;  ///< Null for full snapshots.
  std::vector<Range> touched_;  ///< Disjoint; empty for full snapshots.
  std::unordered_map<Cell, Value> values_;
  size_t depth_ = 1;
};

}  // namespace taco

#endif  // TACO_EVAL_VALUE_VERSION_H_
