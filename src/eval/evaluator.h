// Recursive formula evaluator with memoization and cycle detection.
//
// Supported functions: SUM, AVERAGE (alias AVG), MIN, MAX, COUNT, COUNTA,
// IF, AND, OR, NOT, ABS, ROUND, VLOOKUP, CONCAT/CONCATENATE; all binary
// operators of the formula language. Range arguments aggregate over
// non-blank cells like real spreadsheets.

#ifndef TACO_EVAL_EVALUATOR_H_
#define TACO_EVAL_EVALUATOR_H_

#include <unordered_map>
#include <unordered_set>

#include "eval/value.h"
#include "formula/ast.h"
#include "sheet/sheet.h"

namespace taco {

/// Evaluates cells of a Sheet. Results are cached per cell; Invalidate()
/// drops cache entries when cells change (the recalc engine drives this).
class Evaluator {
 public:
  explicit Evaluator(const Sheet* sheet) : sheet_(sheet) {}

  /// The value of `cell`: literals convert directly, formulas evaluate
  /// recursively. Unknown functions yield #NAME?, cycles #CYCLE!.
  Value EvaluateCell(const Cell& cell);

  /// Evaluates an expression as if located at some cell (references are
  /// absolute positions, so no origin is needed).
  Value EvaluateExpr(const Expr& expr);

  /// Drops the cached values of `cells` (after an update). Shrinks the
  /// cache's bucket table when a bulk invalidation leaves it nearly
  /// empty (erase alone never returns bucket memory).
  void Invalidate(const Range& cells);
  void InvalidateAll() {
    cache_.clear();
    MaybeShrink();
  }

  /// Inserts an already-computed value into the cache — how a cutoff
  /// pass restores a pruned cell's prior value. Overwrites any stale
  /// entry.
  void Prime(const Cell& cell, Value value) {
    cache_[cell] = std::move(value);
  }

  /// The cached value of `cell`, or nullptr when uncached. The pointer
  /// is invalidated by any mutation.
  const Value* FindCached(const Cell& cell) const {
    auto it = cache_.find(cell);
    return it == cache_.end() ? nullptr : &it->second;
  }

  size_t cache_size() const { return cache_.size(); }

  /// Bucket count of the value cache — the memory-visible footprint the
  /// shrink heuristic manages (tests assert it drops after bulk clears).
  size_t cache_bucket_count() const { return cache_.bucket_count(); }

  /// Tables at or below this many buckets never shrink (rehash churn on
  /// small maps isn't worth it).
  static constexpr size_t kShrinkMinBuckets = 1024;

  /// One flattened function argument. Spreadsheet aggregates treat values
  /// that came out of a range differently from direct scalar arguments
  /// (text/logicals in ranges are skipped; direct ones coerce), so the
  /// provenance rides along.
  struct ArgValue {
    Value value;
    bool from_range = false;
  };

 private:
  Value EvaluateCall(const CallExpr& call);
  Value EvaluateBinary(const BinaryExpr& expr);
  Value EvaluateUnary(const UnaryExpr& expr);
  void CollectArgValues(const Expr& arg, std::vector<ArgValue>* out);

  /// Rehashes the cache down after bulk erasure leaves it sparse.
  void MaybeShrink();

  const Sheet* sheet_;
  std::unordered_map<Cell, Value> cache_;
  std::unordered_set<Cell> in_progress_;
};

}  // namespace taco

#endif  // TACO_EVAL_EVALUATOR_H_
