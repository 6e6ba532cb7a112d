#include "eval/evaluator.h"

#include "formula/references.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <optional>

namespace taco {
namespace {

// Propagates the first error among argument values, if any.
std::optional<Value> FirstError(const std::vector<Evaluator::ArgValue>& values) {
  for (const auto& arg : values) {
    if (arg.value.is_error()) return arg.value;
  }
  return std::nullopt;
}

Value Compare(const Value& lhs, const Value& rhs, BinaryOp op) {
  // Spreadsheet comparison semantics: numbers compare numerically
  // (booleans/blanks coerce), text compares case-insensitively, mixed
  // number/text compares all text > all numbers (simplified to #VALUE!
  // here to keep semantics predictable).
  int cmp;
  if (lhs.CoercesToNumber() && rhs.CoercesToNumber()) {
    double a = lhs.AsNumber(), b = rhs.AsNumber();
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  } else if (lhs.is_text() && rhs.is_text()) {
    std::string a = lhs.text(), b = rhs.text();
    auto lower = [](std::string s) {
      std::transform(s.begin(), s.end(), s.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      return s;
    };
    a = lower(std::move(a));
    b = lower(std::move(b));
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  } else {
    return Value::Error(EvalError::kValue);
  }
  switch (op) {
    case BinaryOp::kEq: return Value::Boolean(cmp == 0);
    case BinaryOp::kNe: return Value::Boolean(cmp != 0);
    case BinaryOp::kLt: return Value::Boolean(cmp < 0);
    case BinaryOp::kLe: return Value::Boolean(cmp <= 0);
    case BinaryOp::kGt: return Value::Boolean(cmp > 0);
    case BinaryOp::kGe: return Value::Boolean(cmp >= 0);
    default: return Value::Error(EvalError::kValue);
  }
}

}  // namespace

std::string_view EvalErrorToString(EvalError error) {
  switch (error) {
    case EvalError::kDiv0: return "#DIV/0!";
    case EvalError::kValue: return "#VALUE!";
    case EvalError::kRef: return "#REF!";
    case EvalError::kName: return "#NAME?";
    case EvalError::kNa: return "#N/A";
    case EvalError::kCycle: return "#CYCLE!";
  }
  return "#ERROR!";
}

std::string Value::ToString() const {
  if (is_blank()) return "";
  if (is_number()) {
    double v = number();
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
      return std::to_string(static_cast<long long>(v));
    }
    std::string out = std::to_string(v);
    return out;
  }
  if (is_boolean()) return boolean() ? "TRUE" : "FALSE";
  if (is_text()) return text();
  return std::string(EvalErrorToString(error()));
}

namespace {

// Value of a non-formula cell.
Value LeafValue(const CellContent* content) {
  if (content == nullptr || content->IsBlank()) return Value::Blank();
  if (content->IsNumber()) return Value::Number(content->number());
  if (content->IsText()) return Value::Text(content->text());
  return Value::Boolean(content->boolean());
}

}  // namespace

Value Evaluator::EvaluateCell(const Cell& cell) {
  if (const Value* cached = FindCached(cell)) return *cached;

  const CellContent* content = sheet_->Get(cell);
  if (content == nullptr || !content->IsFormula()) {
    Value result = LeafValue(content);
    cache_.emplace(cell, result);
    return result;
  }
  // A gray cell reached again through an expression: circular reference.
  if (in_progress_.contains(cell)) {
    return Value::Error(EvalError::kCycle);
  }

  // Resolve the formula DAG under `cell` iteratively so that arbitrarily
  // deep dependency chains (running-total columns routinely reach 10^5
  // cells) cannot overflow the native stack. Expression evaluation stays
  // recursive — AST depth is small — and by the time a frame evaluates,
  // every formula cell it references is already cached.
  struct Frame {
    Cell cell;
    bool expanded = false;
  };
  std::vector<Frame> stack{{cell, false}};
  std::vector<A1Reference> refs;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (FindCached(frame.cell) != nullptr) {
      stack.pop_back();
      continue;
    }
    const CellContent* c = sheet_->Get(frame.cell);
    if (c == nullptr || !c->IsFormula()) {
      cache_.emplace(frame.cell, LeafValue(c));
      stack.pop_back();
      continue;
    }
    if (!frame.expanded) {
      frame.expanded = true;
      in_progress_.insert(frame.cell);
      refs.clear();
      ExtractReferences(*c->formula().ast, &refs);
      for (const A1Reference& ref : refs) {
        if (!ref.range.IsValid()) continue;
        for (const Cell& rc : EnumerateCells(ref.range)) {
          // Only uncached formula cells need resolution; gray ones are
          // ancestors (a cycle) and evaluate to #CYCLE! on read.
          if (FindCached(rc) == nullptr && !in_progress_.contains(rc) &&
              sheet_->IsFormulaCell(rc)) {
            stack.push_back(Frame{rc, false});
          }
        }
      }
      continue;  // children first; `frame` reference may be stale now
    }
    // Children resolved: evaluate with cache hits only.
    Value value = EvaluateExpr(*c->formula().ast);
    in_progress_.erase(frame.cell);
    cache_.emplace(frame.cell, value);
    stack.pop_back();
  }
  return cache_.at(cell);
}

Value Evaluator::EvaluateExpr(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kNumber:
      return Value::Number(static_cast<const NumberExpr&>(expr).value);
    case ExprKind::kString:
      return Value::Text(static_cast<const StringExpr&>(expr).value);
    case ExprKind::kBoolean:
      return Value::Boolean(static_cast<const BooleanExpr&>(expr).value);
    case ExprKind::kReference: {
      const auto& ref = static_cast<const ReferenceExpr&>(expr).ref;
      if (!ref.range.IsValid()) return Value::Error(EvalError::kRef);
      if (ref.range.IsSingleCell()) return EvaluateCell(ref.range.head);
      // A bare multi-cell range outside an aggregate context is #VALUE!.
      return Value::Error(EvalError::kValue);
    }
    case ExprKind::kUnary:
      return EvaluateUnary(static_cast<const UnaryExpr&>(expr));
    case ExprKind::kBinary:
      return EvaluateBinary(static_cast<const BinaryExpr&>(expr));
    case ExprKind::kCall:
      return EvaluateCall(static_cast<const CallExpr&>(expr));
  }
  return Value::Error(EvalError::kValue);
}

Value Evaluator::EvaluateUnary(const UnaryExpr& expr) {
  Value v = EvaluateExpr(*expr.operand);
  if (v.is_error()) return v;
  if (!v.CoercesToNumber()) return Value::Error(EvalError::kValue);
  switch (expr.op) {
    case UnaryOp::kNegate: return Value::Number(-v.AsNumber());
    case UnaryOp::kPlus: return Value::Number(v.AsNumber());
    case UnaryOp::kPercent: return Value::Number(v.AsNumber() / 100.0);
  }
  return Value::Error(EvalError::kValue);
}

Value Evaluator::EvaluateBinary(const BinaryExpr& expr) {
  Value lhs = EvaluateExpr(*expr.lhs);
  if (lhs.is_error()) return lhs;
  Value rhs = EvaluateExpr(*expr.rhs);
  if (rhs.is_error()) return rhs;

  switch (expr.op) {
    case BinaryOp::kConcat:
      return Value::Text(lhs.ToString() + rhs.ToString());
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return Compare(lhs, rhs, expr.op);
    default:
      break;
  }
  if (!lhs.CoercesToNumber() || !rhs.CoercesToNumber()) {
    return Value::Error(EvalError::kValue);
  }
  double a = lhs.AsNumber(), b = rhs.AsNumber();
  switch (expr.op) {
    case BinaryOp::kAdd: return Value::Number(a + b);
    case BinaryOp::kSub: return Value::Number(a - b);
    case BinaryOp::kMul: return Value::Number(a * b);
    case BinaryOp::kDiv:
      return b == 0.0 ? Value::Error(EvalError::kDiv0) : Value::Number(a / b);
    case BinaryOp::kPow: return Value::Number(std::pow(a, b));
    default: return Value::Error(EvalError::kValue);
  }
}

void Evaluator::CollectArgValues(const Expr& arg, std::vector<ArgValue>* out) {
  if (arg.kind == ExprKind::kReference) {
    const auto& ref = static_cast<const ReferenceExpr&>(arg).ref;
    if (!ref.range.IsSingleCell()) {
      for (const Cell& c : EnumerateCells(ref.range)) {
        out->push_back(ArgValue{EvaluateCell(c), true});
      }
      return;
    }
    // A single-cell reference still counts as range provenance: SUM(B1)
    // over a text B1 is 0, not #VALUE!.
    out->push_back(ArgValue{EvaluateCell(ref.range.head), true});
    return;
  }
  out->push_back(ArgValue{EvaluateExpr(arg), false});
}

Value Evaluator::EvaluateCall(const CallExpr& call) {
  const std::string& name = call.name;

  // IF evaluates lazily (only the taken branch).
  if (name == "IF") {
    if (call.args.size() < 2 || call.args.size() > 3) {
      return Value::Error(EvalError::kValue);
    }
    Value cond = EvaluateExpr(*call.args[0]);
    if (cond.is_error()) return cond;
    if (cond.AsBoolean()) return EvaluateExpr(*call.args[1]);
    if (call.args.size() == 3) return EvaluateExpr(*call.args[2]);
    return Value::Boolean(false);
  }

  if (name == "VLOOKUP") {
    // VLOOKUP(key, table, col_index [, exact_ignored]).
    if (call.args.size() < 3) return Value::Error(EvalError::kValue);
    Value key = EvaluateExpr(*call.args[0]);
    if (key.is_error()) return key;
    if (call.args[1]->kind != ExprKind::kReference) {
      return Value::Error(EvalError::kValue);
    }
    const Range table =
        static_cast<const ReferenceExpr&>(*call.args[1]).ref.range;
    Value col_value = EvaluateExpr(*call.args[2]);
    if (!col_value.CoercesToNumber()) return Value::Error(EvalError::kValue);
    int32_t col_index = static_cast<int32_t>(col_value.AsNumber());
    if (col_index < 1 || col_index > table.width()) {
      return Value::Error(EvalError::kRef);
    }
    for (int32_t row = table.head.row; row <= table.tail.row; ++row) {
      Value candidate = EvaluateCell(Cell{table.head.col, row});
      bool match = false;
      if (candidate.is_text() && key.is_text()) {
        match = candidate.text() == key.text();
      } else if (candidate.CoercesToNumber() && key.CoercesToNumber() &&
                 !candidate.is_blank()) {
        match = candidate.AsNumber() == key.AsNumber();
      }
      if (match) {
        return EvaluateCell(Cell{table.head.col + col_index - 1, row});
      }
    }
    return Value::Error(EvalError::kNa);
  }

  // Eager functions: aggregate every argument.
  std::vector<ArgValue> values;
  for (const ExprPtr& arg : call.args) {
    CollectArgValues(*arg, &values);
  }

  if (name == "SUM" || name == "AVERAGE" || name == "AVG" || name == "MIN" ||
      name == "MAX") {
    if (auto error = FirstError(values)) return *error;
    double sum = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    size_t count = 0;
    for (const ArgValue& arg : values) {
      const Value& v = arg.value;
      // Range cells contribute only actual numbers; direct scalar
      // arguments coerce booleans (SUM(TRUE) == 1) and reject text.
      if (arg.from_range) {
        if (!v.is_number()) continue;
      } else if (!v.CoercesToNumber()) {
        return Value::Error(EvalError::kValue);
      }
      double x = v.AsNumber();
      sum += x;
      min = std::min(min, x);
      max = std::max(max, x);
      ++count;
    }
    if (name == "SUM") return Value::Number(sum);
    if (count == 0) return Value::Error(EvalError::kDiv0);
    if (name == "AVERAGE" || name == "AVG") {
      return Value::Number(sum / static_cast<double>(count));
    }
    return Value::Number(name == "MIN" ? min : max);
  }
  if (name == "COUNT") {
    size_t count = 0;
    for (const ArgValue& arg : values) {
      if (arg.value.is_number()) ++count;
    }
    return Value::Number(static_cast<double>(count));
  }
  if (name == "COUNTA") {
    size_t count = 0;
    for (const ArgValue& arg : values) {
      if (!arg.value.is_blank()) ++count;
    }
    return Value::Number(static_cast<double>(count));
  }
  if (name == "AND" || name == "OR") {
    if (auto error = FirstError(values)) return *error;
    bool all = true, any = false;
    for (const ArgValue& arg : values) {
      const Value& v = arg.value;
      if (v.is_blank() || (arg.from_range && v.is_text())) continue;
      bool b = v.AsBoolean();
      all = all && b;
      any = any || b;
    }
    return Value::Boolean(name == "AND" ? all : any);
  }
  if (name == "NOT") {
    if (values.size() != 1) return Value::Error(EvalError::kValue);
    if (values[0].value.is_error()) return values[0].value;
    return Value::Boolean(!values[0].value.AsBoolean());
  }
  if (name == "ABS") {
    if (values.size() != 1 || !values[0].value.CoercesToNumber()) {
      return values.size() == 1 && values[0].value.is_error()
                 ? values[0].value
                 : Value::Error(EvalError::kValue);
    }
    return Value::Number(std::fabs(values[0].value.AsNumber()));
  }
  if (name == "ROUND") {
    if (values.empty() || !values[0].value.CoercesToNumber()) {
      return Value::Error(EvalError::kValue);
    }
    double digits = values.size() > 1 && values[1].value.CoercesToNumber()
                        ? values[1].value.AsNumber()
                        : 0.0;
    double scale = std::pow(10.0, digits);
    return Value::Number(std::round(values[0].value.AsNumber() * scale) /
                         scale);
  }
  if (name == "CONCAT" || name == "CONCATENATE") {
    std::string out;
    for (const ArgValue& arg : values) {
      if (arg.value.is_error()) return arg.value;
      out += arg.value.ToString();
    }
    return Value::Text(std::move(out));
  }

  return Value::Error(EvalError::kName);
}

void Evaluator::Invalidate(const Range& cells) {
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (cells.Contains(it->first)) {
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
  MaybeShrink();
}

void Evaluator::MaybeShrink() {
  // unordered_map::erase never releases buckets, so a cache that once
  // held a large region keeps its table (and its O(buckets) iteration
  // cost) forever. After a bulk invalidation leaves the table mostly
  // empty, rehash down. The 1/8 threshold keeps the amortized cost nil:
  // a shrink is only reachable after ~8x growth or mass erasure.
  if (cache_.bucket_count() > kShrinkMinBuckets &&
      cache_.size() < cache_.bucket_count() / 8) {
    cache_.rehash(cache_.size() * 2);
  }
}

}  // namespace taco
