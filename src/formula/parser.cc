#include "formula/parser.h"

#include <algorithm>

#include "formula/lexer.h"

namespace taco {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ExprPtr> Parse() {
    auto expr = ParseComparison();
    if (!expr.ok()) return expr;
    if (Peek().kind != TokenKind::kEnd) {
      return UnexpectedToken("end of formula");
    }
    return expr;
  }

 private:
  /// Counts one open recursive construct (parenthesis, call, unary sign,
  /// '^' operand) for its lifetime. The open count never exceeds the
  /// depth the finished tree would have, so failing past the bound only
  /// rejects formulas the depth check would reject anyway, but before
  /// they can exhaust the stack.
  struct NestingGuard {
    explicit NestingGuard(int* open) : open(open) { ++*open; }
    ~NestingGuard() { --*open; }
    bool exceeded() const { return *open > kMaxFormulaDepth; }
    int* open;
  };

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Match(TokenKind kind) {
    if (Peek().kind != kind) return false;
    ++pos_;
    return true;
  }

  Status UnexpectedToken(std::string_view expected) const {
    return Status::ParseError(
        "expected " + std::string(expected) + " but found " +
        std::string(TokenKindToString(Peek().kind)) + " at offset " +
        std::to_string(Peek().offset));
  }

  Status TooDeep() const {
    return Status::ParseError("formula nests deeper than " +
                              std::to_string(kMaxFormulaDepth) +
                              " levels at offset " +
                              std::to_string(Peek().offset));
  }

  /// Records that the node just built wraps operands of depth `inner`;
  /// false once that passes the bound.
  bool Deepen(int inner) {
    depth_ = inner + 1;
    return depth_ <= kMaxFormulaDepth;
  }

  Result<ExprPtr> ParseComparison() {
    auto lhs = ParseConcat();
    if (!lhs.ok()) return lhs;
    ExprPtr expr = std::move(*lhs);
    while (true) {
      BinaryOp op;
      switch (Peek().kind) {
        case TokenKind::kEq: op = BinaryOp::kEq; break;
        case TokenKind::kNe: op = BinaryOp::kNe; break;
        case TokenKind::kLt: op = BinaryOp::kLt; break;
        case TokenKind::kLe: op = BinaryOp::kLe; break;
        case TokenKind::kGt: op = BinaryOp::kGt; break;
        case TokenKind::kGe: op = BinaryOp::kGe; break;
        default:
          return expr;
      }
      Advance();
      int lhs_depth = depth_;
      auto rhs = ParseConcat();
      if (!rhs.ok()) return rhs;
      if (!Deepen(std::max(lhs_depth, depth_))) return TooDeep();
      expr = std::make_unique<BinaryExpr>(op, std::move(expr), std::move(*rhs));
    }
  }

  Result<ExprPtr> ParseConcat() {
    auto lhs = ParseAdditive();
    if (!lhs.ok()) return lhs;
    ExprPtr expr = std::move(*lhs);
    while (Match(TokenKind::kAmpersand)) {
      int lhs_depth = depth_;
      auto rhs = ParseAdditive();
      if (!rhs.ok()) return rhs;
      if (!Deepen(std::max(lhs_depth, depth_))) return TooDeep();
      expr = std::make_unique<BinaryExpr>(BinaryOp::kConcat, std::move(expr),
                                          std::move(*rhs));
    }
    return expr;
  }

  Result<ExprPtr> ParseAdditive() {
    auto lhs = ParseMultiplicative();
    if (!lhs.ok()) return lhs;
    ExprPtr expr = std::move(*lhs);
    while (true) {
      BinaryOp op;
      if (Peek().kind == TokenKind::kPlus) {
        op = BinaryOp::kAdd;
      } else if (Peek().kind == TokenKind::kMinus) {
        op = BinaryOp::kSub;
      } else {
        return expr;
      }
      Advance();
      int lhs_depth = depth_;
      auto rhs = ParseMultiplicative();
      if (!rhs.ok()) return rhs;
      if (!Deepen(std::max(lhs_depth, depth_))) return TooDeep();
      expr = std::make_unique<BinaryExpr>(op, std::move(expr), std::move(*rhs));
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    auto lhs = ParseExponent();
    if (!lhs.ok()) return lhs;
    ExprPtr expr = std::move(*lhs);
    while (true) {
      BinaryOp op;
      if (Peek().kind == TokenKind::kStar) {
        op = BinaryOp::kMul;
      } else if (Peek().kind == TokenKind::kSlash) {
        op = BinaryOp::kDiv;
      } else {
        return expr;
      }
      Advance();
      int lhs_depth = depth_;
      auto rhs = ParseExponent();
      if (!rhs.ok()) return rhs;
      if (!Deepen(std::max(lhs_depth, depth_))) return TooDeep();
      expr = std::make_unique<BinaryExpr>(op, std::move(expr), std::move(*rhs));
    }
  }

  Result<ExprPtr> ParseExponent() {
    auto lhs = ParseUnary();
    if (!lhs.ok()) return lhs;
    if (Match(TokenKind::kCaret)) {
      // Right associative: recurse at the same level.
      int lhs_depth = depth_;
      NestingGuard guard(&open_);
      if (guard.exceeded()) return TooDeep();
      auto rhs = ParseExponent();
      if (!rhs.ok()) return rhs;
      if (!Deepen(std::max(lhs_depth, depth_))) return TooDeep();
      return ExprPtr(std::make_unique<BinaryExpr>(
          BinaryOp::kPow, std::move(*lhs), std::move(*rhs)));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (Peek().kind != TokenKind::kMinus && Peek().kind != TokenKind::kPlus) {
      return ParsePostfix();
    }
    UnaryOp op = Advance().kind == TokenKind::kMinus ? UnaryOp::kNegate
                                                     : UnaryOp::kPlus;
    NestingGuard guard(&open_);
    if (guard.exceeded()) return TooDeep();
    auto operand = ParseUnary();
    if (!operand.ok()) return operand;
    if (!Deepen(depth_)) return TooDeep();
    return ExprPtr(std::make_unique<UnaryExpr>(op, std::move(*operand)));
  }

  Result<ExprPtr> ParsePostfix() {
    auto primary = ParsePrimary();
    if (!primary.ok()) return primary;
    ExprPtr expr = std::move(*primary);
    while (Match(TokenKind::kPercent)) {
      if (!Deepen(depth_)) return TooDeep();
      expr = std::make_unique<UnaryExpr>(UnaryOp::kPercent, std::move(expr));
    }
    return expr;
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& token = Peek();
    depth_ = 0;  // Leaves; the cases that nest set it again below.
    switch (token.kind) {
      case TokenKind::kNumber: {
        double value = token.number;
        Advance();
        return ExprPtr(std::make_unique<NumberExpr>(value));
      }
      case TokenKind::kString: {
        std::string value = token.text;
        Advance();
        return ExprPtr(std::make_unique<StringExpr>(std::move(value)));
      }
      case TokenKind::kBoolean: {
        bool value = token.boolean;
        Advance();
        return ExprPtr(std::make_unique<BooleanExpr>(value));
      }
      case TokenKind::kCellRef:
        return ParseReference();
      case TokenKind::kIdentifier:
        return ParseCall();
      case TokenKind::kLParen: {
        Advance();
        NestingGuard guard(&open_);
        if (guard.exceeded()) return TooDeep();
        auto inner = ParseComparison();
        if (!inner.ok()) return inner;
        if (!Match(TokenKind::kRParen)) {
          return UnexpectedToken("')'");
        }
        if (!Deepen(depth_)) return TooDeep();
        return inner;
      }
      default:
        return UnexpectedToken("a value, reference, or function call");
    }
  }

  Result<ExprPtr> ParseReference() {
    const Token& head = Advance();  // kCellRef
    A1Reference ref;
    if (Match(TokenKind::kColon)) {
      if (Peek().kind != TokenKind::kCellRef) {
        return UnexpectedToken("cell reference after ':'");
      }
      const Token& tail = Advance();
      ref.range = Range(CellMin(head.cell, tail.cell),
                        CellMax(head.cell, tail.cell));
      ref.head_flags = head.cell_flags;
      ref.tail_flags = tail.cell_flags;
      ref.is_single_cell = false;
    } else {
      ref.range = Range(head.cell);
      ref.head_flags = head.cell_flags;
      ref.tail_flags = head.cell_flags;
      ref.is_single_cell = true;
    }
    return ExprPtr(std::make_unique<ReferenceExpr>(std::move(ref)));
  }

  Result<ExprPtr> ParseCall() {
    const Token& name = Advance();  // kIdentifier
    std::string fn_name = name.text;
    if (!Match(TokenKind::kLParen)) {
      return UnexpectedToken("'(' after function name");
    }
    NestingGuard guard(&open_);
    if (guard.exceeded()) return TooDeep();
    std::vector<ExprPtr> args;
    int deepest_arg = 0;
    if (!Match(TokenKind::kRParen)) {
      while (true) {
        auto arg = ParseComparison();
        if (!arg.ok()) return arg;
        deepest_arg = std::max(deepest_arg, depth_);
        args.push_back(std::move(*arg));
        if (Match(TokenKind::kComma)) continue;
        if (Match(TokenKind::kRParen)) break;
        return UnexpectedToken("',' or ')'");
      }
    }
    if (!Deepen(deepest_arg)) return TooDeep();
    return ExprPtr(
        std::make_unique<CallExpr>(std::move(fn_name), std::move(args)));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< Nesting depth of the expression parsed last.
  int open_ = 0;   ///< Recursive constructs open on the parse stack.
};

}  // namespace

Result<ExprPtr> ParseFormula(std::string_view text) {
  auto tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(*tokens));
  return parser.Parse();
}

}  // namespace taco
