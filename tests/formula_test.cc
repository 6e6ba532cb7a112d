// Tests for the formula lexer, parser, printer, reference extraction, and
// the autofill shift transform.

#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/recalc.h"
#include "graph_test_util.h"
#include "formula/lexer.h"
#include "formula/parser.h"
#include "formula/references.h"
#include "graph/nocomp_graph.h"

namespace taco {
namespace {

// ---------------------------------------------------------------------------
// Lexer

TEST(LexerTest, Operators) {
  auto tokens = Tokenize("+-*/^&%()=<><=<>=:,");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& token : *tokens) kinds.push_back(token.kind);
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kPlus, TokenKind::kMinus, TokenKind::kStar,
                       TokenKind::kSlash, TokenKind::kCaret,
                       TokenKind::kAmpersand, TokenKind::kPercent,
                       TokenKind::kLParen, TokenKind::kRParen, TokenKind::kEq,
                       TokenKind::kNe, TokenKind::kLe, TokenKind::kNe,
                       TokenKind::kEq, TokenKind::kColon, TokenKind::kComma,
                       TokenKind::kEnd}));
}

TEST(LexerTest, NumbersAndStrings) {
  auto tokens = Tokenize("3.5 1e3 .25 \"he said \"\"hi\"\"\"");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 5u);
  EXPECT_DOUBLE_EQ((*tokens)[0].number, 3.5);
  EXPECT_DOUBLE_EQ((*tokens)[1].number, 1000.0);
  EXPECT_DOUBLE_EQ((*tokens)[2].number, 0.25);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[3].text, "he said \"hi\"");
}

TEST(LexerTest, CellRefsAndIdentifiers) {
  auto tokens = Tokenize("SUM(A1,$B$2,c3)");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "SUM");
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kCellRef);
  EXPECT_EQ((*tokens)[2].cell, (Cell{1, 1}));
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kCellRef);
  EXPECT_EQ((*tokens)[4].cell, (Cell{2, 2}));
  EXPECT_TRUE((*tokens)[4].cell_flags.abs_col);
  EXPECT_TRUE((*tokens)[4].cell_flags.abs_row);
  EXPECT_EQ((*tokens)[6].cell, (Cell{3, 3}));  // lowercase accepted
}

TEST(LexerTest, BooleansCaseInsensitive) {
  auto tokens = Tokenize("TRUE false");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kBoolean);
  EXPECT_TRUE((*tokens)[0].boolean);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kBoolean);
  EXPECT_FALSE((*tokens)[1].boolean);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
  EXPECT_FALSE(Tokenize("#BAD").ok());
  EXPECT_FALSE(Tokenize("FOO123BAR").ok());  // neither call nor valid ref
}

// ---------------------------------------------------------------------------
// Parser structure

const BinaryExpr& AsBinary(const Expr& e) {
  EXPECT_EQ(e.kind, ExprKind::kBinary);
  return static_cast<const BinaryExpr&>(e);
}

TEST(ParserTest, Precedence) {
  auto expr = ParseFormula("1+2*3");
  ASSERT_TRUE(expr.ok());
  const auto& add = AsBinary(**expr);
  EXPECT_EQ(add.op, BinaryOp::kAdd);
  EXPECT_EQ(add.lhs->kind, ExprKind::kNumber);
  const auto& mul = AsBinary(*add.rhs);
  EXPECT_EQ(mul.op, BinaryOp::kMul);
}

TEST(ParserTest, LeftAssociativity) {
  auto expr = ParseFormula("10-4-3");
  ASSERT_TRUE(expr.ok());
  const auto& outer = AsBinary(**expr);
  EXPECT_EQ(outer.op, BinaryOp::kSub);
  const auto& inner = AsBinary(*outer.lhs);
  EXPECT_EQ(inner.op, BinaryOp::kSub);
}

TEST(ParserTest, ExponentRightAssociative) {
  auto expr = ParseFormula("2^3^2");
  ASSERT_TRUE(expr.ok());
  const auto& outer = AsBinary(**expr);
  EXPECT_EQ(outer.op, BinaryOp::kPow);
  EXPECT_EQ(outer.lhs->kind, ExprKind::kNumber);
  EXPECT_EQ(outer.rhs->kind, ExprKind::kBinary);
}

TEST(ParserTest, ComparisonLowestPrecedence) {
  auto expr = ParseFormula("A1+1=B2*2");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(AsBinary(**expr).op, BinaryOp::kEq);
}

TEST(ParserTest, UnaryAndPercent) {
  auto expr = ParseFormula("-5%");
  ASSERT_TRUE(expr.ok());
  const auto& neg = static_cast<const UnaryExpr&>(**expr);
  EXPECT_EQ(neg.op, UnaryOp::kNegate);
  EXPECT_EQ(static_cast<const UnaryExpr&>(*neg.operand).op, UnaryOp::kPercent);
}

TEST(ParserTest, PaperFig2Formula) {
  // The running example from the paper's Fig. 2.
  auto expr = ParseFormula("IF(A3=A2,N2+M3,M3)");
  ASSERT_TRUE(expr.ok());
  const auto& call = static_cast<const CallExpr&>(**expr);
  EXPECT_EQ(call.name, "IF");
  ASSERT_EQ(call.args.size(), 3u);
  EXPECT_EQ(call.args[0]->kind, ExprKind::kBinary);

  // M3 appears twice in the formula; extraction preserves duplicates.
  auto refs = ExtractReferences(**expr);
  ASSERT_EQ(refs.size(), 5u);
  EXPECT_EQ(refs[0].range, Range(Cell{1, 3}));   // A3
  EXPECT_EQ(refs[1].range, Range(Cell{1, 2}));   // A2
  EXPECT_EQ(refs[2].range, Range(Cell{14, 2}));  // N2
  EXPECT_EQ(refs[3].range, Range(Cell{13, 3}));  // M3
  EXPECT_EQ(refs[4].range, Range(Cell{13, 3}));  // M3 again
}

TEST(ParserTest, RangeReference) {
  auto expr = ParseFormula("SUM($B$1:B4)*A1");
  ASSERT_TRUE(expr.ok());
  auto refs = ExtractReferences(**expr);
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0].range, Range(2, 1, 2, 4));
  EXPECT_TRUE(refs[0].head_flags.abs_col);
  EXPECT_TRUE(refs[0].head_flags.abs_row);
  EXPECT_FALSE(refs[0].tail_flags.abs_row);
  EXPECT_FALSE(refs[0].is_single_cell);
  EXPECT_TRUE(refs[1].is_single_cell);
}

TEST(ParserTest, EmptyArgumentList) {
  auto expr = ParseFormula("RAND()");
  ASSERT_TRUE(expr.ok());
  EXPECT_TRUE(static_cast<const CallExpr&>(**expr).args.empty());
}

TEST(ParserTest, NestedCalls) {
  auto expr = ParseFormula("IF(SUM(A1:A3)>10,MAX(B1,B2),MIN(C1:C2))");
  ASSERT_TRUE(expr.ok());
  auto refs = ExtractReferences(**expr);
  EXPECT_EQ(refs.size(), 4u);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseFormula("").ok());
  EXPECT_FALSE(ParseFormula("1+").ok());
  EXPECT_FALSE(ParseFormula("SUM(A1").ok());
  EXPECT_FALSE(ParseFormula("SUM A1)").ok());
  EXPECT_FALSE(ParseFormula("(1+2").ok());
  EXPECT_FALSE(ParseFormula("1 2").ok());
  EXPECT_FALSE(ParseFormula("A1:").ok());
  EXPECT_FALSE(ParseFormula("A1:5").ok());
}

// Each deep shape at exactly kMaxFormulaDepth parses AND evaluates; one
// more is a ParseError, never a stack overflow.
TEST(ParserTest, NestingDepthIsBoundedForEveryShape) {
  // Values at the bound, in kDeepFormulaShapes order.
  const double values_at_bound[] = {
      kMaxFormulaDepth + 1.0, kMaxFormulaDepth % 2 == 0 ? 1.0 : -1.0, 1.0,
      1.0};
  for (size_t i = 0; i < std::size(test::kDeepFormulaShapes); ++i) {
    const test::DeepFormulaShape& shape = test::kDeepFormulaShapes[i];
    SCOPED_TRACE(shape.name);
    std::string at_bound = shape.build(kMaxFormulaDepth);
    ASSERT_TRUE(ParseFormula(at_bound).ok());
    Sheet sheet;
    NoCompGraph graph;
    RecalcEngine engine(&sheet, &graph);
    ASSERT_TRUE(engine.SetFormula(Cell{1, 1}, at_bound).ok());
    EXPECT_EQ(engine.GetValue(Cell{1, 1}), Value::Number(values_at_bound[i]));

    auto over = ParseFormula(shape.build(kMaxFormulaDepth + 1));
    ASSERT_FALSE(over.ok());
    EXPECT_EQ(over.status().code(), StatusCode::kParseError);
    EXPECT_NE(over.status().message().find("nests deeper"), std::string::npos)
        << over.status().ToString();
  }
  // Parentheses count too, so a bare paren tower is bounded the same way.
  std::string parens = std::string(kMaxFormulaDepth, '(') + "1" +
                       std::string(kMaxFormulaDepth, ')');
  EXPECT_TRUE(ParseFormula(parens).ok());
  EXPECT_FALSE(ParseFormula("(" + parens + ")").ok());
}

// ---------------------------------------------------------------------------
// Printing round trips

class PrintRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PrintRoundTripTest, ParsePrintParseIsIdentity) {
  auto first = ParseFormula(GetParam());
  ASSERT_TRUE(first.ok()) << GetParam();
  std::string printed = ExprToString(**first);
  auto second = ParseFormula(printed);
  ASSERT_TRUE(second.ok()) << printed;
  EXPECT_TRUE(ExprEquals(**first, **second))
      << GetParam() << " -> " << printed;
  // Printing must be a fixed point after one round.
  EXPECT_EQ(printed, ExprToString(**second));
}

INSTANTIATE_TEST_SUITE_P(
    Formulas, PrintRoundTripTest,
    ::testing::Values(
        "1+2*3", "(1+2)*3", "2^3^2", "(2^3)^2", "-A1", "-(A1+B1)", "50%%",
        "A1&\" \"&B1", "IF(A3=A2,N2+M3,M3)", "SUM($B$1:B4)*A1",
        "VLOOKUP(A1,$D$1:$E$100,2)", "1-2-3", "1-(2-3)", "10/5/2", "10/(5/2)",
        "SUM(A1:A3)+AVG(B2:B3)", "TRUE", "\"quote \"\" inside\"",
        "A1<=B1", "A1<>B2", "-2^2", "3.25%", "MAX(MIN(A1,A2),0)"));

// ---------------------------------------------------------------------------
// Autofill shift

TEST(AutofillShiftTest, RelativeMovesAbsoluteStays) {
  auto expr = ParseFormula("SUM($B$1:B4)*A1");
  ASSERT_TRUE(expr.ok());
  auto shifted = ShiftExprForAutofill(**expr, Offset{0, 1});
  ASSERT_TRUE(shifted.ok());
  EXPECT_EQ(ExprToString(**shifted), "SUM($B$1:B5)*A2");
}

TEST(AutofillShiftTest, MixedAxisFlags) {
  auto expr = ParseFormula("$A1+B$2");
  ASSERT_TRUE(expr.ok());
  auto shifted = ShiftExprForAutofill(**expr, Offset{2, 3});
  ASSERT_TRUE(shifted.ok());
  // $A keeps its column but moves rows; B$2 moves columns, keeps its row.
  EXPECT_EQ(ExprToString(**shifted), "$A4+D$2");
}

TEST(AutofillShiftTest, OutOfBoundsIsRefError) {
  auto expr = ParseFormula("A1+B2");
  ASSERT_TRUE(expr.ok());
  auto shifted = ShiftExprForAutofill(**expr, Offset{0, -1});
  EXPECT_FALSE(shifted.ok());
  EXPECT_EQ(shifted.status().code(), StatusCode::kOutOfRange);
}

TEST(AutofillShiftTest, ShiftIsComposable) {
  auto expr = ParseFormula("IF(A3=A2,N2+M3,M3)");
  ASSERT_TRUE(expr.ok());
  auto once = ShiftExprForAutofill(**expr, Offset{0, 1});
  ASSERT_TRUE(once.ok());
  auto twice = ShiftExprForAutofill(**once, Offset{0, 1});
  ASSERT_TRUE(twice.ok());
  auto direct = ShiftExprForAutofill(**expr, Offset{0, 2});
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(ExprEquals(**twice, **direct));
  EXPECT_EQ(ExprToString(**direct), "IF(A5=A4,N4+M5,M5)");
}

// ---------------------------------------------------------------------------
// Pattern cues

TEST(RefCueTest, ColumnAxisUsesRowFlags) {
  auto ref = ParseA1("$B$1:B4");
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ClassifyReferenceCue(*ref, Axis::kColumn), RefCue::kFixRel);
  // Along the row axis, both columns are anchored -> FF.
  auto ref2 = ParseA1("$B1:$B4");
  ASSERT_TRUE(ref2.ok());
  EXPECT_EQ(ClassifyReferenceCue(*ref2, Axis::kRow), RefCue::kFixFix);
  EXPECT_EQ(ClassifyReferenceCue(*ref2, Axis::kColumn), RefCue::kRelRel);
}

TEST(RefCueTest, AllFourCues) {
  auto rr = ParseA1("A1:B4");
  auto rf = ParseA1("A1:B$4");
  auto fr = ParseA1("A$1:B4");
  auto ff = ParseA1("A$1:B$4");
  ASSERT_TRUE(rr.ok() && rf.ok() && fr.ok() && ff.ok());
  EXPECT_EQ(ClassifyReferenceCue(*rr, Axis::kColumn), RefCue::kRelRel);
  EXPECT_EQ(ClassifyReferenceCue(*rf, Axis::kColumn), RefCue::kRelFix);
  EXPECT_EQ(ClassifyReferenceCue(*fr, Axis::kColumn), RefCue::kFixRel);
  EXPECT_EQ(ClassifyReferenceCue(*ff, Axis::kColumn), RefCue::kFixFix);
}

}  // namespace
}  // namespace taco
