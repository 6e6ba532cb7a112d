// Recursive-descent parser for spreadsheet formulas.
//
// Grammar (precedence from loosest to tightest, mirrors Excel):
//   comparison :=  concat (('='|'<>'|'<'|'<='|'>'|'>=') concat)*
//   concat     :=  additive ('&' additive)*
//   additive   :=  multiplicative (('+'|'-') multiplicative)*
//   multiplicative := exponent (('*'|'/') exponent)*
//   exponent   :=  unary ('^' exponent)?          (right associative)
//   unary      :=  ('-'|'+')* postfix
//   postfix    :=  primary '%'*
//   primary    :=  number | string | boolean | reference | call | '(' comparison ')'
//   reference  :=  CELL (':' CELL)?
//   call       :=  IDENT '(' (comparison (',' comparison)*)? ')'
//
// Nesting is bounded. Every parenthesis group, function call, unary
// sign, '%' and binary operator wraps its operands one level deeper, and
// a formula whose deepest operand sits under more than kMaxFormulaDepth
// such levels is a ParseError. Parsing, evaluation and destruction all
// recurse over the tree, so without the bound a single client-supplied
// line ("1+1+...+1" with tens of thousands of terms) overflows the stack.

#ifndef TACO_FORMULA_PARSER_H_
#define TACO_FORMULA_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "formula/ast.h"

namespace taco {

/// Deepest nesting a formula may have (see above). For scale, Excel
/// allows 64 nested function levels in an 8,192-character formula.
inline constexpr int kMaxFormulaDepth = 1024;

/// Parses formula text (without the leading '=') into an AST.
Result<ExprPtr> ParseFormula(std::string_view text);

}  // namespace taco

#endif  // TACO_FORMULA_PARSER_H_
