//===- lang/Parser.h - Recursive-descent parser -----------------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parser for the surface language. Grammar sketch:
///
/// \code
///   program  := (vardecl | procdecl)*
///   vardecl  := ("bool" | "real") ident ("," ident)* ";"
///   procdecl := "proc" ident "(" ")" block
///   block    := "{" stmt* "}"
///   stmt     := ident ":=" expr ";"            // assignment
///             | ident "~" dist ";"             // sampling
///             | ident "(" ")" ";"              // procedure call
///             | "skip" ";" | "break" ";" | "continue" ";" | "return" ";"
///             | "observe" "(" cond ")" ";"
///             | "reward" "(" constexpr ")" ";"
///             | "assert_prob" "(" cond ")" (">=" | "<=") constexpr ";"
///             | "assert_reward" (">=" | "<=") constexpr ";"
///             | "assert_interval" "(" expr "," constexpr "," constexpr ")" ";"
///             | "if" guard block ("else" (block | ifstmt))?
///             | "while" guard block
///   guard    := "(" cond ")" | "prob" "(" constexpr ")" | "star"
///   dist     := "bernoulli" "(" expr ")" | "uniform" "(" expr "," expr ")"
///             | "gaussian" "(" expr "," expr ")"
///             | "uniformint" "(" expr "," expr ")"
///             | "discrete" "(" constexpr ":" constexpr
///                              ("," constexpr ":" constexpr)* ")"
/// \endcode
///
/// Variables must be declared before the procedures that use them;
/// procedures may call forward. Probabilities and rewards are constant
/// rational expressions (e.g. `prob(3/4)` or `prob(0.75)`).
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_LANG_PARSER_H
#define PMAF_LANG_PARSER_H

#include "lang/Ast.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>

namespace pmaf {
namespace lang {

/// The deepest nesting a program may have, counted two ways: if and while
/// statements inside one another (each else-if is one more level), and the
/// height of an expression or condition, one level per operator and per
/// pair of parentheses. Every later pass recurses over the tree, so deeper
/// programs are rejected with the code "nesting-too-deep".
inline constexpr unsigned MaxNestingDepth = 512;

/// Result of a parse: either a program, or a diagnostic.
struct ParseResult {
  std::unique_ptr<Program> Prog;
  std::string Error; ///< "line:col: message" when Prog is null.
  /// Structured form of the error (severity, stable code, location,
  /// notes); meaningful only when Prog is null. Codes: "parse-error" for
  /// syntax errors, and "undefined-variable", "undefined-procedure",
  /// "redeclared-variable", "redefined-procedure", "misplaced-jump",
  /// "prob-range", "reward-range", "interval-range", "no-procedures",
  /// "number-out-of-range", "nesting-too-deep" for the semantic checks the
  /// parser performs itself.
  Diagnostic Diag;

  explicit operator bool() const { return Prog != nullptr; }
};

/// Parses and semantically checks \p Source (variable resolution, call
/// resolution, break/continue placement, probability ranges).
ParseResult parseProgram(const std::string &Source);

/// As above, but additionally reports the failure into \p Diags (which
/// renders `file:line:col` with a caret when its source is set).
ParseResult parseProgram(const std::string &Source, DiagnosticEngine &Diags);

/// Convenience wrapper that aborts with a caret-rendered diagnostic on
/// failure; for trusted embedded benchmark sources and tests.
std::unique_ptr<Program> parseProgramOrDie(const std::string &Source);

} // namespace lang
} // namespace pmaf

#endif // PMAF_LANG_PARSER_H
