//===- tests/LangTest.cpp - Lexer and parser unit tests -------------------===//

#include "NestedPrograms.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <iterator>

using namespace pmaf;
using namespace pmaf::lang;

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(LexerTest, PunctuationAndOperators) {
  auto Tokens = tokenize("( ) { } ; , : := ~ ! && || == != <= >= < > + - * /");
  Token::Kind Expected[] = {
      Token::Kind::LParen, Token::Kind::RParen,    Token::Kind::LBrace,
      Token::Kind::RBrace, Token::Kind::Semi,      Token::Kind::Comma,
      Token::Kind::Colon,  Token::Kind::Assign,    Token::Kind::Tilde,
      Token::Kind::Bang,   Token::Kind::AndAnd,    Token::Kind::OrOr,
      Token::Kind::EqEq,   Token::Kind::NotEq,     Token::Kind::LessEq,
      Token::Kind::GreaterEq, Token::Kind::Less,   Token::Kind::Greater,
      Token::Kind::Plus,   Token::Kind::Minus,     Token::Kind::Star,
      Token::Kind::Slash,  Token::Kind::Eof};
  ASSERT_EQ(Tokens.size(), std::size(Expected));
  for (size_t I = 0; I != Tokens.size(); ++I)
    EXPECT_EQ(Tokens[I].TheKind, Expected[I]) << "token " << I;
}

TEST(LexerTest, NumbersAndIdents) {
  auto Tokens = tokenize("x1 12 0.75 1e-3 2.5e2 _tmp");
  ASSERT_EQ(Tokens.size(), 7u);
  EXPECT_EQ(Tokens[0].TheKind, Token::Kind::Ident);
  EXPECT_EQ(Tokens[0].Text, "x1");
  EXPECT_EQ(Tokens[1].Text, "12");
  EXPECT_EQ(Tokens[2].Text, "0.75");
  EXPECT_EQ(Tokens[3].Text, "1e-3");
  EXPECT_EQ(Tokens[4].Text, "2.5e2");
  EXPECT_EQ(Tokens[5].Text, "_tmp");
}

TEST(LexerTest, CommentsAndPositions) {
  auto Tokens = tokenize("x // comment\n# another\n  y");
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Text, "x");
  EXPECT_EQ(Tokens[0].Line, 1u);
  EXPECT_EQ(Tokens[1].Text, "y");
  EXPECT_EQ(Tokens[1].Line, 3u);
  EXPECT_EQ(Tokens[1].Col, 3u);
}

TEST(LexerTest, ReportsStrayCharacters) {
  auto Tokens = tokenize("x = y");
  // '=' alone is an error (the language uses ':=' and '==').
  bool SawError = false;
  for (const Token &T : Tokens)
    SawError |= T.TheKind == Token::Kind::Error;
  EXPECT_TRUE(SawError);
}

//===----------------------------------------------------------------------===//
// Parser: positive cases
//===----------------------------------------------------------------------===//

TEST(ParserTest, Figure1aBooleanProgram) {
  ParseResult R = parseProgram(R"(
    bool b1, b2;
    proc main() {
      b1 ~ bernoulli(0.5);
      b2 ~ bernoulli(0.5);
      while (!b1 && !b2) {
        b1 ~ bernoulli(0.5);
        b2 ~ bernoulli(0.5);
      }
    }
  )");
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R.Prog->Vars.size(), 2u);
  EXPECT_EQ(R.Prog->Procs.size(), 1u);
  EXPECT_EQ(R.Prog->countCalls(), 0u);
}

TEST(ParserTest, Figure1bArithmeticProgram) {
  ParseResult R = parseProgram(R"(
    real x, y, z;
    proc main() {
      while prob(3/4) {
        z ~ uniform(0, 2);
        if star { x := x + z; } else { y := y + z; }
      }
    }
  )");
  ASSERT_TRUE(R) << R.Error;
  const Stmt &Body = *R.Prog->Procs[0].Body;
  ASSERT_EQ(Body.kind(), Stmt::Kind::Block);
  const Stmt &Loop = *Body.stmts()[0];
  ASSERT_EQ(Loop.kind(), Stmt::Kind::While);
  EXPECT_EQ(Loop.guard().TheKind, Guard::Kind::Prob);
  EXPECT_EQ(Loop.guard().Prob, Rational(3, 4));
}

TEST(ParserTest, Example34GeometricWithBreakContinue) {
  ParseResult R = parseProgram(R"(
    real n;
    proc main() {
      n := 0;
      while prob(0.9) {
        n := n + 1;
        if (n >= 10) { break; } else { continue; }
      }
    }
  )");
  ASSERT_TRUE(R) << R.Error;
}

TEST(ParserTest, ProceduresAndCalls) {
  ParseResult R = parseProgram(R"(
    real x;
    proc helper() { x := x + 1; }
    proc main() {
      helper();
      if prob(0.5) { main(); }
    }
  )");
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R.Prog->countCalls(), 2u);
  // Calls are resolved to procedure indices.
  const Stmt &Body = *R.Prog->Procs[1].Body;
  EXPECT_EQ(Body.stmts()[0]->calleeIndex(), 0u);
}

TEST(ParserTest, ObserveRewardSkipReturn) {
  ParseResult R = parseProgram(R"(
    bool b;
    proc main() {
      skip;
      observe(b);
      reward(3/2);
      return;
    }
  )");
  ASSERT_TRUE(R) << R.Error;
  const auto &Stmts = R.Prog->Procs[0].Body->stmts();
  ASSERT_EQ(Stmts.size(), 4u);
  EXPECT_EQ(Stmts[0]->kind(), Stmt::Kind::Skip);
  EXPECT_EQ(Stmts[1]->kind(), Stmt::Kind::Observe);
  EXPECT_EQ(Stmts[2]->kind(), Stmt::Kind::Reward);
  EXPECT_EQ(Stmts[2]->reward(), Rational(3, 2));
  EXPECT_EQ(Stmts[3]->kind(), Stmt::Kind::Return);
}

TEST(ParserTest, ConditionGrammar) {
  ParseResult R = parseProgram(R"(
    real x, y;
    bool b;
    proc main() {
      if (x + 1 <= 2 * y) { skip; }
      if ((x <= 1) && !(y >= 2) || b) { skip; }
      if ((x + 1) <= y) { skip; }
      while (x == y) { x := x + 1; }
    }
  )");
  ASSERT_TRUE(R) << R.Error;
}

TEST(ParserTest, ElseIfChains) {
  ParseResult R = parseProgram(R"(
    real x;
    proc main() {
      if (x <= 1) { x := 1; }
      else if (x <= 2) { x := 2; }
      else { x := 3; }
    }
  )");
  ASSERT_TRUE(R) << R.Error;
}

TEST(ParserTest, DiscreteDistribution) {
  ParseResult R = parseProgram(R"(
    real d;
    proc main() {
      d ~ discrete(1: 1/6, 2: 1/6, 3: 1/6, 4: 1/6, 5: 1/6, 6: 1/6);
    }
  )");
  ASSERT_TRUE(R) << R.Error;
  const Stmt &S = *R.Prog->Procs[0].Body->stmts()[0];
  ASSERT_EQ(S.kind(), Stmt::Kind::Sample);
  EXPECT_EQ(S.dist().Params.size(), 6u);
  EXPECT_EQ(S.dist().Weights[0], Rational(1, 6));
}

TEST(ParserTest, PrettyPrintRoundTrip) {
  const char *Source = R"(
    real x, y, z;
    proc main() {
      while prob(3/4) {
        z ~ uniform(0, 2);
        if star { x := x + z; } else { y := y + z; }
      }
    }
  )";
  ParseResult First = parseProgram(Source);
  ASSERT_TRUE(First) << First.Error;
  std::string Printed = toString(*First.Prog);
  ParseResult Second = parseProgram(Printed);
  ASSERT_TRUE(Second) << Second.Error << "\nin:\n" << Printed;
  EXPECT_EQ(Printed, toString(*Second.Prog));
}

//===----------------------------------------------------------------------===//
// Parser: diagnostics
//===----------------------------------------------------------------------===//

TEST(ParserTest, RejectsUndeclaredVariable) {
  ParseResult R = parseProgram("proc main() { x := 1; }");
  EXPECT_FALSE(R);
  EXPECT_NE(R.Error.find("undeclared"), std::string::npos) << R.Error;
}

TEST(ParserTest, RejectsUnknownProcedure) {
  ParseResult R = parseProgram("proc main() { nope(); }");
  EXPECT_FALSE(R);
  EXPECT_NE(R.Error.find("undefined procedure"), std::string::npos)
      << R.Error;
}

TEST(ParserTest, RejectsBreakOutsideLoop) {
  ParseResult R = parseProgram("proc main() { break; }");
  EXPECT_FALSE(R);
  EXPECT_NE(R.Error.find("break"), std::string::npos) << R.Error;
}

TEST(ParserTest, RejectsBadProbability) {
  ParseResult R = parseProgram("proc main() { if prob(1.5) { skip; } }");
  EXPECT_FALSE(R);
  EXPECT_NE(R.Error.find("[0, 1]"), std::string::npos) << R.Error;
}

TEST(ParserTest, RejectsRedeclaration) {
  ParseResult R = parseProgram("bool b; real b; proc main() { skip; }");
  EXPECT_FALSE(R);
  EXPECT_NE(R.Error.find("redeclaration"), std::string::npos) << R.Error;
}

TEST(ParserTest, RejectsEmptyProgram) {
  ParseResult R = parseProgram("bool b;");
  EXPECT_FALSE(R);
}

TEST(ParserTest, RejectsOutOfRangeNumericLiterals) {
  // An exponent past int64 once aborted the parser with an uncaught
  // std::out_of_range; a huge in-range one took a minute to convert.
  for (const char *Literal : {"1e99999999999999999999", "1e300000",
                              "2.5e-401", "1e+401"}) {
    ParseResult R = parseProgram(std::string("real x; proc main() { x := ") +
                                 Literal + "; }");
    ASSERT_FALSE(R) << Literal;
    EXPECT_EQ(R.Diag.Code, "number-out-of-range") << Literal;
    EXPECT_EQ(R.Error.substr(0, 5), "1:28:") << R.Error;
  }
  std::string Digits(401, '7');
  ParseResult R = parseProgram("real x; proc main() { x := " + Digits + "; }");
  ASSERT_FALSE(R);
  EXPECT_EQ(R.Diag.Code, "number-out-of-range");
}

TEST(ParserTest, AcceptsNumericLiteralsAtTheBounds) {
  ParseResult R = parseProgram(
      "real x; proc main() { x := 1e400; x := 1e-400; x := 0.25e2; x := " +
      std::string(400, '9') + "; }");
  ASSERT_TRUE(R) << R.Error;
}

TEST(ParserTest, ErrorsCarryPositions) {
  ParseResult R = parseProgram("proc main() {\n  x := 1;\n}");
  ASSERT_FALSE(R);
  EXPECT_EQ(R.Error.substr(0, 2), "2:");
}

TEST(ParserTest, NestingIsBoundedForEveryShape) {
  for (testgen::Nesting Shape : testgen::AllNestings) {
    SCOPED_TRACE(testgen::toString(Shape));
    EXPECT_TRUE(parseProgram(testgen::nestedProgram(Shape, MaxNestingDepth)));
    // One level past the bound, and far past it: the depths that
    // overflowed the stack before the bound existed.
    for (unsigned Depth : {MaxNestingDepth + 1, 20000u}) {
      ParseResult R = parseProgram(testgen::nestedProgram(Shape, Depth));
      ASSERT_FALSE(R) << Depth;
      EXPECT_EQ(R.Diag.Code, "nesting-too-deep") << Depth;
    }
  }
}

TEST(ParserTest, NestingCountsEachOperatorOnce) {
  // Heights add along a path, not across siblings: 300 parentheses on
  // each side of a + are 301 levels, well inside the bound.
  const std::string Side =
      std::string(300, '(') + "x" + std::string(300, ')');
  EXPECT_TRUE(parseProgram("real x; proc main() { x := " + Side + " + " +
                           Side + "; }"));
  // Conditions count like expressions; an else-if is one more statement.
  std::string Elifs = "bool b; proc main() { if (b) { skip; }";
  for (unsigned I = 0; I != MaxNestingDepth; ++I)
    Elifs += " else if (b) { skip; }";
  ParseResult R = parseProgram(Elifs + " }");
  ASSERT_FALSE(R);
  EXPECT_EQ(R.Diag.Code, "nesting-too-deep");
  std::string Nots = "bool b; proc main() { if (" +
                     std::string(MaxNestingDepth, '!') + "b) { skip; } }";
  EXPECT_TRUE(parseProgram(Nots));
  Nots.insert(Nots.find('!'), "!");
  EXPECT_FALSE(parseProgram(Nots));
}

//===----------------------------------------------------------------------===//
// Constants and affine forms
//===----------------------------------------------------------------------===//

namespace {

/// The value of `x := <Text>;` in a program over `real x, y`.
Expr::Ptr parseValue(const std::string &Text) {
  ParseResult R =
      parseProgram("real x, y; proc main() { x := " + Text + "; }");
  EXPECT_TRUE(R) << R.Error;
  if (!R)
    return Expr::makeNumber(Rational(0));
  return R.Prog->Procs[0].Body->stmts()[0]->value().clone();
}

/// foldConstant of \p Text, rendered, or "none".
std::string folded(const std::string &Text) {
  std::optional<Rational> C = foldConstant(*parseValue(Text));
  return C ? C->toString() : "none";
}

/// affineForm of \p E over `real x, y`, rendered as "a*x + b*y + c", or
/// "none".
std::string form(const Expr &E) {
  std::optional<AffineForm> F = affineForm(E, 2);
  if (!F)
    return "none";
  return F->Coeffs[0].toString() + "*x + " + F->Coeffs[1].toString() +
         "*y + " + F->Constant.toString();
}
std::string form(const std::string &Text) { return form(*parseValue(Text)); }

} // namespace

TEST(ExprReadingTest, FoldConstantOnEachOperator) {
  EXPECT_EQ(folded("7/2"), "7/2");
  EXPECT_EQ(folded("1 + 1/2"), "3/2");
  EXPECT_EQ(folded("1 - 3/2"), "-1/2");
  EXPECT_EQ(folded("3 * (1 + 1)"), "6");
  EXPECT_EQ(folded("3 / (2 - 4)"), "-3/2");
  // Any variable refuses, even one that cancels; so do division by zero
  // and Boolean literals.
  EXPECT_EQ(folded("x"), "none");
  EXPECT_EQ(folded("x - x"), "none");
  EXPECT_EQ(folded("0 * y"), "none");
  EXPECT_EQ(folded("1 / (1 - 1)"), "none");
  EXPECT_FALSE(foldConstant(*Expr::makeBool(true)));
}

TEST(ExprReadingTest, AffineFormOnEachOperator) {
  EXPECT_EQ(form("x"), "1*x + 0*y + 0");
  EXPECT_EQ(form("5/2"), "0*x + 0*y + 5/2");
  EXPECT_EQ(form("x + 2 * y + 1"), "1*x + 2*y + 1");
  EXPECT_EQ(form("x - y - 1"), "1*x + -1*y + -1");
  EXPECT_EQ(form("0 - x"), "-1*x + 0*y + 0");
  EXPECT_EQ(form("3 * (x + 1)"), "3*x + 0*y + 3");
  EXPECT_EQ(form("(x + 1) * 3"), "3*x + 0*y + 3");
  EXPECT_EQ(form("(x + 1) / 4"), "1/4*x + 0*y + 1/4");
}

TEST(ExprReadingTest, ScalarsAreFormsWithoutAVariableTerm) {
  // A factor of `*`, or a divisor, is a scalar however it is spelled.
  EXPECT_EQ(form("1/2 * x"), "1/2*x + 0*y + 0");
  EXPECT_EQ(form("x * (3 - 1)"), "2*x + 0*y + 0");
  EXPECT_EQ(form("x / (1 + 1)"), "1/2*x + 0*y + 0");
  // Terms that cancel leave the scalar 0, so the product is 0.
  EXPECT_EQ(form("(x - x) * y"), "0*x + 0*y + 0");
  EXPECT_EQ(form("y / (x - x + 2)"), "0*x + 1/2*y + 0");
}

TEST(ExprReadingTest, NonAffineExpressionsHaveNoForm) {
  EXPECT_EQ(form("x * y"), "none");
  EXPECT_EQ(form("x * x"), "none");
  EXPECT_EQ(form("x / y"), "none");
  EXPECT_EQ(form("x / (1 - 1)"), "none");
  EXPECT_EQ(form("x / (y - y)"), "none");
  EXPECT_EQ(form(*Expr::makeBool(false)), "none");
  EXPECT_EQ(form(*Expr::makeBinary(Expr::Kind::Add, Expr::makeVar(0),
                                   Expr::makeBool(true))),
            "none");
}
