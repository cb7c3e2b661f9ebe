//===- tests/SupportTest.cpp - BigInt and Rational unit tests -------------===//

#include "support/BigInt.h"
#include "support/Diagnostics.h"
#include "support/Rational.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace pmaf;

//===----------------------------------------------------------------------===//
// BigInt
//===----------------------------------------------------------------------===//

TEST(BigIntTest, ZeroBasics) {
  BigInt Zero;
  EXPECT_TRUE(Zero.isZero());
  EXPECT_EQ(Zero.sign(), 0);
  EXPECT_EQ(Zero.toString(), "0");
  EXPECT_TRUE(Zero.isEven());
  EXPECT_EQ(Zero.bitLength(), 0u);
  EXPECT_EQ((Zero + Zero).toString(), "0");
  EXPECT_EQ((Zero * BigInt(12345)).toString(), "0");
}

TEST(BigIntTest, Int64RoundTrip) {
  for (int64_t V : {int64_t(0), int64_t(1), int64_t(-1), int64_t(42),
                    int64_t(-987654321), INT64_MAX, INT64_MIN}) {
    BigInt B(V);
    ASSERT_TRUE(B.fitsInt64());
    EXPECT_EQ(B.toInt64(), V);
  }
}

TEST(BigIntTest, StringRoundTrip) {
  const char *Cases[] = {"0", "1", "-1", "4294967296", "-4294967297",
                         "123456789012345678901234567890",
                         "-99999999999999999999999999999999999999"};
  for (const char *Text : Cases)
    EXPECT_EQ(BigInt::fromString(Text).toString(), Text);
}

TEST(BigIntTest, AdditionCarries) {
  BigInt A = BigInt::fromString("4294967295"); // 2^32 - 1
  EXPECT_EQ((A + BigInt(1)).toString(), "4294967296");
  EXPECT_EQ((A + A).toString(), "8589934590");
}

TEST(BigIntTest, SubtractionSigns) {
  EXPECT_EQ((BigInt(5) - BigInt(7)).toString(), "-2");
  EXPECT_EQ((BigInt(-5) - BigInt(-7)).toString(), "2");
  EXPECT_EQ((BigInt(7) - BigInt(7)).toString(), "0");
  BigInt Big = BigInt::fromString("100000000000000000000");
  EXPECT_EQ((Big - Big).sign(), 0);
  EXPECT_EQ((Big - BigInt(1)).toString(), "99999999999999999999");
}

TEST(BigIntTest, MultiplicationLarge) {
  BigInt A = BigInt::fromString("123456789123456789");
  BigInt B = BigInt::fromString("987654321987654321");
  EXPECT_EQ((A * B).toString(), "121932631356500531347203169112635269");
  EXPECT_EQ((A * BigInt(-1)).toString(), "-123456789123456789");
}

TEST(BigIntTest, CompareOrdering) {
  EXPECT_LT(BigInt(-10), BigInt(-2));
  EXPECT_LT(BigInt(-2), BigInt(0));
  EXPECT_LT(BigInt(0), BigInt(3));
  EXPECT_LT(BigInt(3), BigInt::fromString("10000000000000000000"));
  EXPECT_LT(BigInt::fromString("-10000000000000000000"), BigInt(-3));
}

TEST(BigIntTest, Shifts) {
  BigInt One(1);
  EXPECT_EQ(One.shiftLeft(100).toString(), "1267650600228229401496703205376");
  EXPECT_EQ(One.shiftLeft(100).shiftRight(100).toInt64(), 1);
  EXPECT_EQ(BigInt(12345).shiftRight(64).sign(), 0);
  EXPECT_EQ(BigInt(6).shiftRight(1).toInt64(), 3);
  EXPECT_EQ(BigInt(-6).shiftRight(1).toInt64(), -3);
}

TEST(BigIntTest, DivmodTruncates) {
  BigInt Q, R;
  BigInt(7).divmod(BigInt(2), Q, R);
  EXPECT_EQ(Q.toInt64(), 3);
  EXPECT_EQ(R.toInt64(), 1);
  BigInt(-7).divmod(BigInt(2), Q, R);
  EXPECT_EQ(Q.toInt64(), -3);
  EXPECT_EQ(R.toInt64(), -1);
  BigInt(7).divmod(BigInt(-2), Q, R);
  EXPECT_EQ(Q.toInt64(), -3);
  EXPECT_EQ(R.toInt64(), 1);
}

TEST(BigIntTest, DivmodLargeReconstructs) {
  Rng R(7);
  for (int I = 0; I != 200; ++I) {
    int64_t A = static_cast<int64_t>(R.next()) / 3;
    int64_t B = static_cast<int64_t>(R.next() % 1000000) - 500000;
    if (B == 0)
      B = 17;
    BigInt Quotient, Remainder;
    BigInt(A).divmod(BigInt(B), Quotient, Remainder);
    EXPECT_EQ(Quotient.toInt64(), A / B) << A << " / " << B;
    EXPECT_EQ(Remainder.toInt64(), A % B) << A << " % " << B;
  }
}

TEST(BigIntTest, DivExact) {
  BigInt Product = BigInt::fromString("123456789123456789") * BigInt(12347);
  EXPECT_EQ(Product.divExact(BigInt(12347)).toString(),
            "123456789123456789");
}

TEST(BigIntTest, GcdLcm) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)).toInt64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)).toInt64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)).toInt64(), 5);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(0)).toInt64(), 0);
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)).toInt64(), 1);
  EXPECT_EQ(BigInt::lcm(BigInt(4), BigInt(6)).toInt64(), 12);
  EXPECT_EQ(BigInt::lcm(BigInt(0), BigInt(6)).toInt64(), 0);
  // gcd of large coprime-by-construction values.
  BigInt A = BigInt::fromString("1000000007") * BigInt::fromString("998244353");
  EXPECT_EQ(BigInt::gcd(A, BigInt::fromString("1000000007")).toString(),
            "1000000007");
}

TEST(BigIntTest, PropertyRandomArithmetic) {
  // (a + b) - b == a and (a * b) / b == a for random 128-bit-ish values.
  Rng R(42);
  for (int I = 0; I != 100; ++I) {
    BigInt A = BigInt(static_cast<int64_t>(R.next())) *
               BigInt(static_cast<int64_t>(R.next() % 1000003));
    BigInt B = BigInt(static_cast<int64_t>(R.next())) + BigInt(1);
    if (B.isZero())
      continue;
    EXPECT_EQ(((A + B) - B).compare(A), 0);
    EXPECT_EQ(((A * B).divExact(B)).compare(A), 0);
    BigInt Q, Rem;
    A.divmod(B, Q, Rem);
    EXPECT_EQ((Q * B + Rem).compare(A), 0);
    EXPECT_LT(Rem.abs().compare(B.abs()), 0);
  }
}

//===----------------------------------------------------------------------===//
// Rational
//===----------------------------------------------------------------------===//

TEST(RationalTest, NormalizesOnConstruction) {
  Rational Half(2, 4);
  EXPECT_EQ(Half.numerator().toInt64(), 1);
  EXPECT_EQ(Half.denominator().toInt64(), 2);
  Rational NegHalf(1, -2);
  EXPECT_EQ(NegHalf.numerator().toInt64(), -1);
  EXPECT_EQ(NegHalf.denominator().toInt64(), 2);
  Rational Zero(0, 7);
  EXPECT_TRUE(Zero.isZero());
  EXPECT_EQ(Zero.denominator().toInt64(), 1);
}

TEST(RationalTest, Arithmetic) {
  Rational A(1, 3), B(1, 6);
  EXPECT_EQ((A + B).toString(), "1/2");
  EXPECT_EQ((A - B).toString(), "1/6");
  EXPECT_EQ((A * B).toString(), "1/18");
  EXPECT_EQ((A / B).toString(), "2");
  EXPECT_EQ((-A).toString(), "-1/3");
}

TEST(RationalTest, Comparison) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(7, 2), Rational(3));
}

TEST(RationalTest, FromStringForms) {
  EXPECT_EQ(Rational::fromString("123").toString(), "123");
  EXPECT_EQ(Rational::fromString("-4/6").toString(), "-2/3");
  EXPECT_EQ(Rational::fromString("0.75").toString(), "3/4");
  EXPECT_EQ(Rational::fromString("-1.25").toString(), "-5/4");
  EXPECT_EQ(Rational::fromString("1e3").toString(), "1000");
  EXPECT_EQ(Rational::fromString("2.5e-2").toString(), "1/40");
  EXPECT_EQ(Rational::fromString("0.3486784401").toString(),
            "3486784401/10000000000");
  // Powers of ten come from repeated squaring; every exponent bit counts.
  EXPECT_EQ(Rational::fromString("1e400").toString(),
            "1" + std::string(400, '0'));
  EXPECT_EQ(Rational::fromString("3e-37").toString(),
            "3/1" + std::string(37, '0'));
  EXPECT_EQ(Rational::fromString("12.5e20").toString(),
            "125" + std::string(19, '0'));
}

TEST(RationalTest, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(3, 4).toDouble(), 0.75);
  EXPECT_DOUBLE_EQ(Rational(-1, 3).toDouble(), -1.0 / 3.0);
}

TEST(RationalTest, PropertyFieldAxioms) {
  Rng R(99);
  for (int I = 0; I != 100; ++I) {
    auto Rand = [&R]() {
      int64_t N = static_cast<int64_t>(R.next() % 2001) - 1000;
      int64_t D = static_cast<int64_t>(R.next() % 1000) + 1;
      return Rational(N, D);
    };
    Rational A = Rand(), B = Rand(), C = Rand();
    EXPECT_EQ(A + B, B + A);
    EXPECT_EQ((A + B) + C, A + (B + C));
    EXPECT_EQ(A * (B + C), A * B + A * C);
    EXPECT_EQ(A - A, Rational(0));
    if (!B.isZero()) {
      EXPECT_EQ((A / B) * B, A);
    }
  }
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicAndInRange) {
  Rng A(123), B(123);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  Rng C(7);
  for (int I = 0; I != 1000; ++I) {
    double U = C.uniform();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(RngTest, UniformMeanRoughlyHalf) {
  Rng R(5);
  double Sum = 0.0;
  const int N = 20000;
  for (int I = 0; I != N; ++I)
    Sum += R.uniform();
  EXPECT_NEAR(Sum / N, 0.5, 0.02);
}

//===----------------------------------------------------------------------===//
// DiagnosticEngine
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, CaretRendering) {
  DiagnosticEngine Diags;
  Diags.setSource("demo.pp", "real x;\nproc main() {\n  x := 1;\n}\n");
  Diags.report(Severity::Error, {3, 8}, "demo-code", "something is off");
  EXPECT_EQ(Diags.renderAll(),
            "demo.pp:3:8: error: something is off [demo-code]\n"
            "    x := 1;\n"
            "         ^\n"
            "1 error, 0 warnings\n");
}

TEST(DiagnosticsTest, TabsPreservedInCaretPadding) {
  DiagnosticEngine Diags;
  Diags.setSource("t.pp", "\tx := 1;\n");
  std::string Out =
      Diags.render(Diags.report(Severity::Warning, {1, 2}, "c", "m"));
  EXPECT_NE(Out.find("\n  \t^\n"), std::string::npos) << Out;
}

TEST(DiagnosticsTest, UnknownLocationSkipsExcerpt) {
  DiagnosticEngine Diags;
  Diags.setSource("u.pp", "real x;\n");
  std::string Out =
      Diags.render(Diags.report(Severity::Error, {}, "c", "boom"));
  EXPECT_EQ(Out, "u.pp: error: boom [c]\n");
}

TEST(DiagnosticsTest, WarningsAsErrorsPromotes) {
  DiagnosticEngine Diags;
  Diags.setWarningsAsErrors(true);
  Diags.report(Severity::Warning, {1, 1}, "w", "warned");
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.warningCount(), 0u);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(DiagnosticsTest, NotesRenderAfterParent) {
  DiagnosticEngine Diags;
  Diags.setSource("n.pp", "real x;\nreal x;\n");
  Diagnostic &D =
      Diags.report(Severity::Error, {2, 6}, "redeclared-variable",
                   "redeclaration of 'x'");
  D.addNote({1, 6}, "previous declaration is here");
  std::string Out = Diags.render(D);
  EXPECT_NE(Out.find("n.pp:2:6: error:"), std::string::npos) << Out;
  EXPECT_NE(Out.find("n.pp:1:6: note: previous declaration is here"),
            std::string::npos)
      << Out;
}

TEST(DiagnosticsTest, SortByLocationIsStable) {
  DiagnosticEngine Diags;
  Diags.report(Severity::Error, {3, 1}, "b", "late");
  Diags.report(Severity::Error, {1, 2}, "a", "early");
  Diags.report(Severity::Error, {3, 1}, "c", "late too");
  Diags.sortByLocation();
  EXPECT_EQ(Diags.diagnostics()[0].Code, "a");
  EXPECT_EQ(Diags.diagnostics()[1].Code, "b");
  EXPECT_EQ(Diags.diagnostics()[2].Code, "c");
}

TEST(DiagnosticsTest, JsonEscapesAndCounts) {
  DiagnosticEngine Diags;
  Diags.setSource("j\"s.pp", "x\n");
  Diags.report(Severity::Warning, {1, 1}, "quote", "say \"hi\"\n");
  std::string Json = Diags.renderJson();
  EXPECT_NE(Json.find("\"file\": \"j\\\"s.pp\""), std::string::npos)
      << Json;
  EXPECT_NE(Json.find("say \\\"hi\\\"\\n"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"errors\": 0"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"warnings\": 1"), std::string::npos) << Json;
}
