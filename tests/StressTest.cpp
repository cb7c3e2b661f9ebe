//===- tests/StressTest.cpp - Parameterized property sweeps ---------------===//
//
// Property-based stress suites, parameterized over problem size:
//
//  * BigInt arithmetic against a __int128 oracle (small widths), against
//    ring identities (large widths), and division, gcd and lcm against a
//    bit-serial reference at mixed widths up to 1024 bits;
//  * the polyhedra library's double-description invariants across
//    dimensions (every generator satisfies every constraint, round-trips,
//    lattice monotonicity, projection idempotence, widening coverage);
//  * Bourdoncle's WTO on random graphs: the computed widening points cut
//    every cycle (the property §4.4 needs), and the order covers every
//    vertex exactly once.
//
//===----------------------------------------------------------------------===//

#include "cfg/Wto.h"
#include "poly/Polyhedron.h"
#include "support/BigInt.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

using namespace pmaf;
using namespace pmaf::poly;

//===----------------------------------------------------------------------===//
// BigInt sweeps
//===----------------------------------------------------------------------===//

class BigIntPropertyTest : public ::testing::TestWithParam<unsigned> {};

namespace {

BigInt randomBigInt(Rng &R, unsigned Bits) {
  BigInt Value;
  for (unsigned Chunk = 0; Chunk < Bits; Chunk += 32)
    Value = Value.shiftLeft(32) +
            BigInt(static_cast<int64_t>(R.next() & 0xffffffffu));
  Value = Value.shiftRight(
      static_cast<unsigned>((32 - Bits % 32) % 32));
  return R.below(2) ? Value.negated() : Value;
}

} // namespace

TEST_P(BigIntPropertyTest, MatchesInt128OracleWhenSmall) {
  unsigned Bits = GetParam();
  if (Bits > 62)
    GTEST_SKIP() << "oracle covers small widths only";
  Rng R(Bits * 7919);
  for (int Round = 0; Round != 300; ++Round) {
    int64_t A = randomBigInt(R, Bits).toInt64();
    int64_t B = randomBigInt(R, Bits).toInt64();
    __int128 WideA = A, WideB = B;
    auto Same = [](const BigInt &X, __int128 Y) {
      __int128 Back = 0;
      bool Neg = X.sign() < 0;
      BigInt Abs = X.abs();
      // Reconstruct through the decimal printer for full generality.
      for (char C : Abs.toString())
        Back = Back * 10 + (C - '0');
      return (Neg ? -Back : Back) == Y;
    };
    EXPECT_TRUE(Same(BigInt(A) + BigInt(B), WideA + WideB));
    EXPECT_TRUE(Same(BigInt(A) - BigInt(B), WideA - WideB));
    EXPECT_TRUE(Same(BigInt(A) * BigInt(B), WideA * WideB));
    if (B != 0) {
      BigInt Q, Rem;
      BigInt(A).divmod(BigInt(B), Q, Rem);
      EXPECT_TRUE(Same(Q, WideA / WideB));
      EXPECT_TRUE(Same(Rem, WideA % WideB));
    }
  }
}

TEST_P(BigIntPropertyTest, RingIdentitiesAtAnyWidth) {
  unsigned Bits = GetParam();
  Rng R(Bits * 104729);
  for (int Round = 0; Round != 60; ++Round) {
    BigInt A = randomBigInt(R, Bits);
    BigInt B = randomBigInt(R, Bits);
    BigInt C = randomBigInt(R, Bits / 2 + 1);
    EXPECT_EQ((A + B) - B, A);
    EXPECT_EQ(A * B, B * A);
    EXPECT_EQ(A * (B + C), A * B + A * C);
    if (!B.isZero()) {
      BigInt Q, Rem;
      A.divmod(B, Q, Rem);
      EXPECT_EQ(Q * B + Rem, A);
      EXPECT_LT(Rem.abs().compare(B.abs()), 0);
      EXPECT_TRUE(Rem.isZero() || Rem.sign() == A.sign());
      EXPECT_EQ((A * B).divExact(B), A);
    }
    BigInt G = BigInt::gcd(A, B);
    if (!G.isZero()) {
      EXPECT_TRUE((A % G).isZero());
      EXPECT_TRUE((B % G).isZero());
      EXPECT_EQ(BigInt::gcd(A.divExact(G), B.divExact(G)), BigInt(1));
    }
    // Shifts agree with multiplication by powers of two.
    EXPECT_EQ(A.shiftLeft(17), A * BigInt(1 << 17));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BigIntPropertyTest,
                         ::testing::Values(8u, 16u, 31u, 48u, 62u, 80u,
                                           128u, 256u));

namespace {

/// Reference division: bit-serial shift-subtract long division on the
/// magnitudes, written over BigInt's public operations only, with
/// truncated signs.
void referenceDivmod(const BigInt &A, const BigInt &B, BigInt &Quotient,
                     BigInt &Remainder) {
  BigInt AbsA = A.abs(), AbsB = B.abs();
  if (AbsA < AbsB) {
    Quotient = BigInt();
    Remainder = A;
    return;
  }
  unsigned Shift = AbsA.bitLength() - AbsB.bitLength();
  BigInt Shifted = AbsB.shiftLeft(Shift), Quot, Rem = AbsA;
  for (unsigned I = 0; I <= Shift; ++I) {
    Quot = Quot.shiftLeft(1);
    if (Rem >= Shifted) {
      Rem = Rem - Shifted;
      Quot = Quot + BigInt(1);
    }
    Shifted = Shifted.shiftRight(1);
  }
  Quotient = A.sign() * B.sign() < 0 ? Quot.negated() : Quot;
  Remainder = A.sign() < 0 ? Rem.negated() : Rem;
}

/// Reference gcd: Stein's binary algorithm, one bit at a time.
BigInt referenceGcd(const BigInt &A, const BigInt &B) {
  BigInt X = A.abs(), Y = B.abs();
  if (X.isZero())
    return Y;
  if (Y.isZero())
    return X;
  unsigned Twos = 0;
  while (X.isEven() && Y.isEven()) {
    X = X.shiftRight(1);
    Y = Y.shiftRight(1);
    ++Twos;
  }
  while (X.isEven())
    X = X.shiftRight(1);
  while (!Y.isZero()) {
    while (Y.isEven())
      Y = Y.shiftRight(1);
    if (X > Y)
      std::swap(X, Y);
    Y = Y - X;
  }
  return X.shiftLeft(Twos);
}

/// Checks divmod, divExact, gcd and lcm on (A, B) against the references.
void expectMatchesReference(const BigInt &A, const BigInt &B) {
  SCOPED_TRACE(A.toString() + " , " + B.toString());
  if (!B.isZero()) {
    BigInt Q, Rem, RefQ, RefRem;
    A.divmod(B, Q, Rem);
    referenceDivmod(A, B, RefQ, RefRem);
    EXPECT_EQ(Q, RefQ);
    EXPECT_EQ(Rem, RefRem);
    EXPECT_TRUE(Rem.isZero() || Rem.sign() == A.sign());
    EXPECT_EQ(A / B, RefQ);
    EXPECT_EQ(A % B, RefRem);
    EXPECT_EQ((A * B).divExact(B), A);
    if (!A.isZero()) {
      EXPECT_EQ((A * B).divExact(A), B);
    }
  }
  BigInt G = BigInt::gcd(A, B), RefG = referenceGcd(A, B);
  EXPECT_EQ(G, RefG);
  EXPECT_EQ(BigInt::gcd(B, A), RefG);
  if (!G.isZero()) {
    EXPECT_EQ(referenceGcd(A.divExact(G), B.divExact(G)), BigInt(1));
    BigInt RefLcm, Unused;
    referenceDivmod(A.abs(), RefG, RefLcm, Unused);
    EXPECT_EQ(BigInt::lcm(A, B), RefLcm * B.abs());
  } else {
    EXPECT_TRUE(BigInt::lcm(A, B).isZero());
  }
}

/// Values at the int64 boundary and at limb boundaries, with both signs.
std::vector<BigInt> edgeValues() {
  const BigInt Max(INT64_MAX), Min(INT64_MIN), One(1);
  std::vector<BigInt> Values = {Max,
                                Max - One,
                                Max + One,
                                Min,
                                Min + One,
                                Min - One,
                                Max * BigInt(2) + One, // 2^64 - 1
                                One.shiftLeft(64),
                                One.shiftLeft(64) + One,
                                One.shiftLeft(128) - One,
                                One.shiftLeft(192) - One,
                                One.shiftLeft(192)};
  for (size_t I = 0, N = Values.size(); I != N; ++I)
    Values.push_back(Values[I].negated());
  return Values;
}

/// Operands that take algorithm D's add-back correction (the digit
/// estimate from the top limbs is one too large), found by a search over
/// operands built from extreme limbs; random operands reach that branch
/// with probability about 2^-63 per quotient digit.
struct AddBackCase {
  const char *Dividend, *Divisor, *Quotient, *Remainder;
};
const AddBackCase AddBackCases[] = {
    // (2^191 + 3) / (2^189 + 1): three limbs by three.
    {"3138550867693340381917894711603833208051177722232017256451",
     "784637716923335095479473677900958302012794430558004314113", "3",
     "784637716923335095479473677900958302012794430558004314112"},
    // (2^129 + 2^128) / (2^128 + 1).
    {"1020847100762815390390123822295304634368",
     "340282366920938463463374607431768211457", "2",
     "340282366920938463463374607431768211454"},
    // 2^192 / (2^128 + 1): four limbs by three, a full-limb quotient.
    {"6277101735386680763835789423207666416102355444464034512896",
     "340282366920938463463374607431768211457", "18446744073709551615",
     "340282366920938463444927863358058659841"},
    // 2^256 / (2^192 + 1): five limbs by four, past the inline storage.
    {"115792089237316195423570985008687907853269984665640564039457584007913"
     "129639936",
     "6277101735386680763835789423207666416102355444464034512897",
     "18446744073709551615",
     "6277101735386680763835789423207666416083908700390324961281"},
};

} // namespace

TEST(BigIntReferenceTest, MixedWidthsMatchBitSerialReference) {
  const unsigned Widths[] = {1,   2,   31,  32,  33,  62,  63,  64,
                             65,  100, 127, 128, 129, 191, 192, 193,
                             255, 256, 257, 320, 511, 512, 513, 1024};
  Rng R(20261017);
  for (unsigned WidthA : Widths)
    for (unsigned WidthB : Widths) {
      BigInt A = randomBigInt(R, WidthA), B = randomBigInt(R, WidthB);
      expectMatchesReference(A, B);
      // A planted common factor, so the gcd is not almost always 1.
      BigInt F = randomBigInt(R, 1 + static_cast<unsigned>(R.below(200)));
      expectMatchesReference(A * F, B * F);
    }
}

TEST(BigIntReferenceTest, Int64AndLimbBoundariesMatchReference) {
  std::vector<BigInt> Values = edgeValues();
  Rng R(7);
  for (const BigInt &A : Values) {
    for (const BigInt &B : Values)
      expectMatchesReference(A, B);
    for (unsigned Width : {1u, 63u, 64u, 65u, 300u}) {
      BigInt X = randomBigInt(R, Width);
      expectMatchesReference(A, X);
      expectMatchesReference(X, A);
    }
  }
}

TEST(BigIntReferenceTest, AddBackOperandsMatchReference) {
  for (const AddBackCase &Case : AddBackCases) {
    const BigInt A = BigInt::fromString(Case.Dividend);
    const BigInt B = BigInt::fromString(Case.Divisor);
    const BigInt Q = BigInt::fromString(Case.Quotient);
    const BigInt Rem = BigInt::fromString(Case.Remainder);
    for (int SignA : {1, -1})
      for (int SignB : {1, -1}) {
        BigInt SA = SignA > 0 ? A : A.negated();
        BigInt SB = SignB > 0 ? B : B.negated();
        BigInt Quot, Remainder;
        SA.divmod(SB, Quot, Remainder);
        EXPECT_EQ(Quot, SignA * SignB > 0 ? Q : Q.negated()) << Case.Dividend;
        EXPECT_EQ(Remainder, SignA > 0 ? Rem : Rem.negated())
            << Case.Dividend;
        expectMatchesReference(SA, SB);
      }
  }
}

//===----------------------------------------------------------------------===//
// Polyhedra sweeps
//===----------------------------------------------------------------------===//

class PolyhedronPropertyTest : public ::testing::TestWithParam<unsigned> {};

namespace {

Polyhedron randomPolyhedron(Rng &R, unsigned Dim, unsigned NumCons) {
  std::vector<Constraint> Cons;
  // Keep a bounding box so most instances are nonempty polytopes, then
  // add random halfspaces.
  for (unsigned I = 0; I != Dim; ++I) {
    Cons.push_back(Constraint::ge(LinearExpr::variable(Dim, I),
                                  LinearExpr::constant(Dim, Rational(-4))));
    Cons.push_back(Constraint::le(LinearExpr::variable(Dim, I),
                                  LinearExpr::constant(Dim, Rational(4))));
  }
  for (unsigned I = 0; I != NumCons; ++I) {
    LinearExpr E(Dim);
    E.constantTerm() = Rational(static_cast<int64_t>(R.below(9)) - 4);
    for (unsigned V = 0; V != Dim; ++V)
      E.coeff(V) = Rational(static_cast<int64_t>(R.below(5)) - 2);
    Cons.push_back(Constraint{std::move(E), R.below(5) == 0
                                                ? Constraint::Kind::Eq
                                                : Constraint::Kind::Ge});
  }
  return Polyhedron::fromConstraints(Dim, Cons);
}

/// The core double-description consistency: every stored generator
/// satisfies every stored constraint.
void expectDdConsistent(const Polyhedron &P) {
  for (const ConeRow &Con : P.constraints())
    for (const ConeRow &Gen : P.generators()) {
      BigInt Dot = dotProduct(Gen, Con);
      if (Con.IsLinearity || Gen.IsLinearity) {
        EXPECT_TRUE(Dot.isZero()) << P.toString();
      } else {
        EXPECT_GE(Dot.sign(), 0) << P.toString();
      }
    }
}

} // namespace

TEST_P(PolyhedronPropertyTest, DoubleDescriptionConsistency) {
  unsigned Dim = GetParam();
  Rng R(Dim * 31337);
  for (int Round = 0; Round != 25; ++Round) {
    Polyhedron P = randomPolyhedron(R, Dim, Dim + 2);
    if (P.isEmpty())
      continue;
    expectDdConsistent(P);
    // Round-trip: rebuilding from the minimized constraints yields the
    // same polyhedron.
    Polyhedron Q = Polyhedron::fromConstraints(Dim, P.constraintList());
    EXPECT_TRUE(P.equals(Q));
  }
}

TEST_P(PolyhedronPropertyTest, LatticeAndProjectionSweep) {
  unsigned Dim = GetParam();
  Rng R(Dim * 65537);
  for (int Round = 0; Round != 15; ++Round) {
    Polyhedron A = randomPolyhedron(R, Dim, Dim + 1);
    Polyhedron B = randomPolyhedron(R, Dim, Dim + 1);
    Polyhedron M = A.meet(B), J = A.join(B);
    EXPECT_TRUE(A.contains(M));
    EXPECT_TRUE(B.contains(M));
    EXPECT_TRUE(J.contains(A));
    EXPECT_TRUE(J.contains(B));
    expectDdConsistent(M);
    expectDdConsistent(J);
    if (!A.isEmpty()) {
      Polyhedron Proj = A.project({Dim - 1});
      EXPECT_TRUE(Proj.contains(A));
      EXPECT_TRUE(Proj.project({Dim - 1}).equals(Proj));
    }
    if (!A.isEmpty() && !B.isEmpty()) {
      Polyhedron W = A.widen(J);
      EXPECT_TRUE(W.contains(A));
      EXPECT_TRUE(W.contains(J));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, PolyhedronPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

//===----------------------------------------------------------------------===//
// WTO sweeps
//===----------------------------------------------------------------------===//

class WtoPropertyTest : public ::testing::TestWithParam<unsigned> {};

namespace {

/// Collects the vertices of a WTO in order.
void flatten(const std::vector<cfg::WtoElement> &Elements,
             std::vector<unsigned> &Out) {
  for (const cfg::WtoElement &E : Elements) {
    Out.push_back(E.Node);
    flatten(E.Body, Out);
  }
}

/// True if the graph restricted to vertices with Allowed[v] has a cycle.
bool hasCycle(const std::vector<std::vector<unsigned>> &Succs,
              const std::vector<bool> &Allowed) {
  std::vector<int> State(Succs.size(), 0);
  bool Found = false;
  auto Dfs = [&](const auto &Self, unsigned V) -> void {
    State[V] = 1;
    for (unsigned W : Succs[V]) {
      if (!Allowed[W])
        continue;
      if (State[W] == 1)
        Found = true;
      else if (State[W] == 0)
        Self(Self, W);
    }
    State[V] = 2;
  };
  for (unsigned V = 0; V != Succs.size(); ++V)
    if (Allowed[V] && State[V] == 0)
      Dfs(Dfs, V);
  return Found;
}

} // namespace

TEST_P(WtoPropertyTest, WideningPointsCutEveryCycle) {
  unsigned N = GetParam();
  Rng R(N * 2654435761u);
  for (int Round = 0; Round != 30; ++Round) {
    std::vector<std::vector<unsigned>> Succs(N);
    for (unsigned V = 0; V != N; ++V) {
      unsigned Degree = static_cast<unsigned>(R.below(3));
      for (unsigned E = 0; E != Degree; ++E)
        Succs[V].push_back(static_cast<unsigned>(R.below(N)));
    }
    cfg::Wto W = cfg::Wto::compute(Succs, {0});

    // Every vertex appears exactly once.
    std::vector<unsigned> Flat;
    flatten(W.Elements, Flat);
    ASSERT_EQ(Flat.size(), N);
    std::vector<bool> Seen(N, false);
    for (unsigned V : Flat) {
      EXPECT_FALSE(Seen[V]) << "duplicated vertex in WTO";
      Seen[V] = true;
    }

    // Removing the widening points leaves an acyclic graph: this is the
    // property that makes chaotic iteration with widening terminate.
    std::vector<bool> Allowed(N);
    for (unsigned V = 0; V != N; ++V)
      Allowed[V] = !W.WideningPoint[V];
    EXPECT_FALSE(hasCycle(Succs, Allowed));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, WtoPropertyTest,
                         ::testing::Values(3u, 8u, 20u, 60u));
