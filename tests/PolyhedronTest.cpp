//===- tests/PolyhedronTest.cpp - Convex polyhedra unit tests -------------===//

#include "poly/Polyhedron.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace pmaf;
using namespace pmaf::poly;

namespace {

LinearExpr var(unsigned Dim, unsigned I) {
  return LinearExpr::variable(Dim, I);
}
LinearExpr cst(unsigned Dim, int64_t V) {
  return LinearExpr::constant(Dim, Rational(V));
}

/// {0 <= x_i <= Hi for all i}: a box in Dim dimensions.
Polyhedron box(unsigned Dim, int64_t Hi) {
  std::vector<Constraint> Cons;
  for (unsigned I = 0; I != Dim; ++I) {
    Cons.push_back(Constraint::ge(var(Dim, I), cst(Dim, 0)));
    Cons.push_back(Constraint::le(var(Dim, I), cst(Dim, Hi)));
  }
  return Polyhedron::fromConstraints(Dim, Cons);
}

std::vector<Rational> pt(std::initializer_list<int64_t> Coords) {
  std::vector<Rational> Result;
  for (int64_t C : Coords)
    Result.push_back(Rational(C));
  return Result;
}

} // namespace

//===----------------------------------------------------------------------===//
// LinearExpr
//===----------------------------------------------------------------------===//

TEST(LinearExprTest, ArithmeticAndEvaluation) {
  LinearExpr E = var(2, 0).scaled(Rational(2)) - var(2, 1) +
                 LinearExpr::constant(2, Rational(3));
  EXPECT_EQ(E.evaluate({Rational(5), Rational(4)}), Rational(9));
  EXPECT_EQ(E.toString({"x", "y"}), "2*x - y + 3");
  EXPECT_EQ((-E).evaluate({Rational(5), Rational(4)}), Rational(-9));
}

TEST(LinearExprTest, ConstantDetection) {
  EXPECT_TRUE(cst(3, 7).isConstant());
  EXPECT_FALSE(var(3, 1).isConstant());
}

//===----------------------------------------------------------------------===//
// Basic polyhedra
//===----------------------------------------------------------------------===//

TEST(PolyhedronTest, UniverseAndEmpty) {
  Polyhedron U = Polyhedron::universe(3);
  EXPECT_TRUE(U.isUniverse());
  EXPECT_FALSE(U.isEmpty());
  EXPECT_TRUE(U.containsPoint(pt({1, -5, 100})));

  Polyhedron E = Polyhedron::empty(3);
  EXPECT_TRUE(E.isEmpty());
  EXPECT_TRUE(U.contains(E));
  EXPECT_FALSE(E.contains(U));
  EXPECT_TRUE(E.contains(E));
}

TEST(PolyhedronTest, InfeasibleConstraintsAreEmpty) {
  // x >= 1 and x <= 0.
  Polyhedron P = Polyhedron::fromConstraints(
      1, {Constraint::ge(var(1, 0), cst(1, 1)),
          Constraint::le(var(1, 0), cst(1, 0))});
  EXPECT_TRUE(P.isEmpty());
}

TEST(PolyhedronTest, IntervalMembership) {
  Polyhedron P = box(1, 2); // 0 <= x <= 2
  EXPECT_TRUE(P.containsPoint(pt({0})));
  EXPECT_TRUE(P.containsPoint(pt({2})));
  EXPECT_TRUE(P.containsPoint({Rational(1, 2)}));
  EXPECT_FALSE(P.containsPoint(pt({3})));
  EXPECT_FALSE(P.containsPoint(pt({-1})));
}

TEST(PolyhedronTest, UnitSquareGeometry) {
  Polyhedron P = box(2, 1);
  // Four vertices.
  unsigned Points = 0, Rays = 0, Lines = 0;
  for (const ConeRow &G : P.generators()) {
    if (G.IsLinearity)
      ++Lines;
    else if (G.Coeffs[0].isZero())
      ++Rays;
    else
      ++Points;
  }
  EXPECT_EQ(Points, 4u);
  EXPECT_EQ(Rays, 0u);
  EXPECT_EQ(Lines, 0u);
  // Four facets.
  EXPECT_EQ(P.constraints().size(), 4u);
}

TEST(PolyhedronTest, EqualityGivesLowDimensional) {
  // x + y == 1 in 2D: a line (1 equality, point + line generators).
  Polyhedron P = Polyhedron::fromConstraints(
      2, {Constraint::eq(var(2, 0) + var(2, 1), cst(2, 1))});
  EXPECT_TRUE(P.containsPoint({Rational(1, 2), Rational(1, 2)}));
  EXPECT_FALSE(P.containsPoint(pt({1, 1})));
  unsigned Equalities = 0;
  for (const ConeRow &C : P.constraints())
    Equalities += C.IsLinearity;
  EXPECT_EQ(Equalities, 1u);
}

TEST(PolyhedronTest, RedundantConstraintsAreRemoved) {
  Polyhedron P = Polyhedron::fromConstraints(
      1, {Constraint::ge(var(1, 0), cst(1, 0)),
          Constraint::ge(var(1, 0), cst(1, -5)),  // redundant
          Constraint::le(var(1, 0), cst(1, 3)),
          Constraint::le(var(1, 0), cst(1, 10))}); // redundant
  EXPECT_EQ(P.constraints().size(), 2u);
}

TEST(PolyhedronTest, SinglePoint) {
  Polyhedron P = Polyhedron::point({Rational(1, 2), Rational(3)});
  EXPECT_TRUE(P.containsPoint({Rational(1, 2), Rational(3)}));
  EXPECT_FALSE(P.containsPoint(pt({0, 3})));
  // A point in 2D needs two equalities.
  unsigned Equalities = 0;
  for (const ConeRow &C : P.constraints())
    Equalities += C.IsLinearity;
  EXPECT_EQ(Equalities, 2u);
}

//===----------------------------------------------------------------------===//
// Lattice operations
//===----------------------------------------------------------------------===//

TEST(PolyhedronTest, MeetIntersects) {
  Polyhedron A = box(2, 2);
  Polyhedron B = Polyhedron::fromConstraints(
      2, {Constraint::ge(var(2, 0) + var(2, 1), cst(2, 3))});
  Polyhedron M = A.meet(B);
  EXPECT_TRUE(M.containsPoint(pt({2, 1})));
  EXPECT_TRUE(M.containsPoint(pt({2, 2})));
  EXPECT_FALSE(M.containsPoint(pt({1, 1})));
  EXPECT_TRUE(A.contains(M));
  EXPECT_TRUE(B.contains(M));
}

TEST(PolyhedronTest, MeetDisjointIsEmpty) {
  Polyhedron A = box(1, 1);
  Polyhedron B = Polyhedron::fromConstraints(
      1, {Constraint::ge(var(1, 0), cst(1, 5))});
  EXPECT_TRUE(A.meet(B).isEmpty());
}

TEST(PolyhedronTest, JoinIsConvexHull) {
  // Hull of {(0,0)} and {(1,1)}: the segment.
  Polyhedron A = Polyhedron::point(pt({0, 0}));
  Polyhedron B = Polyhedron::point(pt({1, 1}));
  Polyhedron J = A.join(B);
  EXPECT_TRUE(J.containsPoint({Rational(1, 2), Rational(1, 2)}));
  EXPECT_FALSE(J.containsPoint({Rational(1, 2), Rational(1, 4)}));
  EXPECT_TRUE(J.contains(A));
  EXPECT_TRUE(J.contains(B));
}

TEST(PolyhedronTest, JoinOfBoxes) {
  // Hull of [0,1]^2 and [2,3]x[0,1]: the whole strip [0,3]x[0,1].
  Polyhedron A = box(2, 1);
  Polyhedron B = Polyhedron::fromConstraints(
      2, {Constraint::ge(var(2, 0), cst(2, 2)),
          Constraint::le(var(2, 0), cst(2, 3)),
          Constraint::ge(var(2, 1), cst(2, 0)),
          Constraint::le(var(2, 1), cst(2, 1))});
  Polyhedron J = A.join(B);
  EXPECT_TRUE(J.containsPoint({Rational(3, 2), Rational(1, 2)}));
  Polyhedron Strip = Polyhedron::fromConstraints(
      2, {Constraint::ge(var(2, 0), cst(2, 0)),
          Constraint::le(var(2, 0), cst(2, 3)),
          Constraint::ge(var(2, 1), cst(2, 0)),
          Constraint::le(var(2, 1), cst(2, 1))});
  EXPECT_TRUE(J.equals(Strip));
}

TEST(PolyhedronTest, JoinWithEmpty) {
  Polyhedron A = box(2, 1);
  EXPECT_TRUE(A.join(Polyhedron::empty(2)).equals(A));
  EXPECT_TRUE(Polyhedron::empty(2).join(A).equals(A));
}

TEST(PolyhedronTest, JoinWithUnbounded) {
  // Hull of the ray {x >= 0, y == 0} and the point (0, 1).
  Polyhedron Ray = Polyhedron::fromConstraints(
      2, {Constraint::ge(var(2, 0), cst(2, 0)),
          Constraint::eq(var(2, 1), cst(2, 0))});
  Polyhedron J = Ray.join(Polyhedron::point(pt({0, 1})));
  EXPECT_TRUE(J.containsPoint(pt({100, 0})));
  EXPECT_TRUE(J.containsPoint({Rational(5), Rational(1, 2)}));
  EXPECT_FALSE(J.containsPoint(pt({0, 2})));
  EXPECT_FALSE(J.containsPoint(pt({-1, 0})));
}

TEST(PolyhedronTest, LatticeLaws) {
  Polyhedron A = box(2, 2);
  Polyhedron B = Polyhedron::fromConstraints(
      2, {Constraint::ge(var(2, 0) + var(2, 1), cst(2, 1))});
  Polyhedron C = Polyhedron::fromConstraints(
      2, {Constraint::le(var(2, 0) - var(2, 1), cst(2, 0))});
  // Commutativity, absorption, idempotence.
  EXPECT_TRUE(A.meet(B).equals(B.meet(A)));
  EXPECT_TRUE(A.join(B).equals(B.join(A)));
  EXPECT_TRUE(A.meet(A).equals(A));
  EXPECT_TRUE(A.join(A).equals(A));
  EXPECT_TRUE(A.meet(A.join(B)).equals(A));
  EXPECT_TRUE(A.join(A.meet(B)).equals(A));
  // Associativity.
  EXPECT_TRUE(A.meet(B.meet(C)).equals(A.meet(B).meet(C)));
  EXPECT_TRUE(A.join(B.join(C)).equals(A.join(B).join(C)));
  // Monotonicity of meet under inclusion.
  EXPECT_TRUE(A.contains(A.meet(B)));
  EXPECT_TRUE(A.join(B).contains(A));
}

//===----------------------------------------------------------------------===//
// Projection / dimension surgery
//===----------------------------------------------------------------------===//

TEST(PolyhedronTest, ProjectForgetsDimension) {
  // {0 <= x <= 1, y == x}: forgetting y leaves 0 <= x <= 1 (y free).
  Polyhedron P = box(2, 1).meet(Polyhedron::fromConstraints(
      2, {Constraint::eq(var(2, 1), var(2, 0))}));
  Polyhedron Q = P.project({1});
  EXPECT_TRUE(Q.containsPoint(pt({0, 100})));
  EXPECT_TRUE(Q.containsPoint(pt({1, -7})));
  EXPECT_FALSE(Q.containsPoint(pt({2, 2})));
}

TEST(PolyhedronTest, ProjectionOfDiagonalStrip) {
  // {y <= x <= y + 1, 0 <= y <= 1}: drop y -> 0 <= x <= 2.
  Polyhedron P = Polyhedron::fromConstraints(
      2, {Constraint::ge(var(2, 0) - var(2, 1), cst(2, 0)),
          Constraint::le(var(2, 0) - var(2, 1), cst(2, 1)),
          Constraint::ge(var(2, 1), cst(2, 0)),
          Constraint::le(var(2, 1), cst(2, 1))});
  Polyhedron Q = P.dropTrailing(1);
  EXPECT_EQ(Q.dim(), 1u);
  EXPECT_TRUE(Q.containsPoint(pt({0})));
  EXPECT_TRUE(Q.containsPoint(pt({2})));
  EXPECT_FALSE(Q.containsPoint({Rational(21, 10)}));
  EXPECT_FALSE(Q.containsPoint({Rational(-1, 10)}));
}

TEST(PolyhedronTest, ExtendAddsFreeDimensions) {
  Polyhedron P = box(1, 1).extend(2);
  EXPECT_EQ(P.dim(), 3u);
  EXPECT_TRUE(P.containsPoint(pt({1, 99, -99})));
  EXPECT_FALSE(P.containsPoint(pt({2, 0, 0})));
}

TEST(PolyhedronTest, PermuteRenames) {
  // {x == 0, y == 1} with swap -> {x == 1, y == 0}.
  Polyhedron P = Polyhedron::point(pt({0, 1}));
  Polyhedron Q = P.permute({1, 0});
  EXPECT_TRUE(Q.containsPoint(pt({1, 0})));
  EXPECT_FALSE(Q.containsPoint(pt({0, 1})));
}

TEST(PolyhedronTest, RelationalCompositionByHand) {
  // Compose R1 = {x' == x + 1} with R2 = {x' == 2x} over dims (x, x'):
  // embed as (x, x', t), R1[t/x'], R2[t/x], meet, drop t ->
  // {x' == 2(x+1)}.
  unsigned D = 3;
  Polyhedron R1 = Polyhedron::fromConstraints(
      D, {Constraint::eq(var(D, 2), var(D, 0) + cst(D, 1))}); // t == x + 1
  Polyhedron R2 = Polyhedron::fromConstraints(
      D, {Constraint::eq(var(D, 1), var(D, 2).scaled(Rational(2)))});
  Polyhedron Composed = R1.meet(R2).dropTrailing(1);
  EXPECT_TRUE(Composed.containsPoint(pt({0, 2})));
  EXPECT_TRUE(Composed.containsPoint(pt({3, 8})));
  EXPECT_FALSE(Composed.containsPoint(pt({3, 7})));
}

//===----------------------------------------------------------------------===//
// Optimization
//===----------------------------------------------------------------------===//

TEST(PolyhedronTest, MaximizeOverBox) {
  Polyhedron P = box(2, 2);
  LinearExpr Obj = var(2, 0) + var(2, 1).scaled(Rational(3));
  auto Max = P.maximize(Obj);
  ASSERT_TRUE(Max.has_value());
  EXPECT_EQ(*Max, Rational(8));
  auto Min = P.minimize(Obj);
  ASSERT_TRUE(Min.has_value());
  EXPECT_EQ(*Min, Rational(0));
}

TEST(PolyhedronTest, UnboundedDirections) {
  Polyhedron P = Polyhedron::fromConstraints(
      1, {Constraint::ge(var(1, 0), cst(1, 3))});
  EXPECT_FALSE(P.maximize(var(1, 0)).has_value());
  auto Min = P.minimize(var(1, 0));
  ASSERT_TRUE(Min.has_value());
  EXPECT_EQ(*Min, Rational(3));
}

TEST(PolyhedronTest, MaximizeWithRationalVertices) {
  // {2x + 3y <= 6, x >= 0, y >= 0}: max of x + y at (0, 2) = 2.
  Polyhedron P = Polyhedron::fromConstraints(
      2,
      {Constraint::le(var(2, 0).scaled(Rational(2)) +
                          var(2, 1).scaled(Rational(3)),
                      cst(2, 6)),
       Constraint::ge(var(2, 0), cst(2, 0)),
       Constraint::ge(var(2, 1), cst(2, 0))});
  auto Max = P.maximize(var(2, 0) + var(2, 1));
  ASSERT_TRUE(Max.has_value());
  EXPECT_EQ(*Max, Rational(3)); // Vertex (3, 0).
  auto MaxY = P.maximize(var(2, 1));
  EXPECT_EQ(*MaxY, Rational(2));
}

//===----------------------------------------------------------------------===//
// satisfies / widen
//===----------------------------------------------------------------------===//

TEST(PolyhedronTest, SatisfiesEntailedConstraints) {
  Polyhedron P = box(2, 1);
  EXPECT_TRUE(P.satisfies(
      Constraint::le(var(2, 0) + var(2, 1), cst(2, 2))));
  EXPECT_FALSE(P.satisfies(
      Constraint::le(var(2, 0) + var(2, 1), cst(2, 1))));
  EXPECT_TRUE(P.satisfies(Constraint::ge(var(2, 0), cst(2, 0))));
}

TEST(PolyhedronTest, WideningDropsUnstableBounds) {
  // [0,1] widened with [0,2]: the upper bound is unstable -> [0, inf).
  Polyhedron A = box(1, 1);
  Polyhedron B = box(1, 2);
  Polyhedron W = A.widen(B);
  EXPECT_TRUE(W.containsPoint(pt({1000000})));
  EXPECT_FALSE(W.containsPoint(pt({-1})));
  EXPECT_TRUE(W.contains(B));
}

TEST(PolyhedronTest, WideningKeepsStableEqualityHalf) {
  // {x == y, 0 <= x <= 1} widened with {x <= y <= 2x, 0 <= x <= 2}:
  // the half x <= y survives, y <= x does not.
  Polyhedron A = Polyhedron::fromConstraints(
      2, {Constraint::eq(var(2, 0), var(2, 1)),
          Constraint::ge(var(2, 0), cst(2, 0)),
          Constraint::le(var(2, 0), cst(2, 1))});
  Polyhedron B = Polyhedron::fromConstraints(
      2, {Constraint::le(var(2, 0), var(2, 1)),
          Constraint::le(var(2, 1), var(2, 0).scaled(Rational(2))),
          Constraint::ge(var(2, 0), cst(2, 0)),
          Constraint::le(var(2, 0), cst(2, 2))});
  Polyhedron W = A.widen(B);
  EXPECT_TRUE(W.satisfies(Constraint::le(var(2, 0), var(2, 1))));
  EXPECT_FALSE(W.satisfies(Constraint::le(var(2, 1), var(2, 0))));
  EXPECT_TRUE(W.satisfies(Constraint::ge(var(2, 0), cst(2, 0))));
  EXPECT_TRUE(W.contains(B));
  EXPECT_TRUE(W.contains(A));
}

TEST(PolyhedronTest, WideningStabilizesAscendingChain) {
  // Boxes [0, k] widen to [0, inf) after one application, after which the
  // chain is stable.
  Polyhedron Current = box(1, 1);
  for (int K = 2; K <= 5; ++K) {
    Polyhedron Next = Current.join(box(1, K));
    Polyhedron Widened = Current.widen(Next);
    if (Widened.equals(Current))
      break;
    Current = Widened;
  }
  EXPECT_TRUE(Current.containsPoint(pt({1000000})));
  // One more round must be stable.
  Polyhedron Again = Current.widen(Current.join(box(1, 100)));
  EXPECT_TRUE(Again.equals(Current));
}

//===----------------------------------------------------------------------===//
// Randomized consistency checks
//===----------------------------------------------------------------------===//

TEST(PolyhedronTest, PropertyHullContainsSampledMidpoints) {
  Rng R(2718);
  for (int Round = 0; Round != 20; ++Round) {
    // Two random points in 3D; their hull must contain every convex
    // combination with denominator 4.
    std::vector<Rational> A, B;
    for (int I = 0; I != 3; ++I) {
      A.push_back(Rational(static_cast<int64_t>(R.below(21)) - 10));
      B.push_back(Rational(static_cast<int64_t>(R.below(21)) - 10));
    }
    Polyhedron Hull =
        Polyhedron::point(A).join(Polyhedron::point(B));
    for (int Num = 0; Num <= 4; ++Num) {
      Rational T(Num, 4);
      std::vector<Rational> Mid;
      for (int I = 0; I != 3; ++I)
        Mid.push_back(A[I] * (Rational(1) - T) + B[I] * T);
      EXPECT_TRUE(Hull.containsPoint(Mid));
    }
  }
}

TEST(PolyhedronTest, PropertyMeetJoinConsistency) {
  // For random half-space pairs: meet ⊆ each ⊆ join.
  Rng R(999);
  for (int Round = 0; Round != 30; ++Round) {
    auto RandomHalfSpace = [&R]() {
      LinearExpr E(2);
      E.constantTerm() = Rational(static_cast<int64_t>(R.below(11)) - 5);
      E.coeff(0) = Rational(static_cast<int64_t>(R.below(7)) - 3);
      E.coeff(1) = Rational(static_cast<int64_t>(R.below(7)) - 3);
      return Polyhedron::fromConstraints(2,
                                         {Constraint{E, Constraint::Kind::Ge}});
    };
    Polyhedron A = RandomHalfSpace().meet(box(2, 4));
    Polyhedron B = RandomHalfSpace().meet(box(2, 4));
    Polyhedron M = A.meet(B), J = A.join(B);
    EXPECT_TRUE(A.contains(M));
    EXPECT_TRUE(B.contains(M));
    EXPECT_TRUE(J.contains(A));
    EXPECT_TRUE(J.contains(B));
    EXPECT_TRUE(J.contains(M));
  }
}

TEST(PolyhedronTest, PropertyDoubleProjection) {
  // Projecting twice equals projecting once; projection is extensive.
  Polyhedron P = box(3, 2).meet(Polyhedron::fromConstraints(
      3, {Constraint::le(var(3, 0) + var(3, 1) + var(3, 2), cst(3, 4))}));
  Polyhedron Q1 = P.project({2});
  Polyhedron Q2 = Q1.project({2});
  EXPECT_TRUE(Q1.equals(Q2));
  EXPECT_TRUE(Q1.contains(P));
}

TEST(PolyhedronTest, CubeVertexAndFacetCounts) {
  Polyhedron Cube = box(3, 1);
  unsigned Points = 0;
  for (const ConeRow &G : Cube.generators())
    if (!G.IsLinearity && G.Coeffs[0].sign() > 0)
      ++Points;
  EXPECT_EQ(Points, 8u);
  EXPECT_EQ(Cube.constraints().size(), 6u);
}

TEST(PolyhedronTest, ToStringSmoke) {
  Polyhedron P = box(1, 1);
  std::string S = P.toString({"x"});
  EXPECT_NE(S.find("x"), std::string::npos);
  EXPECT_EQ(Polyhedron::empty(1).toString(), "{false}");
  EXPECT_EQ(Polyhedron::universe(1).toString(), "{true}");
}

//===----------------------------------------------------------------------===//
// Chernikova's dualization against the recomputed-saturation algorithm
//===----------------------------------------------------------------------===//

namespace {

bool referenceRowLess(const ConeRow &A, const ConeRow &B) {
  if (A.IsLinearity != B.IsLinearity)
    return A.IsLinearity > B.IsLinearity;
  for (size_t I = 0; I != A.Coeffs.size(); ++I) {
    int Cmp = A.Coeffs[I].compare(B.Coeffs[I]);
    if (Cmp != 0)
      return Cmp < 0;
  }
  return false;
}

void referenceSortAndDedup(std::vector<ConeRow> &Rows) {
  std::sort(Rows.begin(), Rows.end(), referenceRowLess);
  Rows.erase(std::unique(Rows.begin(), Rows.end()), Rows.end());
}

/// Chernikova's dualization with the adjacency test's saturation sets
/// recomputed at every split step, one dot product per ray and processed
/// constraint: the reference for poly::dualize's incremental saturation
/// rows.
std::vector<ConeRow> referenceDualize(const std::vector<ConeRow> &Input,
                                      unsigned Cols) {
  std::vector<const ConeRow *> Ordered;
  for (const ConeRow &Row : Input)
    if (Row.IsLinearity)
      Ordered.push_back(&Row);
  for (const ConeRow &Row : Input)
    if (!Row.IsLinearity)
      Ordered.push_back(&Row);

  std::vector<ConeRow> Gens;
  for (unsigned I = 0; I != Cols; ++I) {
    ConeRow Line;
    Line.IsLinearity = true;
    Line.Coeffs.assign(Cols, BigInt(0));
    Line.Coeffs[I] = BigInt(1);
    Gens.push_back(std::move(Line));
  }

  std::vector<const ConeRow *> Processed;
  for (const ConeRow *Con : Ordered) {
    std::vector<BigInt> S(Gens.size());
    for (size_t I = 0; I != Gens.size(); ++I)
      S[I] = dotProduct(Gens[I], *Con);

    size_t Pivot = Gens.size();
    for (size_t I = 0; I != Gens.size(); ++I)
      if (Gens[I].IsLinearity && !S[I].isZero()) {
        Pivot = I;
        break;
      }

    if (Pivot != Gens.size()) {
      BigInt AbsSL = S[Pivot].abs();
      int SignSL = S[Pivot].sign();
      for (size_t I = 0; I != Gens.size(); ++I) {
        if (I == Pivot || S[I].isZero())
          continue;
        BigInt Mult = SignSL > 0 ? S[I] : S[I].negated();
        for (size_t Col = 0; Col != Cols; ++Col)
          Gens[I].Coeffs[Col] = AbsSL * Gens[I].Coeffs[Col] -
                                Mult * Gens[Pivot].Coeffs[Col];
        Gens[I].normalize();
      }
      if (Con->IsLinearity) {
        Gens.erase(Gens.begin() + static_cast<ptrdiff_t>(Pivot));
      } else {
        if (SignSL < 0)
          for (BigInt &C : Gens[Pivot].Coeffs)
            C = C.negated();
        Gens[Pivot].IsLinearity = false;
        Gens[Pivot].normalize();
      }
      Processed.push_back(Con);
      continue;
    }

    std::vector<size_t> Plus, Zero, Minus;
    std::vector<ConeRow> Lines;
    for (size_t I = 0; I != Gens.size(); ++I) {
      if (Gens[I].IsLinearity) {
        Lines.push_back(Gens[I]);
        continue;
      }
      int Sign = S[I].sign();
      if (Sign > 0)
        Plus.push_back(I);
      else if (Sign < 0)
        Minus.push_back(I);
      else
        Zero.push_back(I);
    }

    std::vector<std::vector<bool>> Sat(Gens.size());
    std::vector<size_t> Rays;
    for (size_t I = 0; I != Gens.size(); ++I) {
      if (Gens[I].IsLinearity)
        continue;
      Rays.push_back(I);
      Sat[I].resize(Processed.size());
      for (size_t K = 0; K != Processed.size(); ++K)
        Sat[I][K] = dotProduct(Gens[I], *Processed[K]).isZero();
    }
    auto Adjacent = [&](size_t A, size_t B) {
      for (size_t Other : Rays) {
        if (Other == A || Other == B)
          continue;
        bool Covers = true;
        for (size_t K = 0; K != Processed.size() && Covers; ++K)
          if (Sat[A][K] && Sat[B][K] && !Sat[Other][K])
            Covers = false;
        if (Covers)
          return false;
      }
      return true;
    };

    std::vector<ConeRow> Next = std::move(Lines);
    for (size_t I : Zero)
      Next.push_back(Gens[I]);
    if (!Con->IsLinearity)
      for (size_t I : Plus)
        Next.push_back(Gens[I]);
    for (size_t P : Plus)
      for (size_t M : Minus) {
        if (!Adjacent(P, M))
          continue;
        ConeRow Combo;
        Combo.Coeffs.resize(Cols);
        for (size_t Col = 0; Col != Cols; ++Col)
          Combo.Coeffs[Col] =
              S[P] * Gens[M].Coeffs[Col] - S[M] * Gens[P].Coeffs[Col];
        if (Combo.normalize())
          Next.push_back(std::move(Combo));
      }
    Gens = std::move(Next);
    referenceSortAndDedup(Gens);
    Processed.push_back(Con);
  }
  referenceSortAndDedup(Gens);
  return Gens;
}

ConeRow randomRow(Rng &R, unsigned Cols, bool NonnegativeFirst) {
  ConeRow Row;
  Row.IsLinearity = R.below(5) == 0;
  Row.Coeffs.resize(Cols);
  for (BigInt &C : Row.Coeffs)
    C = BigInt(static_cast<int64_t>(R.below(7)) - 3);
  if (NonnegativeFirst && !Row.IsLinearity)
    Row.Coeffs[0] = BigInt(static_cast<int64_t>(R.below(4)));
  return Row;
}

/// A seeded random system: constraint-like rows, or generator-like rows
/// (points and rays with a nonnegative homogeneous coordinate, plus
/// lines), with duplicates, positive multiples and sums of earlier rows
/// mixed in as redundant rows.
std::vector<ConeRow> randomSystem(Rng &R, unsigned Cols, bool Generators) {
  std::vector<ConeRow> Rows;
  unsigned Count = 1 + static_cast<unsigned>(R.below(Cols + 3));
  for (unsigned I = 0; I != Count; ++I) {
    if (Rows.empty() || R.below(4) != 0) {
      Rows.push_back(randomRow(R, Cols, Generators));
      continue;
    }
    const ConeRow &A = Rows[R.below(Rows.size())];
    const ConeRow &B = Rows[R.below(Rows.size())];
    ConeRow Extra = A;
    switch (R.below(3)) {
    case 0: // Duplicate.
      break;
    case 1: // Positive multiple.
      for (BigInt &C : Extra.Coeffs)
        C = C * BigInt(static_cast<int64_t>(2 + R.below(3)));
      break;
    default: // Sum of two rows: redundant unless an equality is involved.
      Extra.IsLinearity = A.IsLinearity && B.IsLinearity;
      for (size_t Col = 0; Col != Cols; ++Col)
        Extra.Coeffs[Col] = A.Coeffs[Col] + B.Coeffs[Col];
      break;
    }
    Rows.push_back(std::move(Extra));
  }
  return Rows;
}

/// The randomSystem of one seed: 2..10 columns, generator-like rows for
/// even seeds and constraint-like ones for odd seeds.
std::vector<ConeRow> seededSystem(uint64_t Seed) {
  Rng R(Seed * 7727);
  unsigned Cols = 2 + static_cast<unsigned>(R.below(9));
  return randomSystem(R, Cols, /*Generators=*/Seed % 2 == 0);
}

/// Systems shaped like the analyses' own: a bounding box plus random
/// halfspaces and equalities, as normalized constraint rows over 1..5
/// variables.
std::vector<ConeRow> boxedSystem(uint64_t Seed) {
  Rng R(Seed);
  unsigned Dim = 1 + static_cast<unsigned>(R.below(5));
  std::vector<ConeRow> Rows;
  for (unsigned I = 0; I != Dim; ++I)
    for (int64_t Sign : {1, -1}) {
      ConeRow Bound;
      Bound.Coeffs.assign(Dim + 1, BigInt(0));
      Bound.Coeffs[0] = BigInt(4);
      Bound.Coeffs[I + 1] = BigInt(Sign);
      Rows.push_back(std::move(Bound));
    }
  for (unsigned I = 0, N = static_cast<unsigned>(R.below(6)); I != N; ++I) {
    ConeRow Row = randomRow(R, Dim + 1, false);
    if (Row.normalize())
      Rows.push_back(std::move(Row));
  }
  return Rows;
}

} // namespace

TEST(DualizeTest, MatchesRecomputedSaturationRowForRow) {
  unsigned Compared = 0;
  for (uint64_t Seed = 1; Seed != 241; ++Seed) {
    std::vector<ConeRow> Input = seededSystem(Seed);
    unsigned Cols = static_cast<unsigned>(Input[0].Coeffs.size());
    std::vector<ConeRow> Got = dualize(Input, Cols);
    std::vector<ConeRow> Want = referenceDualize(Input, Cols);
    ASSERT_EQ(Got, Want) << "seed " << Seed << ", " << Cols << " columns";
    // The output read back as an input system: the round trip the
    // polyhedra conversions make.
    ASSERT_EQ(dualize(Got, Cols), referenceDualize(Got, Cols))
        << "seed " << Seed << " round trip";
    Compared += 2;
  }
  EXPECT_EQ(Compared, 480u);
}

TEST(DualizeTest, MatchesOnPolyhedraOfTheStressSweeps) {
  for (uint64_t Seed = 1; Seed != 41; ++Seed) {
    std::vector<ConeRow> Rows = boxedSystem(Seed);
    unsigned Dim = static_cast<unsigned>(Rows[0].Coeffs.size()) - 1;
    std::vector<ConeRow> Gens = dualize(Rows, Dim + 1);
    ASSERT_EQ(Gens, referenceDualize(Rows, Dim + 1)) << "seed " << Seed;
    ASSERT_EQ(dualize(Gens, Dim + 1), referenceDualize(Gens, Dim + 1))
        << "seed " << Seed;
  }
}

TEST(DualizeTest, MatchesWithSaturationRowsWiderThanOneWord) {
  // Past 64 processed constraints a saturation row spans several words.
  for (uint64_t Seed = 1; Seed != 9; ++Seed) {
    Rng R(Seed * 31);
    unsigned Cols = 3 + static_cast<unsigned>(R.below(2));
    std::vector<ConeRow> Rows;
    for (unsigned Col = 1; Col != Cols; ++Col)
      for (int64_t Sign : {1, -1}) {
        ConeRow Bound;
        Bound.Coeffs.assign(Cols, BigInt(0));
        Bound.Coeffs[0] = BigInt(9);
        Bound.Coeffs[Col] = BigInt(Sign);
        Rows.push_back(std::move(Bound));
      }
    unsigned Count = 65 + static_cast<unsigned>(R.below(80));
    while (Rows.size() < Count) {
      ConeRow Row = randomRow(R, Cols, false);
      Row.IsLinearity = false;
      Row.Coeffs[0] = BigInt(static_cast<int64_t>(3 + R.below(12)));
      Rows.push_back(std::move(Row));
    }
    std::vector<ConeRow> Gens = dualize(Rows, Cols);
    ASSERT_EQ(Gens, referenceDualize(Rows, Cols)) << "seed " << Seed;
    ASSERT_EQ(dualize(Gens, Cols), referenceDualize(Gens, Cols))
        << "seed " << Seed;
  }
}

TEST(DualizeTest, MatchesOnSystemsOfTenOrMoreColumns) {
  // Wide enough that the adjacency prefilter's bound, Cols - Lines - 2,
  // rejects pairs before the coverage scan.
  unsigned Compared = 0;
  for (uint64_t Seed = 1; Seed != 25; ++Seed) {
    Rng R(Seed * 104729);
    unsigned Cols = 10 + static_cast<unsigned>(R.below(3)); // 10..12
    bool Generators = Seed % 2 == 0;
    std::vector<ConeRow> Input = randomSystem(R, Cols, Generators);
    std::vector<ConeRow> Got = dualize(Input, Cols);
    ASSERT_EQ(Got, referenceDualize(Input, Cols))
        << "seed " << Seed << ", " << Cols << " columns";
    ASSERT_EQ(dualize(Got, Cols), referenceDualize(Got, Cols))
        << "seed " << Seed << " round trip";
    ++Compared;
  }
  EXPECT_EQ(Compared, 24u);
}

//===----------------------------------------------------------------------===//
// The constraint-side conversion against its three-pass reference
//===----------------------------------------------------------------------===//

namespace {

ConeRow referencePositivityRow(unsigned Dim) {
  ConeRow Row;
  Row.Coeffs.assign(Dim + 1, BigInt(0));
  Row.Coeffs[0] = BigInt(1);
  return Row;
}

bool referenceIsTrivialConstraint(const ConeRow &Row) {
  for (size_t I = 1; I != Row.Coeffs.size(); ++I)
    if (!Row.Coeffs[I].isZero())
      return false;
  if (Row.IsLinearity)
    return Row.Coeffs[0].isZero();
  return Row.Coeffs[0].sign() >= 0;
}

struct ReferenceConversion {
  bool Empty = true;
  std::vector<ConeRow> Cons, Gens;
};

/// Converting a constraint system with three dualizations whatever the
/// cone: its generators, their minimal constraints, and the generators
/// re-derived from those.
ReferenceConversion referenceFromConstraintRows(unsigned Dim,
                                                std::vector<ConeRow> Rows) {
  std::vector<ConeRow> Input;
  for (ConeRow &Row : Rows)
    if (Row.normalize())
      Input.push_back(std::move(Row));
  Input.push_back(referencePositivityRow(Dim));
  referenceSortAndDedup(Input);

  ReferenceConversion Out;
  Out.Gens = referenceDualize(Input, Dim + 1);
  Out.Empty = std::none_of(Out.Gens.begin(), Out.Gens.end(),
                           [](const ConeRow &G) {
                             return !G.IsLinearity && G.Coeffs[0].sign() > 0;
                           });
  if (Out.Empty) {
    Out.Gens.clear();
    return Out;
  }
  Out.Cons = referenceDualize(Out.Gens, Dim + 1);
  Out.Cons.erase(std::remove_if(Out.Cons.begin(), Out.Cons.end(),
                                referenceIsTrivialConstraint),
                 Out.Cons.end());
  std::vector<ConeRow> MinimalCons = Out.Cons;
  MinimalCons.push_back(referencePositivityRow(Dim));
  Out.Gens = referenceDualize(MinimalCons, Dim + 1);
  return Out;
}

/// Reads integer cone rows (column 0 the constant) as constraints over
/// Dim variables.
std::vector<Constraint> asConstraints(const std::vector<ConeRow> &Rows,
                                      unsigned Dim) {
  std::vector<Constraint> Cons;
  for (const ConeRow &Row : Rows) {
    LinearExpr E(Dim);
    E.constantTerm() = Rational(Row.Coeffs[0], BigInt(1));
    for (unsigned I = 0; I != Dim; ++I)
      E.coeff(I) = Rational(Row.Coeffs[I + 1], BigInt(1));
    Cons.push_back({E, Row.IsLinearity ? Constraint::Kind::Eq
                                       : Constraint::Kind::Ge});
  }
  return Cons;
}

bool hasLine(const std::vector<ConeRow> &Gens) {
  return std::any_of(Gens.begin(), Gens.end(),
                     [](const ConeRow &G) { return G.IsLinearity; });
}

} // namespace

TEST(PolyhedronTest, ConstraintConversionMatchesThreePassReference) {
  // DualizeTest's seeded systems read as constraint systems, then the
  // stress sweeps' bounded ones: every kind of cone the analyses meet.
  std::vector<std::vector<ConeRow>> Systems;
  for (uint64_t Seed = 1; Seed != 241; ++Seed)
    Systems.push_back(seededSystem(Seed));
  for (uint64_t Seed = 1; Seed != 41; ++Seed)
    Systems.push_back(boxedSystem(Seed));

  clearConversionCaches();
  unsigned Pointed = 0, WithLines = 0, WithEqualities = 0, Empty = 0;
  for (size_t I = 0; I != Systems.size(); ++I) {
    const std::vector<ConeRow> &Rows = Systems[I];
    unsigned Dim = static_cast<unsigned>(Rows[0].Coeffs.size()) - 1;
    Polyhedron P = Polyhedron::fromConstraints(Dim, asConstraints(Rows, Dim));
    ReferenceConversion Want = referenceFromConstraintRows(Dim, Rows);
    ASSERT_EQ(P.isEmpty(), Want.Empty) << "system " << I;
    ASSERT_EQ(P.constraints(), Want.Cons) << "system " << I;
    ASSERT_EQ(P.generators(), Want.Gens) << "system " << I;
    Empty += Want.Empty;
    Pointed += !Want.Empty && !hasLine(Want.Gens);
    WithLines += !Want.Empty && hasLine(Want.Gens);
    WithEqualities += std::any_of(Rows.begin(), Rows.end(),
                                  [](const ConeRow &R) {
                                    return R.IsLinearity;
                                  });
  }
  EXPECT_GT(Pointed, 0u);
  EXPECT_GT(WithLines, 0u);
  EXPECT_GT(WithEqualities, 0u);
  EXPECT_GT(Empty, 0u);
}

TEST(PolyhedronTest, PointedConversionRunsTwoChernikovaPasses) {
  clearConversionCaches();
  auto Calls = [] {
    return numericCounters().MinimizationCalls.load(std::memory_order_relaxed);
  };
  // {x >= 0, y >= 0}: a pointed cone, so no re-minimizing pass.
  uint64_t Before = Calls();
  Polyhedron Quadrant = Polyhedron::fromConstraints(
      2, {Constraint::ge(var(2, 0), cst(2, 0)),
          Constraint::ge(var(2, 1), cst(2, 0))});
  EXPECT_EQ(Calls() - Before, 2u);
  EXPECT_FALSE(hasLine(Quadrant.generators()));
  // {x >= 0}: the cone keeps y's line, and the generators are re-derived.
  Before = Calls();
  Polyhedron HalfPlane =
      Polyhedron::fromConstraints(2, {Constraint::ge(var(2, 0), cst(2, 0))});
  EXPECT_EQ(Calls() - Before, 3u);
  EXPECT_TRUE(hasLine(HalfPlane.generators()));
}
