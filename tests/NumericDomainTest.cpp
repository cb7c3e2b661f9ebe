//===- tests/NumericDomainTest.cpp - The zone backend ---------------------===//
//
// Unit and differential tests of the zone backend below the LEIA domain
// (difference-bound matrices) and the constraint classifier it reads
// constraints with. The differential suite pins down the exactness
// contract: Zones vs Polyhedron agree *exactly* on systems
// inside the DBM fragment (bounds and differences) under construction,
// meet, and projection — randomized over seeded constraint systems — and
// round large coefficients identically.
//
//===----------------------------------------------------------------------===//

#include "poly/Polyhedron.h"
#include "poly/Zones.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace pmaf;
using namespace pmaf::poly;

namespace {

LinearExpr var(unsigned Dim, unsigned I) {
  return LinearExpr::variable(Dim, I);
}
LinearExpr cst(unsigned Dim, int64_t V) {
  return LinearExpr::constant(Dim, Rational(V));
}

/// A random constraint in the DBM fragment: `a x + b {>=,==} 0` or
/// `a (x - y) + b {>=,==} 0` with a != 0 (scale-invariance is part of the
/// fragment definition, so scaled coefficients are fair game).
Constraint randomDbmConstraint(Rng &R, unsigned Dim) {
  unsigned X = static_cast<unsigned>(R.below(Dim));
  int64_t A = static_cast<int64_t>(1 + R.below(3));
  if (R.below(2) == 0)
    A = -A;
  int64_t B = static_cast<int64_t>(R.below(17)) - 8;
  LinearExpr E = var(Dim, X).scaled(Rational(A)) + cst(Dim, B);
  if (Dim >= 2 && R.below(2) == 0) {
    unsigned Y = static_cast<unsigned>(R.below(Dim - 1));
    if (Y >= X)
      ++Y;
    E = (var(Dim, X) - var(Dim, Y)).scaled(Rational(A)) + cst(Dim, B);
  }
  // Equalities rarely (they empty the system quickly).
  Constraint::Kind K =
      R.below(8) == 0 ? Constraint::Kind::Eq : Constraint::Kind::Ge;
  return Constraint{E, K};
}

/// The exact polyhedral meaning of a zone.
Polyhedron zoneToPoly(const Zones &Z) {
  if (Z.isEmpty())
    return Polyhedron::empty(Z.dim());
  return Polyhedron::fromConstraints(Z.dim(), Z.rawConstraintList());
}

} // namespace

//===----------------------------------------------------------------------===//
// Constraint classification
//===----------------------------------------------------------------------===//

TEST(ClassifyConstraintTest, Fragments) {
  EXPECT_EQ(classifyConstraint(Constraint::ge(cst(3, 1), cst(3, 0))),
            ConstraintClass::Trivial);
  EXPECT_EQ(classifyConstraint(Constraint::ge(var(3, 0), cst(3, 2))),
            ConstraintClass::Bound);
  // Scale-invariant: 3z == 1 is still a bound.
  EXPECT_EQ(classifyConstraint(
                Constraint::eq(var(3, 2).scaled(Rational(3)), cst(3, 1))),
            ConstraintClass::Bound);
  EXPECT_EQ(classifyConstraint(
                Constraint::le(var(3, 0) - var(3, 1), cst(3, 4))),
            ConstraintClass::Difference);
  // 2x - 2y >= 3 is a scaled difference.
  EXPECT_EQ(classifyConstraint(Constraint::ge(
                (var(3, 0) - var(3, 1)).scaled(Rational(2)), cst(3, 3))),
            ConstraintClass::Difference);
  // x + y >= 0 couples two variables with equal-sign coefficients.
  EXPECT_EQ(classifyConstraint(
                Constraint::ge(var(3, 0) + var(3, 1), cst(3, 0))),
            ConstraintClass::General);
}

//===----------------------------------------------------------------------===//
// Zones
//===----------------------------------------------------------------------===//

TEST(ZonesTest, ClosurePropagatesBounds) {
  // x - y <= 1, y <= 2  ==>  x <= 3 (via closure).
  Zones Z = Zones::fromConstraints(
      2, {Constraint::le(var(2, 0) - var(2, 1), cst(2, 1)),
          Constraint::le(var(2, 1), cst(2, 2))});
  EXPECT_EQ(Z.maximize(var(2, 0)), Rational(3));
  EXPECT_TRUE(Z.entryFinite(1, 0)); // x - v0 <= 3 materialized.
  EXPECT_EQ(Z.entryBound(1, 0), Rational(3));
}

TEST(ZonesTest, EmptinessAndEquality) {
  Zones Z = Zones::fromConstraints(
      2, {Constraint::ge(var(2, 0) - var(2, 1), cst(2, 2)),
          Constraint::le(var(2, 0) - var(2, 1), cst(2, 1))});
  EXPECT_TRUE(Z.isEmpty());

  Zones A = Zones::fromConstraints(
      2, {Constraint::le(var(2, 0), cst(2, 1))});
  Zones B = Zones::fromConstraints(
      2, {Constraint::le(var(2, 0).scaled(Rational(2)), cst(2, 2))});
  EXPECT_TRUE(A.equals(B)); // Scale-invariant parsing.
}

TEST(ZonesTest, DifferentialVsPolyhedronOnDbmFragment) {
  // Randomized exactness: on systems inside the DBM fragment, the zone
  // and the polyhedron denote the same set — under construction, meet
  // with a random system, and projection.
  Rng R(20260808);
  for (int Iter = 0; Iter != 60; ++Iter) {
    unsigned Dim = 2 + static_cast<unsigned>(R.below(3));
    std::vector<Constraint> Cons;
    unsigned N = 1 + static_cast<unsigned>(R.below(6));
    for (unsigned I = 0; I != N; ++I)
      Cons.push_back(randomDbmConstraint(R, Dim));

    Zones Z = Zones::fromConstraints(Dim, Cons);
    Polyhedron P = Polyhedron::fromConstraints(Dim, Cons);
    EXPECT_TRUE(zoneToPoly(Z).equals(P))
        << "fromConstraints diverges at iter " << Iter;

    std::vector<Constraint> MeetCons{randomDbmConstraint(R, Dim),
                                     randomDbmConstraint(R, Dim)};
    Zones ZM = Z.meet(Zones::fromConstraints(Dim, MeetCons));
    Polyhedron PM = P.meet(Polyhedron::fromConstraints(Dim, MeetCons));
    EXPECT_TRUE(zoneToPoly(ZM).equals(PM))
        << "meet diverges at iter " << Iter;

    std::vector<unsigned> Forget{static_cast<unsigned>(R.below(Dim))};
    EXPECT_TRUE(zoneToPoly(Z.project(Forget)).equals(P.project(Forget)))
        << "project diverges at iter " << Iter;

    // Inclusion must agree with the polyhedral truth as well.
    EXPECT_EQ(Z.contains(ZM), P.contains(PM))
        << "contains diverges at iter " << Iter;
  }
}

TEST(ZonesTest, RoundedCoefficientsMatchesPolyhedron) {
  // A bound and a difference whose denominators pass 2^40: rounded at 40
  // bits, the zone must land on the polyhedron the polyhedra backend
  // rounds the same system to (both go through roundConstraintRow).
  const Rational Awkward(3, (int64_t{1} << 41) + 3);
  const Constraint Systems[] = {
      Constraint::ge(var(2, 0), LinearExpr::constant(2, Awkward)),
      Constraint::le(var(2, 0) - var(2, 1), LinearExpr::constant(2, Awkward)),
  };
  for (const Constraint &Con : Systems) {
    SCOPED_TRACE(Con.toString({}));
    Zones Z = Zones::fromConstraints(2, {Con});
    Polyhedron P = Polyhedron::fromConstraints(2, {Con});
    Polyhedron Rounded = P.roundedCoefficients(40);
    EXPECT_FALSE(Rounded.equals(P)) << "the system needs no rounding";
    EXPECT_TRUE(zoneToPoly(Z.roundedCoefficients(40)).equals(Rounded))
        << "zone:       " << Z.roundedCoefficients(40).toString() << "\n"
        << "polyhedron: " << Rounded.toString();
  }
}
