//===- poly/Zones.cpp - Difference-bound matrices over Q ------------------===//

#include "poly/Zones.h"

#include "poly/Polyhedron.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace pmaf;
using namespace pmaf::poly;

Zones Zones::universe(unsigned Dim) {
  Zones Z(Dim, /*Empty=*/false);
  Z.M.assign((Dim + 1) * (Dim + 1), Entry{});
  for (unsigned I = 0; I != Dim + 1; ++I)
    Z.at(I, I) = Entry{true, Rational(0)};
  return Z;
}

Zones Zones::empty(unsigned Dim) { return Zones(Dim, /*Empty=*/true); }

bool Zones::isUniverse() const {
  if (Empty)
    return false;
  for (unsigned I = 0; I != Dim + 1; ++I)
    for (unsigned J = 0; J != Dim + 1; ++J)
      if (I != J && at(I, J).Finite)
        return false;
  return true;
}

void Zones::tighten(unsigned I, unsigned J, const Rational &Bound) {
  Entry &E = at(I, J);
  if (!E.Finite || Bound < E.Bound)
    E = Entry{true, Bound};
}

bool Zones::addInPlace(const Constraint &Con) {
  switch (classifyConstraint(Con)) {
  case ConstraintClass::Trivial: {
    const Rational &B = Con.Expr.constantTerm();
    return Con.TheKind == Constraint::Kind::Eq ? B.isZero()
                                               : B.sign() >= 0;
  }
  case ConstraintClass::Bound: {
    unsigned Var = 0;
    while (Con.Expr.coeff(Var).isZero())
      ++Var;
    const Rational &A = Con.Expr.coeff(Var);
    Rational V = -Con.Expr.constantTerm() / A;
    bool IsEq = Con.TheKind == Constraint::Kind::Eq;
    // a > 0 (or ==): x >= V, i.e. v0 - x <= -V.
    if (IsEq || A.sign() > 0)
      tighten(0, Var + 1, -V);
    // a < 0 (or ==): x <= V.
    if (IsEq || A.sign() < 0)
      tighten(Var + 1, 0, V);
    return true;
  }
  case ConstraintClass::Difference: {
    unsigned First = 0;
    while (Con.Expr.coeff(First).isZero())
      ++First;
    unsigned Second = First + 1;
    while (Con.Expr.coeff(Second).isZero())
      ++Second;
    const Rational &A = Con.Expr.coeff(First);
    // The constraint reads a (x_F - x_S) + b {>=,==} 0.
    Rational V = -Con.Expr.constantTerm() / A; // Bound on x_F - x_S.
    bool IsEq = Con.TheKind == Constraint::Kind::Eq;
    // a > 0 (or ==): x_F - x_S >= V, i.e. x_S - x_F <= -V.
    if (IsEq || A.sign() > 0)
      tighten(Second + 1, First + 1, -V);
    // a < 0 (or ==): x_F - x_S <= V.
    if (IsEq || A.sign() < 0)
      tighten(First + 1, Second + 1, V);
    return true;
  }
  case ConstraintClass::General:
    // Outside the DBM fragment: drop (sound over-approximation).
    return true;
  }
  return true;
}

void Zones::close() {
  if (Empty)
    return;
  unsigned N = Dim + 1;
  for (unsigned K = 0; K != N; ++K)
    for (unsigned I = 0; I != N; ++I) {
      const Entry &IK = at(I, K);
      if (!IK.Finite)
        continue;
      for (unsigned J = 0; J != N; ++J) {
        const Entry &KJ = at(K, J);
        if (!KJ.Finite)
          continue;
        Rational Via = IK.Bound + KJ.Bound;
        Entry &IJ = at(I, J);
        if (!IJ.Finite || Via < IJ.Bound)
          IJ = Entry{true, std::move(Via)};
      }
    }
  for (unsigned I = 0; I != N; ++I)
    if (at(I, I).Bound.sign() < 0) {
      Empty = true;
      M.clear();
      return;
    }
}

Zones Zones::fromConstraints(unsigned Dim,
                             const std::vector<Constraint> &Cons) {
  Zones Z = universe(Dim);
  for (const Constraint &Con : Cons) {
    assert(Con.Expr.dim() == Dim && "constraint dimension mismatch");
    if (!Z.addInPlace(Con))
      return empty(Dim);
  }
  Z.close();
  return Z;
}

Zones Zones::meet(const Zones &Other) const {
  assert(Dim == Other.Dim && "dimension mismatch");
  if (Empty || Other.Empty)
    return empty(Dim);
  Zones Out = *this;
  for (size_t I = 0; I != M.size(); ++I) {
    const Entry &E = Other.M[I];
    if (E.Finite && (!Out.M[I].Finite || E.Bound < Out.M[I].Bound))
      Out.M[I] = E;
  }
  Out.close();
  return Out;
}

Zones Zones::meet(const Constraint &Con) const {
  assert(Con.Expr.dim() == Dim && "dimension mismatch");
  if (Empty)
    return *this;
  Zones Out = *this;
  if (!Out.addInPlace(Con))
    return empty(Dim);
  Out.close();
  return Out;
}

Zones Zones::join(const Zones &Other) const {
  assert(Dim == Other.Dim && "dimension mismatch");
  if (Empty)
    return Other;
  if (Other.Empty)
    return *this;
  // Entrywise maximum of two closed DBMs is the zone hull and is closed.
  Zones Out = *this;
  for (size_t I = 0; I != M.size(); ++I) {
    const Entry &A = M[I], &B = Other.M[I];
    if (!A.Finite || !B.Finite)
      Out.M[I] = Entry{};
    else
      Out.M[I] = A.Bound >= B.Bound ? A : B;
  }
  for (unsigned I = 0; I != Dim + 1; ++I)
    Out.at(I, I) = Entry{true, Rational(0)};
  return Out;
}

Zones Zones::project(const std::vector<unsigned> &DimsToForget) const {
  if (Empty || DimsToForget.empty())
    return *this;
  Zones Out = *this;
  for (unsigned D : DimsToForget) {
    assert(D < Dim && "projected dimension out of range");
    for (unsigned I = 0; I != Dim + 1; ++I) {
      if (I != D + 1) {
        Out.at(D + 1, I) = Entry{};
        Out.at(I, D + 1) = Entry{};
      }
    }
  }
  return Out; // A closed DBM stays closed under row/column erasure.
}

Zones Zones::extend(unsigned Count) const {
  Zones Out(Dim + Count, Empty);
  if (Empty)
    return Out;
  Out.M.assign((Dim + Count + 1) * (Dim + Count + 1), Entry{});
  for (unsigned I = 0; I != Dim + Count + 1; ++I)
    Out.at(I, I) = Entry{true, Rational(0)};
  for (unsigned I = 0; I != Dim + 1; ++I)
    for (unsigned J = 0; J != Dim + 1; ++J)
      Out.at(I, J) = at(I, J);
  return Out;
}

Zones Zones::dropTrailing(unsigned Count) const {
  assert(Count <= Dim && "dropping more dimensions than available");
  Zones Out(Dim - Count, Empty);
  if (Empty)
    return Out;
  Out.M.assign((Dim - Count + 1) * (Dim - Count + 1), Entry{});
  for (unsigned I = 0; I != Dim - Count + 1; ++I)
    for (unsigned J = 0; J != Dim - Count + 1; ++J)
      Out.at(I, J) = at(I, J);
  return Out; // A leading submatrix of a closed DBM is closed.
}

Zones Zones::permute(const std::vector<unsigned> &NewIndex) const {
  assert(NewIndex.size() == Dim && "permutation size mismatch");
  if (Empty)
    return *this;
  Zones Out = universe(Dim);
  auto Map = [&](unsigned I) { return I == 0 ? 0 : NewIndex[I - 1] + 1; };
  for (unsigned I = 0; I != Dim + 1; ++I)
    for (unsigned J = 0; J != Dim + 1; ++J)
      Out.at(Map(I), Map(J)) = at(I, J);
  return Out;
}

bool Zones::contains(const Zones &Other) const {
  assert(Dim == Other.Dim && "dimension mismatch");
  if (Other.Empty)
    return true;
  if (Empty)
    return false;
  for (size_t I = 0; I != M.size(); ++I) {
    const Entry &A = M[I], &B = Other.M[I];
    if (A.Finite && (!B.Finite || B.Bound > A.Bound))
      return false;
  }
  return true;
}

bool Zones::containsApprox(const Zones &Other, double Eps) const {
  assert(Dim == Other.Dim && "dimension mismatch");
  if (Other.Empty)
    return true;
  if (Empty)
    return false;
  for (size_t I = 0; I != M.size(); ++I) {
    const Entry &A = M[I], &B = Other.M[I];
    if (!A.Finite)
      continue;
    if (!B.Finite)
      return false;
    double Slack = Eps * std::max(1.0, std::abs(A.Bound.toDouble())) *
                   static_cast<double>(Dim + 1);
    if (B.Bound.toDouble() > A.Bound.toDouble() + Slack)
      return false;
  }
  return true;
}

bool Zones::equals(const Zones &Other) const {
  assert(Dim == Other.Dim && "dimension mismatch");
  if (Empty || Other.Empty)
    return Empty == Other.Empty;
  return M == Other.M;
}

Zones Zones::widen(const Zones &Other) const {
  assert(Dim == Other.Dim && "dimension mismatch");
  if (Empty)
    return Other;
  if (Other.Empty)
    return *this; // Degenerate; widening assumes this ⊑ other.
  Zones Out = *this;
  for (size_t I = 0; I != M.size(); ++I) {
    const Entry &A = M[I], &B = Other.M[I];
    // Keep the entries of *this that Other still satisfies.
    if (A.Finite && (!B.Finite || B.Bound > A.Bound))
      Out.M[I] = Entry{};
  }
  for (unsigned I = 0; I != Dim + 1; ++I)
    Out.at(I, I) = Entry{true, Rational(0)};
  Out.close();
  return Out;
}

Zones Zones::roundedCoefficients(unsigned MaxBits) const {
  if (Empty)
    return *this;
  Zones Out = *this;
  bool Changed = false;
  for (unsigned I = 0; I != Dim + 1; ++I)
    for (unsigned J = 0; J != Dim + 1; ++J) {
      if (I == J || !Out.at(I, J).Finite)
        continue;
      Rational Rounded = roundedBoundValue(Out.at(I, J).Bound, MaxBits);
      if (Rounded != Out.at(I, J).Bound) {
        Out.at(I, J).Bound = Rounded;
        Changed = true;
      }
    }
  if (!Changed)
    return *this;
  Out.close();
  return Out;
}

std::optional<Rational> Zones::maximize(const LinearExpr &Expr) const {
  assert(!Empty && "maximize over the empty zone");
  assert(Expr.dim() == Dim && "expression dimension mismatch");
  // General linear objectives need an LP over the zone; delegate to the
  // polyhedra backend (a query-path operation, memoized downstream).
  return Polyhedron::fromConstraints(Dim, rawConstraintList())
      .maximize(Expr);
}

std::optional<Rational> Zones::minimize(const LinearExpr &Expr) const {
  std::optional<Rational> NegMax = maximize(-Expr);
  if (!NegMax)
    return std::nullopt;
  return -*NegMax;
}

std::vector<Constraint> Zones::rawConstraintList() const {
  std::vector<Constraint> Result;
  if (Empty)
    return Result;
  for (unsigned I = 0; I != Dim + 1; ++I)
    for (unsigned J = 0; J != Dim + 1; ++J) {
      if (I == J || !at(I, J).Finite)
        continue;
      const Rational &C = at(I, J).Bound;
      LinearExpr Bound = LinearExpr::constant(Dim, C);
      if (I != 0 && J != 0)
        Result.push_back(
            Constraint::le(LinearExpr::variable(Dim, I - 1) -
                               LinearExpr::variable(Dim, J - 1),
                           Bound));
      else if (J == 0)
        Result.push_back(
            Constraint::le(LinearExpr::variable(Dim, I - 1), Bound));
      else
        Result.push_back(Constraint::ge(LinearExpr::variable(Dim, J - 1),
                                        LinearExpr::constant(Dim, -C)));
    }
  return Result;
}

std::vector<Constraint> Zones::constraintList() const {
  if (Empty)
    return {};
  // The closure makes entries pairwise redundant; the polyhedra backend's
  // minimization strips that so reported invariants match the poly mode.
  return Polyhedron::fromConstraints(Dim, rawConstraintList())
      .constraintList();
}

std::string Zones::toString(const std::vector<std::string> &Names) const {
  return renderConstraints(constraintList(), Names, Empty);
}

bool Zones::entryFinite(unsigned I, unsigned J) const {
  assert(!Empty && I <= Dim && J <= Dim && "entry of an empty zone");
  return at(I, J).Finite;
}

const Rational &Zones::entryBound(unsigned I, unsigned J) const {
  assert(entryFinite(I, J) && "infinite entry has no bound");
  return at(I, J).Bound;
}
