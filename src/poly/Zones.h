//===- poly/Zones.h - Difference-bound matrices over Q ----------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The zone backend of the numeric-domain layer: difference-bound
/// matrices (DBMs) over the rationals. A zone over x_0..x_{d-1} is the
/// conjunction of constraints `v_i - v_j <= c` over the extended variable
/// set v_0 = 0, v_{k+1} = x_k, which covers exactly the fragment
/// `x - y <= c`, `x <= c`, `x >= c` (and, scale-invariantly,
/// `a(x - y) + b >= 0` / `a x + b >= 0`). The matrix is kept shortest-path
/// closed (Floyd–Warshall) whenever nonempty, so the representation is
/// canonical: equality and inclusion are entrywise, join (the zone hull)
/// is the entrywise maximum, and projection just discards rows.
///
/// Constraints outside the fragment are soundly dropped, which makes
/// `--numeric=zones` an over-approximation of the exact polyhedra backend:
/// the cheap relational backend verify-corpus runs, at polynomial cost per
/// operation.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_POLY_ZONES_H
#define PMAF_POLY_ZONES_H

#include "poly/NumericDomain.h"

#include <optional>
#include <string>
#include <vector>

namespace pmaf {
namespace poly {

/// A zone (DBM-representable polyhedron) in Q^d.
class Zones {
public:
  /// The universe zone of dimension 0 (value-type default).
  Zones() = default;

  static Zones universe(unsigned Dim);
  static Zones empty(unsigned Dim);

  /// Meets the universe with each constraint in turn; constraints outside
  /// the DBM fragment are dropped (sound over-approximation).
  static Zones fromConstraints(unsigned Dim,
                               const std::vector<Constraint> &Cons);

  unsigned dim() const { return Dim; }
  bool isEmpty() const { return Empty; }
  bool isUniverse() const;

  Zones meet(const Zones &Other) const;
  Zones meet(const Constraint &Con) const;
  Zones join(const Zones &Other) const;
  Zones project(const std::vector<unsigned> &DimsToForget) const;
  Zones extend(unsigned Count) const;
  Zones dropTrailing(unsigned Count) const;
  Zones permute(const std::vector<unsigned> &NewIndex) const;

  bool contains(const Zones &Other) const;
  bool containsApprox(const Zones &Other, double Eps) const;
  bool equals(const Zones &Other) const;

  /// DBM widening: entries of *this not stable in \p Other are dropped.
  /// The result is re-closed to keep the representation canonical,
  /// accepting the textbook caveat that closure after widening can delay
  /// convergence; verify-corpus bounds every solve by its update budget.
  Zones widen(const Zones &Other) const;

  /// Rounds each finite entry with the same row rounding the polyhedra
  /// backend applies to its constraint rows, then re-closes.
  Zones roundedCoefficients(unsigned MaxBits = 40) const;

  std::optional<Rational> maximize(const LinearExpr &Expr) const;
  std::optional<Rational> minimize(const LinearExpr &Expr) const;

  /// Minimized constraints (delegates to the polyhedra backend, which
  /// strips the redundancy the closure introduces).
  std::vector<Constraint> constraintList() const;

  /// Every finite entry of the closed DBM as a constraint — exact but
  /// redundant; promotion to Polyhedron minimizes it away.
  std::vector<Constraint> rawConstraintList() const;

  std::string toString(const std::vector<std::string> &Names = {}) const;

  /// True if entry v_I - v_J (0 = the zero variable, K+1 = x_K) is finite.
  bool entryFinite(unsigned I, unsigned J) const;

  /// The finite bound of entry v_I - v_J; requires entryFinite(I, J).
  const Rational &entryBound(unsigned I, unsigned J) const;

private:
  /// One matrix entry: an upper bound on v_i - v_j, or +infinity.
  struct Entry {
    bool Finite = false;
    Rational Bound;

    bool operator==(const Entry &Other) const {
      return Finite == Other.Finite && (!Finite || Bound == Other.Bound);
    }
  };

  unsigned Dim = 0;
  bool Empty = false;
  std::vector<Entry> M; ///< (Dim+1)^2 row-major; closed when nonempty.

  Zones(unsigned Dim, bool Empty) : Dim(Dim), Empty(Empty) {}

  Entry &at(unsigned I, unsigned J) { return M[I * (Dim + 1) + J]; }
  const Entry &at(unsigned I, unsigned J) const {
    return M[I * (Dim + 1) + J];
  }

  /// Tightens entry (I, J) toward \p Bound.
  void tighten(unsigned I, unsigned J, const Rational &Bound);

  /// Adds one fragment constraint without re-closing; \returns false if
  /// the constraint was trivially contradictory.
  bool addInPlace(const Constraint &Con);

  /// Floyd–Warshall closure; detects emptiness (negative diagonal) and
  /// clears the matrix in that case.
  void close();
};

static_assert(NumericDomain<Zones>,
              "Zones must model the numeric-backend interface");

} // namespace poly
} // namespace pmaf

#endif // PMAF_POLY_ZONES_H
