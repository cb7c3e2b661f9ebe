//===- poly/Polyhedron.h - Convex polyhedra over the rationals --*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closed convex polyhedra over Q^d with exact arithmetic, implemented with
/// the double-description (Chernikova) method: each polyhedron keeps both a
/// minimized constraint system and a minimized generator system (points,
/// rays, lines) of its homogenized cone, and every operation works on
/// whichever side is natural:
///
///   meet       : union of constraints          (constraint side)
///   join       : union of generators (poly hull, generator side)
///   projection : column removal                (generator side)
///   inclusion  : generators against constraints
///   widening   : constraints stable across the two iterates (CH78)
///
/// This is the substrate replacing APRON in the paper's prototype (§6.1);
/// the LEIA instantiation of §5.3 builds its product domain of ordinary and
/// expectation polyhedra on top of it.
///
/// Internals: a polyhedron P in Q^d is the set {x | (1, x) ∈ C} for the
/// cone C in Q^{d+1} generated/constrained by integer rows; row column 0 is
/// the homogeneous coordinate (the constant term of a constraint). Rows are
/// normalized by their content gcd. Conversion between the two sides is a
/// single dualization routine (the DD pair is symmetric).
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_POLY_POLYHEDRON_H
#define PMAF_POLY_POLYHEDRON_H

#include "poly/LinearExpr.h"
#include "poly/NumericDomain.h"
#include "support/BigInt.h"

#include <optional>
#include <string>
#include <vector>

namespace pmaf {
namespace poly {

/// A homogeneous integer row of a cone representation. As a constraint it
/// reads `C[0] + C[1] x1 + ... + C[d] xd >= 0` (or == 0 when IsLinearity);
/// as a generator it is a point (C[0] > 0, coordinates C[i]/C[0]), a ray
/// (C[0] == 0), or a line (IsLinearity).
struct ConeRow {
  bool IsLinearity = false;
  std::vector<BigInt> Coeffs;

  /// Divides by the content gcd; linearities get a canonical sign (first
  /// nonzero coefficient positive). \returns false if the row is zero.
  bool normalize();

  bool operator==(const ConeRow &Other) const {
    return IsLinearity == Other.IsLinearity && Coeffs == Other.Coeffs;
  }
};

/// Scalar product of two rows of equal width.
BigInt dotProduct(const ConeRow &A, const ConeRow &B);

/// Dualizes a cone representation: given the constraints of a cone in
/// Q^{Cols} returns its minimal generators, and vice versa (the algorithm
/// is self-dual). Chernikova's incremental construction with the
/// saturation-based adjacency test.
std::vector<ConeRow> dualize(const std::vector<ConeRow> &Input,
                             unsigned Cols);

/// Empties the calling thread's conversion memo caches, which a cold
/// measurement must not inherit (other threads keep theirs). The counters
/// are left alone.
void clearConversionCaches();

/// Rounds one constraint row to at most \p MaxBits bits per coefficient:
/// rows already within budget are kept exactly, wider rows are rescaled so
/// the widest coefficient becomes 2^MaxBits with round-to-nearest on the
/// rest (the §6.1 finite-precision convergence device). Shared by every
/// numeric backend so rounding behaves identically in polyhedra and zones.
/// \returns true if the row was modified.
bool roundConstraintRow(ConeRow &Row, unsigned MaxBits);

/// A closed convex polyhedron in Q^d.
class Polyhedron {
public:
  /// Constructs the universe (whole space) of dimension \p Dim.
  static Polyhedron universe(unsigned Dim);

  /// Constructs the empty polyhedron of dimension \p Dim.
  static Polyhedron empty(unsigned Dim);

  /// Constructs from a constraint system.
  static Polyhedron fromConstraints(unsigned Dim,
                                    const std::vector<Constraint> &Cons);

  /// Constructs the single rational point \p Coords.
  static Polyhedron point(const std::vector<Rational> &Coords);

  unsigned dim() const { return Dim; }
  bool isEmpty() const { return Empty; }
  bool isUniverse() const { return !Empty && Cons.empty(); }

  /// Greatest lower bound: conjunction of constraints.
  Polyhedron meet(const Polyhedron &Other) const;

  /// Meet with a single constraint.
  Polyhedron meet(const Constraint &Con) const;

  /// Least upper bound in the polyhedra lattice (polyhedral hull).
  Polyhedron join(const Polyhedron &Other) const;

  /// Existentially quantifies the given dimensions (they become
  /// unconstrained; the dimension of the result is unchanged).
  Polyhedron project(const std::vector<unsigned> &DimsToForget) const;

  /// Appends \p Count fresh unconstrained dimensions.
  Polyhedron extend(unsigned Count) const;

  /// Removes the trailing \p Count dimensions, projecting onto the rest.
  Polyhedron dropTrailing(unsigned Count) const;

  /// Renames dimensions: NewIndex[i] is the destination of dimension i
  /// (a permutation of 0..d-1).
  Polyhedron permute(const std::vector<unsigned> &NewIndex) const;

  /// \returns true if \p Other ⊆ *this.
  bool contains(const Polyhedron &Other) const;

  /// \returns true if \p Other ⊆ *this up to relative tolerance \p Eps:
  /// each generator of Other may violate each constraint of *this by at
  /// most Eps at the scale of the row norms. Fixpoint detection over
  /// geometrically-converging chains uses this (the analogue of §6.1's
  /// "ascending chains of floating numbers converge finitely").
  bool containsApprox(const Polyhedron &Other, double Eps) const;

  bool equals(const Polyhedron &Other) const {
    return contains(Other) && Other.contains(*this);
  }

  /// \returns true if every point of *this satisfies \p Con.
  bool satisfies(const Constraint &Con) const;

  /// \returns true if the rational point \p Coords lies in *this.
  bool containsPoint(const std::vector<Rational> &Coords) const;

  /// The standard widening of Cousot–Halbwachs: keeps the constraints of
  /// *this that \p Other satisfies (equalities split into inequality
  /// pairs so each half can survive separately). Requires *this ⊑ Other.
  Polyhedron widen(const Polyhedron &Other) const;

  /// Limits coefficient precision: any constraint row whose coefficients
  /// exceed \p MaxBits bits is rescaled so its largest coefficient is
  /// 2^MaxBits and the others are rounded to the nearest integer; rows
  /// already within budget are kept exactly. This reproduces the
  /// finite-precision convergence argument of §6.1 of the paper ("ascending
  /// chains of floating numbers always converge in a finite number of
  /// steps"): rounded rows range over a finite set, so Kleene chains that
  /// would ascend forever over exact rationals stabilize. Like the paper's
  /// float implementation, rounding is a controlled precision loss, not a
  /// sound over-approximation.
  Polyhedron roundedCoefficients(unsigned MaxBits = 40) const;

  /// Supremum of \p Expr over the polyhedron: nullopt when unbounded
  /// above; no value is defined on the empty polyhedron (asserts).
  std::optional<Rational> maximize(const LinearExpr &Expr) const;

  /// Infimum of \p Expr over the polyhedron.
  std::optional<Rational> minimize(const LinearExpr &Expr) const;

  /// Minimized constraints (without the implicit positivity row).
  const std::vector<ConeRow> &constraints() const { return Cons; }

  /// Minimized generators of the homogenized cone.
  const std::vector<ConeRow> &generators() const { return Gens; }

  /// Constraint system as user-facing Constraints.
  std::vector<Constraint> constraintList() const;

  /// Renders the constraint system, e.g. "{x0 >= 0, x0 + x1 - 1 == 0}".
  std::string toString(const std::vector<std::string> &Names = {}) const;

private:
  Polyhedron() = default;

  /// Rebuilds both minimized representations from raw constraint rows.
  static Polyhedron fromConstraintRows(unsigned Dim,
                                       std::vector<ConeRow> Rows);

  /// Rebuilds both minimized representations from raw generator rows.
  static Polyhedron fromGeneratorRows(unsigned Dim,
                                      std::vector<ConeRow> Rows);

  static ConeRow positivityRow(unsigned Dim);
  static bool isTrivialConstraint(const ConeRow &Row);

  unsigned Dim = 0;
  bool Empty = true;
  std::vector<ConeRow> Cons; ///< Minimized; positivity row stripped.
  std::vector<ConeRow> Gens; ///< Minimized cone generators.
};

static_assert(NumericDomain<Polyhedron>,
              "Polyhedron must model the numeric-backend interface");

} // namespace poly
} // namespace pmaf

#endif // PMAF_POLY_POLYHEDRON_H
