//===- domains/LeiaDomain.h - Linear expectation-invariant analysis -------===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PMA I of §5.3: linear expectation-invariant analysis (LEIA), the
/// paper's new instantiation. A value is a pair (P, EP) of two-vocabulary
/// convex sets over nonnegative program variables:
///
///  * P  ⊆ R^{2n}_{>=0} over (x, x') — ordinary relational invariants
///    between the state at a node and the state at the procedure exit;
///  * EP ⊆ R^{2n}_{>=0} over (x, E[x']) — *expectation* invariants relating
///    the pre-state to the expected exit state,
///
/// maintained with the invariant 0 ⊔ P[E[x']/x'] ⊒ EP (the expected value
/// always lies in the subprobability cone of the support, footnote 5).
///
/// Operators follow §5.3 exactly: composition uses the tower property
/// (identical rename/meet/project steps for both components, shared in
/// liftedMeet); conditional-choice meets the branches with phi / ¬phi on
/// the P side and rebuilds a pessimistic EP; probabilistic-choice forms
/// the affine combination E = p·x'' + (1-p)·x''' through two fresh
/// vocabularies; nondeterministic-choice joins. Widening is per §5.3:
/// conditional and nondeterministic loops rebuild EP from the widened P;
/// probabilistic loops do no EP extrapolation in the widening, relying on
/// the finite-precision convergence mechanism of §6.1
/// (roundedCoefficients). Beside the widening, extrapolate() offers the
/// solver the exact limit of a loop head's EP chain when its iterates
/// follow a linear recurrence; the solver keeps it only on an exact check.
///
/// The domain is a template over the numeric backend NumV
/// (poly/NumericDomain.h), instantiated twice: monolithic polyhedra (the
/// default) reproduce the original §5.3 evaluation exactly, and zones are
/// a cheap sound over-approximation (they drop constraints outside the
/// difference-bound fragment). The §5.3 operator sequence is identical
/// across the two — only the representation underneath changes.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_DOMAINS_LEIADOMAIN_H
#define PMAF_DOMAINS_LEIADOMAIN_H

#include "core/Domain.h"
#include "poly/Polyhedron.h"
#include "poly/Zones.h"

#include <optional>
#include <string>
#include <vector>

namespace pmaf {
namespace poly {

/// The names of two deleted backends, which the repository benchmark
/// (perfbench/driver.cpp) still spells in a switch branch that never runs.
/// The ladder denoted exactly the sets a Polyhedron does, and intervals map
/// to the one remaining sound cheap backend, as driver::withLeiaBox maps
/// their NumericBackend enumerators. Delete both with the benchmark's next
/// revision.
using LadderValue = Polyhedron;
using Intervals = Zones;

} // namespace poly

namespace domains {

/// A LEIA value: the product of an ordinary and an expectation component,
/// both of dimension 2n with vocabulary order (x_0..x_{n-1}, out_0..out_{n-1})
/// where `out` is x' in P and E[x'] in EP.
template <poly::NumericDomain NumV> struct LeiaValueT {
  NumV P;
  NumV EP;
  /// Cached 0 ⊔ EP (the comparison cone of §5.3); maintained by the
  /// domain's canonicalization so the frequent order tests need no joins.
  NumV ECone;
};

/// The LEIA interpretation I = <I, ⟦·⟧_I> (§5.3), generic over the
/// numeric backend.
template <poly::NumericDomain NumV> class LeiaDomainT {
public:
  using Value = LeiaValueT<NumV>;

  /// \param Prog program under analysis (all variables must be real-valued
  /// and are assumed nonnegative, after the paper's positive-negative
  /// decomposition).
  /// \param Tolerance relative tolerance of the fixpoint-detection
  /// comparison: the analogue of §6.1's reliance on ascending float chains
  /// stabilizing. Arithmetic stays exact; only `equal` is approximate, so
  /// geometrically-converging expectation chains (probabilistic loops and
  /// recursion) stop once successive iterates agree to this tolerance.
  explicit LeiaDomainT(const lang::Program &Prog, double Tolerance = 1e-9);

  unsigned numVars() const { return NumVars; }

  Value bottom() const;
  Value one() const;

  Value extend(const Value &A, const Value &B) const;
  Value condChoice(const lang::Cond &Phi, const Value &A,
                   const Value &B) const;
  Value probChoice(const Rational &P, const Value &A, const Value &B) const;
  Value ndetChoice(const Value &A, const Value &B) const;

  Value interpret(const lang::Stmt *Action) const;

  bool leq(const Value &A, const Value &B) const;
  bool equal(const Value &A, const Value &B) const;

  /// (P1, EP1) widenCond (P2, EP2) = (P1 widen P2, 0 ⊔ P2[E[x']/x'])
  /// — pessimistic, per Obs 5.7 (a loop invariant of the body need not
  /// hold on exit of a conditional loop).
  Value widenCond(const Value &Old, const Value &New) const;
  /// No EP extrapolation (§5.3: "does no extrapolation in the EP
  /// component").
  Value widenProb(const Value &Old, const Value &New) const;
  Value widenNdet(const Value &Old, const Value &New) const;
  /// Recursion cuts (seq/call-headed widening points): widen P, keep the
  /// new EP — rebuilding as for ndet loops would erase the expectation
  /// part of every recursive summary; stabilization of the EP chain comes
  /// from the §6.1 finite-precision mechanism, and any stabilized value is
  /// a sound prefixed point (Thm 4.6).
  Value widenCall(const Value &Old, const Value &New) const;

  /// The limit of a widening point's iterates \p History (oldest first),
  /// if their EPs follow a linear recurrence exactly (core::Extrapolates):
  /// minimal polynomial extrapolation over the canonical EP rows of the
  /// longest suffix of one shape, in exact rationals, with the newest
  /// iterate's P. Rounded iterates or changing shapes give nullopt, as
  /// does a non-linear chain such as a procedure calling itself twice.
  std::optional<Value> extrapolate(const std::vector<Value> &History) const;

  std::string toString(const Value &A) const;

  /// Human-readable expectation invariants of a summary, e.g.
  /// "E[x' + y'] == x + y + 3", ordered by the declaration index of the
  /// leading E-variable, then ==, >=, <=, so every exact backend prints
  /// the same lines in the same order.
  std::vector<std::string> describeInvariants(const Value &A) const;

  /// Bounds of E[Objective'] (a linear combination of post-vocabulary
  /// expectations with rational coefficients, one per variable) as a
  /// function evaluated at the concrete pre-state \p PreState. Returns
  /// {min, max} with nullopt for unbounded sides.
  std::pair<std::optional<Rational>, std::optional<Rational>>
  expectationBounds(const Value &A, const std::vector<Rational> &Objective,
                    const std::vector<Rational> &PreState) const;

  /// Fixpoint query hook for checks/Checker: bounds of E[Objective'] with
  /// the pre-vocabulary left unconstrained — {min, max} over every
  /// pre-state admitted by the analyzed support, nullopt for unbounded
  /// sides. Returns nullopt altogether when the value is bottom or the
  /// expectation slice is empty (the assertion point is unreachable /
  /// nonterminating: vacuously safe).
  std::optional<std::pair<std::optional<Rational>, std::optional<Rational>>>
  objectiveBounds(const Value &A,
                  const std::vector<Rational> &Objective) const;

  /// Snapshot of the numeric layer's process-wide counters
  /// (core::ReportsNumericStats); the solver turns these into per-solve
  /// deltas.
  static core::NumericLayerStats numericStats();

private:
  /// Meets \p P with the over-approximation of condition \p Phi on the
  /// pre-vocabulary ((negated ? ¬phi : phi)).
  NumV meetCond(const NumV &P, const lang::Cond &Phi, bool Negated) const;

  /// Copies the affine form of \p E (lang::affineForm) into the
  /// pre-vocabulary of a linear expression over 2n dims; nullopt if \p E is
  /// not affine.
  std::optional<poly::LinearExpr> exprToLinear(const lang::Expr &E) const;

  /// The "0" element: E[x'] = 0 with x unconstrained (footnote 5).
  NumV zeroExpectation() const;

  /// 0 ⊔ P[E[x']/x'] (the renaming is the identity in our layout).
  NumV rebuildFromSupport(const NumV &P) const;

  /// Restores the domain invariant and applies precision limiting; every
  /// public operation funnels its result through here.
  Value canonicalize(NumV P, NumV EP) const;

  /// The shared two-vocabulary lift: extends both operands by \p Extra
  /// fresh dimensions, renames them into a common layout, and meets.
  /// Composition (for the P *and* EP components alike) and
  /// probabilistic-choice both reduce to this one sequence, each with its
  /// own precomputed permutation pair.
  NumV liftedMeet(const NumV &A, const NumV &B, unsigned Extra,
                  const std::vector<unsigned> &PermA,
                  const std::vector<unsigned> &PermB) const;

  /// Relational composition of two 2n-dim two-vocabulary values by
  /// rename/meet/project through a fresh middle vocabulary.
  NumV composeRelations(const NumV &A, const NumV &B) const;

  /// Universe with nonnegativity on all 2n dimensions.
  NumV nonnegUniverse() const;

  const lang::Program *Prog;
  unsigned NumVars;
  double Tolerance;

  /// The rename schedules of the lift-based operators, computed once per
  /// domain instead of once per operation: composition works in 3n dims
  /// [x, y, t] (A relates x to t, B relates t to y); probabilistic choice
  /// in 4n dims [x, E, t1, t2] (branch expectations move to t1/t2).
  std::vector<unsigned> ComposePermA, ComposePermB;
  std::vector<unsigned> ProbPermA, ProbPermB;
};

// The template is explicitly instantiated (LeiaDomain.cpp) for the two
// numeric backends; everything else picks one of these.
extern template class LeiaDomainT<poly::Polyhedron>;
extern template class LeiaDomainT<poly::Zones>;

/// The default LEIA instantiation: monolithic polyhedra (`--numeric=poly`,
/// core::SolverOptions' default backend).
using LeiaValue = LeiaValueT<poly::Polyhedron>;
using LeiaDomain = LeiaDomainT<poly::Polyhedron>;

static_assert(core::PreMarkovAlgebra<LeiaDomainT<poly::Polyhedron>>,
              "LEIA over polyhedra must satisfy the PMA interface");
static_assert(core::PreMarkovAlgebra<LeiaDomainT<poly::Zones>>,
              "LEIA over zones must satisfy the PMA interface");
static_assert(core::ReportsNumericStats<LeiaDomain>,
              "LEIA must report numeric-layer stats to the solver");
static_assert(core::Extrapolates<LeiaDomain>,
              "LEIA must offer the solver extrapolated fixpoints");

} // namespace domains
} // namespace pmaf

#endif // PMAF_DOMAINS_LEIADOMAIN_H
