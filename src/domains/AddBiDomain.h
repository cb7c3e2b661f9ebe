//===- domains/AddBiDomain.h - ADD-backed Bayesian inference ----*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The extension §6.2 suggests: the Bayesian-inference PMA of §5.1 with
/// distribution transformers represented as algebraic decision diagrams
/// instead of dense 2^n x 2^n matrices ("One could use Algebraic Decision
/// Diagrams [2] as a compact representation to improve the efficiency").
///
/// A transformer over n Boolean variables is an ADD over 2n decision
/// levels, interleaved row-first: variable i contributes the pre-state
/// ("row") level 3i and the post-state ("column") level 3i+2; level 3i+1
/// is reserved as the contraction vocabulary of the matrix product
///
///   (A ⊗ B)(x, x') = sum_t A(x, t) * B(t, x'),
///
/// implemented by two monotone level renamings, a pointwise product, and
/// an existential sum — all polynomial in the diagram sizes.
///
/// The algebra is exactly BiDomain's (pointwise min for ⋓, row selection
/// for phi^, affine combination for p⊕), so the two implementations are
/// interchangeable and cross-checked against each other in the tests; the
/// bench compares their scaling in the number of program variables.
///
/// An AddManager is a single-threaded object, and so is the domain: one
/// solve at a time per instance.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_DOMAINS_ADDBIDOMAIN_H
#define PMAF_DOMAINS_ADDBIDOMAIN_H

#include "add/Add.h"
#include "core/Domain.h"
#include "domains/BoolStateSpace.h"
#include "linalg/Matrix.h"

#include <memory>
#include <string>
#include <vector>

namespace pmaf {
namespace domains {

/// Bayesian inference over ADD-represented distribution transformers.
class AddBiDomain {
public:
  using Value = add::NodeRef;

  explicit AddBiDomain(const BoolStateSpace &Space,
                       double Tolerance = 1e-12);

  Value bottom() const { return Mgr->zero(); }
  Value one() const { return Identity; }

  /// Matrix product via rename / multiply / sum-out.
  Value extend(const Value &A, const Value &B) const;

  /// Row selection by the truth of phi in the pre-state.
  Value condChoice(const lang::Cond &Phi, const Value &A,
                   const Value &B) const;

  Value probChoice(const Rational &P, const Value &A, const Value &B) const;

  Value ndetChoice(const Value &A, const Value &B) const;

  Value interpret(const lang::Stmt *Action) const;

  bool leq(const Value &A, const Value &B) const;
  bool equal(const Value &A, const Value &B) const;

  Value widenCond(const Value &, const Value &New) const { return New; }
  Value widenProb(const Value &, const Value &New) const { return New; }
  Value widenNdet(const Value &, const Value &New) const { return New; }
  Value widenCall(const Value &, const Value &New) const { return New; }

  std::string toString(const Value &A) const;

  /// Posterior over post-states from a dense prior over pre-states.
  std::vector<double> posterior(const Value &Summary,
                                const std::vector<double> &Prior) const;

  /// Expands to the dense matrix (test/debug; exponential in n).
  Matrix toMatrix(const Value &A) const;

  /// The Boolean state space the domain was built over (checks/Checker
  /// expands assertion-site summaries against it).
  const BoolStateSpace &space() const { return *Space; }

  /// Diagram size of a value (the compactness measure of the bench).
  size_t nodeCount(const Value &A) const;

private:
  unsigned rowLevel(unsigned Var) const { return 3 * Var; }
  unsigned midLevel(unsigned Var) const { return 3 * Var + 1; }
  unsigned colLevel(unsigned Var) const { return 3 * Var + 2; }

  add::NodeRef condIndicator(const lang::Cond &Phi) const;
  add::NodeRef exprIndicator(const lang::Expr &E) const;
  add::NodeRef equalsFactor(unsigned Var, add::NodeRef RhsIndicator) const;
  add::NodeRef bernoulliFactor(unsigned Var, double P) const;
  add::NodeRef frameFactor(unsigned SkipVar) const;

  const BoolStateSpace *Space;
  /// Mutable because apply caching and hash-consing are internal state.
  mutable std::unique_ptr<add::AddManager> Mgr;
  add::NodeRef Identity = 0;
  double Tolerance;
};

static_assert(core::PreMarkovAlgebra<AddBiDomain>,
              "AddBiDomain must satisfy the PMA interface");

} // namespace domains
} // namespace pmaf

#endif // PMAF_DOMAINS_ADDBIDOMAIN_H
