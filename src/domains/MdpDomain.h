//===- domains/MdpDomain.h - Markov decision processes with rewards -------===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PMA R of §5.2 for the maximum-expected-reward problem of (recursive)
/// Markov decision processes:
///
///   M_R = [0, ∞]   ⊑ = ≤   ⊗ = +   phi^ = max   p⊕ = affine   ⋓ = max
///   ⊥ = 0          1 = 0
///
/// A program value at node v is (an upper bound on) the greatest expected
/// reward obtainable by executing from v to the procedure exit, maximizing
/// over nondeterministic choices. MDPs are single-procedure programs whose
/// only data action is `reward(r)` (Defn 5.3); the domain nevertheless
/// tolerates the other data actions (they carry no reward) so that reward
/// annotations can be embedded in richer programs.
///
/// Widening is the paper's trivial one: if a widening point keeps growing
/// after the solver's widening delay, the value jumps to +∞ (sound for an
/// over-abstraction).
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_DOMAINS_MDPDOMAIN_H
#define PMAF_DOMAINS_MDPDOMAIN_H

#include "core/Domain.h"
#include "lang/Ast.h"

#include <limits>
#include <string>

namespace pmaf {
namespace domains {

/// The max-expected-reward interpretation R = <R, ⟦·⟧_R> (§5.2).
class MdpDomain {
public:
  using Value = double;

  /// \param Tolerance two values within this distance are considered equal
  /// (ascending float chains then stabilize, §6.1).
  explicit MdpDomain(double Tolerance = 1e-12) : Tolerance(Tolerance) {}

  Value bottom() const { return 0.0; }
  Value one() const { return 0.0; }

  Value extend(const Value &A, const Value &B) const { return A + B; }

  Value condChoice(const lang::Cond &Phi, const Value &A,
                   const Value &B) const {
    // MDPs have no conditional-choice (Defn 5.3); max over both branches
    // is the sound reading if one occurs anyway.
    (void)Phi;
    return A > B ? A : B;
  }

  Value probChoice(const Rational &P, const Value &A, const Value &B) const {
    double Prob = P.toDouble();
    return Prob * A + (1.0 - Prob) * B;
  }

  Value ndetChoice(const Value &A, const Value &B) const {
    return A > B ? A : B;
  }

  /// ⟦reward(r)⟧ = r; every other data action has reward 0 (= 1_R).
  Value interpret(const lang::Stmt *Action) const {
    if (Action && Action->kind() == lang::Stmt::Kind::Reward)
      return Action->reward().toDouble();
    return 0.0;
  }

  bool leq(const Value &A, const Value &B) const {
    return A <= B + Tolerance;
  }
  bool equal(const Value &A, const Value &B) const {
    if (A == B)
      return true; // Covers +∞ == +∞.
    double Diff = A > B ? A - B : B - A;
    return Diff <= Tolerance;
  }

  /// Trivial widening (§5.2): extrapolate any strict growth to +∞.
  Value widen(const Value &Old, const Value &New) const {
    if (New > Old + Tolerance)
      return std::numeric_limits<double>::infinity();
    return New;
  }
  Value widenCond(const Value &Old, const Value &New) const {
    return widen(Old, New);
  }
  Value widenProb(const Value &Old, const Value &New) const {
    return widen(Old, New);
  }
  Value widenNdet(const Value &Old, const Value &New) const {
    return widen(Old, New);
  }
  Value widenCall(const Value &Old, const Value &New) const {
    return widen(Old, New);
  }

  std::string toString(const Value &A) const { return std::to_string(A); }

private:
  double Tolerance;
};

static_assert(core::PreMarkovAlgebra<MdpDomain>,
              "MdpDomain must satisfy the PMA interface");

} // namespace domains
} // namespace pmaf

#endif // PMAF_DOMAINS_MDPDOMAIN_H
