//===- domains/TerminationDomain.h - Termination probabilities -*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lower bounds on the probability of reaching the procedure exit, demonic
/// in nondeterministic and conditional choices; observe counts as
/// non-termination (examples/custom_domain.cpp explains each operation).
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_DOMAINS_TERMINATIONDOMAIN_H
#define PMAF_DOMAINS_TERMINATIONDOMAIN_H

#include "core/Domain.h"
#include "lang/Ast.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace pmaf {
namespace domains {

class TerminationDomain {
public:
  using Value = double;
  Value bottom() const { return 0.0; }
  Value one() const { return 1.0; }
  Value extend(const Value &A, const Value &B) const { return A * B; }
  Value condChoice(const lang::Cond &, const Value &A,
                   const Value &B) const {
    return std::min(A, B);
  }
  Value probChoice(const Rational &P, const Value &A, const Value &B) const {
    double Prob = P.toDouble();
    return Prob * A + (1.0 - Prob) * B;
  }
  Value ndetChoice(const Value &A, const Value &B) const {
    return std::min(A, B);
  }
  Value interpret(const lang::Stmt *Act) const {
    return Act && Act->kind() == lang::Stmt::Kind::Observe ? 0.0 : 1.0;
  }
  bool leq(const Value &A, const Value &B) const { return A <= B + 1e-12; }
  bool equal(const Value &A, const Value &B) const {
    return std::fabs(A - B) <= 1e-12;
  }
  Value widenCond(const Value &, const Value &New) const { return New; }
  Value widenProb(const Value &, const Value &New) const { return New; }
  Value widenNdet(const Value &, const Value &New) const { return New; }
  Value widenCall(const Value &, const Value &New) const { return New; }
  std::string toString(const Value &A) const { return std::to_string(A); }
};

} // namespace domains
} // namespace pmaf

#endif // PMAF_DOMAINS_TERMINATIONDOMAIN_H
