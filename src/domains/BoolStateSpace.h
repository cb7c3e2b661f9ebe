//===- domains/BoolStateSpace.h - Boolean-program state spaces --*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// State-space helpers for Boolean programs (§5.1): states are assignments
/// Var -> B, encoded as bitmasks over the program's Boolean variables, so a
/// program with n Boolean variables has 2^n states. Shared by the
/// Bayesian-inference domain, the concrete kernel semantics, and the
/// Claret-et-al.-style forward baseline.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_DOMAINS_BOOLSTATESPACE_H
#define PMAF_DOMAINS_BOOLSTATESPACE_H

#include "lang/Ast.h"

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

namespace pmaf {
namespace domains {

/// Bitmask view of the Boolean variables of a program.
class BoolStateSpace {
public:
  /// Builds the space over all Boolean variables of \p Prog; asserts the
  /// program has no real-valued variables (BI is a Boolean-program
  /// analysis) and at most MaxVars Booleans.
  explicit BoolStateSpace(const lang::Program &Prog);

  static constexpr unsigned MaxVars = 12;

  const lang::Program &program() const { return *Prog; }
  unsigned numVars() const { return NumVars; }
  size_t numStates() const { return size_t(1) << NumVars; }

  bool get(size_t State, unsigned VarIndex) const {
    return (State >> VarIndex) & 1;
  }
  size_t set(size_t State, unsigned VarIndex, bool Value) const {
    size_t Bit = size_t(1) << VarIndex;
    return Value ? (State | Bit) : (State & ~Bit);
  }

  /// Evaluates a Boolean-program expression (Boolean literal or variable)
  /// in \p State.
  bool evalExpr(const lang::Expr &E, size_t State) const;

  /// Evaluates a logical condition in \p State.
  bool evalCond(const lang::Cond &C, size_t State) const;

  /// Renders a state as e.g. "{b1=T, b2=F}".
  std::string stateToString(size_t State) const;

private:
  const lang::Program *Prog;
  unsigned NumVars = 0;
};

} // namespace domains
} // namespace pmaf

#endif // PMAF_DOMAINS_BOOLSTATESPACE_H
