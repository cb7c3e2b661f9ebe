//===- lang/Ast.h - Probabilistic imperative language AST -------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax for the paper's prototypical imperative probabilistic
/// language (§2.1 and Fig 4): data actions (assignment, sampling, skip,
/// observe, reward), logical conditions, and statements with three kinds of
/// binary choice — conditional (`if (phi)`), probabilistic (`if prob(p)`),
/// and nondeterministic (`if star`) — plus loops, procedure calls, and the
/// unstructured `break` / `continue` / `return` of Ex 3.4.
///
/// Variables are global (the paper's kernels act on a single state space
/// Omega = Var -> values); each is Boolean or real-valued.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_LANG_AST_H
#define PMAF_LANG_AST_H

#include "support/Diagnostics.h"
#include "support/Rational.h"

#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace pmaf {
namespace lang {

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// An arithmetic or Boolean-literal expression (Exp of Fig 4).
class Expr {
public:
  enum class Kind { Var, Number, BoolLit, Add, Sub, Mul, Div };

  using Ptr = std::unique_ptr<Expr>;

  static Ptr makeVar(unsigned VarIndex);
  static Ptr makeNumber(Rational Value);
  static Ptr makeBool(bool Value);
  static Ptr makeBinary(Kind Op, Ptr Lhs, Ptr Rhs);

  Kind kind() const { return TheKind; }
  bool isBinary() const { return TheKind >= Kind::Add; }

  unsigned varIndex() const {
    assert(TheKind == Kind::Var && "not a variable");
    return VarIndex;
  }
  const Rational &number() const {
    assert(TheKind == Kind::Number && "not a number");
    return Value;
  }
  bool boolValue() const {
    assert(TheKind == Kind::BoolLit && "not a Boolean literal");
    return BoolValue;
  }
  const Expr &lhs() const {
    assert(isBinary() && "not a binary expression");
    return *Lhs;
  }
  const Expr &rhs() const {
    assert(isBinary() && "not a binary expression");
    return *Rhs;
  }

  /// Source position of the expression's first token (unknown for
  /// programmatically built ASTs).
  SourceLoc loc() const { return Loc; }
  void setLoc(SourceLoc L) { Loc = L; }

  Ptr clone() const;

private:
  Expr() = default;

  Kind TheKind = Kind::Number;
  unsigned VarIndex = 0;
  Rational Value;
  bool BoolValue = false;
  Ptr Lhs, Rhs;
  SourceLoc Loc;
};

/// \returns the value of \p E when it folds to a rational constant: it
/// contains no variable, no Boolean literal and no division by zero.
std::optional<Rational> foldConstant(const Expr &E);

/// An affine form Constant + sum Coeffs[i] * x_i over the program
/// variables.
struct AffineForm {
  std::vector<Rational> Coeffs;
  Rational Constant;
};

/// \returns \p E as an affine form over \p NumVars variables, or nullopt
/// when it is not affine. A factor of `*`, or a divisor, counts as a scalar
/// when its own form has no variable term, so `1/2 * x`, `x / (1 + 1)` and
/// `(x - x) * y` are affine; `x * y`, `x / y`, `x / (1 - 1)` and Boolean
/// literals are not. This is the one reading of arithmetic shared by the
/// LEIA transfer functions, the checker and the §6.2 decomposition.
std::optional<AffineForm> affineForm(const Expr &E, unsigned NumVars);

//===----------------------------------------------------------------------===//
// Logical conditions
//===----------------------------------------------------------------------===//

/// Comparison operators for atomic conditions (Fig 4 allows =, <=, >=; we
/// additionally accept <, >, and != and let domains over-approximate).
enum class CmpOp { Eq, Ne, Le, Ge, Lt, Gt };

/// A logical condition (L of Fig 4), closed under negation, conjunction,
/// and disjunction; atoms are comparisons of expressions, Boolean
/// variables, and the constants true/false.
class Cond {
public:
  enum class Kind { True, False, BoolVar, Cmp, Not, And, Or };

  using Ptr = std::unique_ptr<Cond>;

  static Ptr makeTrue();
  static Ptr makeFalse();
  static Ptr makeBoolVar(unsigned VarIndex);
  static Ptr makeCmp(CmpOp Op, Expr::Ptr Lhs, Expr::Ptr Rhs);
  static Ptr makeNot(Ptr Operand);
  static Ptr makeAnd(Ptr Lhs, Ptr Rhs);
  static Ptr makeOr(Ptr Lhs, Ptr Rhs);

  Kind kind() const { return TheKind; }

  unsigned varIndex() const {
    assert(TheKind == Kind::BoolVar && "not a Boolean variable");
    return VarIndex;
  }
  CmpOp cmpOp() const {
    assert(TheKind == Kind::Cmp && "not a comparison");
    return Op;
  }
  const Expr &cmpLhs() const {
    assert(TheKind == Kind::Cmp && "not a comparison");
    return *CmpLhs;
  }
  const Expr &cmpRhs() const {
    assert(TheKind == Kind::Cmp && "not a comparison");
    return *CmpRhs;
  }
  const Cond &operand() const {
    assert(TheKind == Kind::Not && "not a negation");
    return *Lhs;
  }
  const Cond &lhs() const {
    assert((TheKind == Kind::And || TheKind == Kind::Or) && "not binary");
    return *Lhs;
  }
  const Cond &rhs() const {
    assert((TheKind == Kind::And || TheKind == Kind::Or) && "not binary");
    return *Rhs;
  }

  /// Source position of the condition's first token (unknown for
  /// programmatically built ASTs).
  SourceLoc loc() const { return Loc; }
  void setLoc(SourceLoc L) { Loc = L; }

  Ptr clone() const;

private:
  Cond() = default;

  Kind TheKind = Kind::True;
  unsigned VarIndex = 0;
  CmpOp Op = CmpOp::Eq;
  Expr::Ptr CmpLhs, CmpRhs;
  Ptr Lhs, Rhs;
  SourceLoc Loc;
};

//===----------------------------------------------------------------------===//
// Distributions
//===----------------------------------------------------------------------===//

/// A primitive distribution usable on the right of `x ~ D` (Dist of Fig 4).
/// Parameters are expressions, so e.g. `uniform(x, x + 2)` is allowed.
struct Dist {
  enum class Kind { Bernoulli, Uniform, Gaussian, UniformInt, Discrete };

  Kind TheKind = Kind::Bernoulli;
  /// Bernoulli: {p}; Uniform/UniformInt: {lo, hi}; Gaussian: {mean, stddev};
  /// Discrete: values (parallel to Weights).
  std::vector<Expr::Ptr> Params;
  /// Discrete only: probability of each corresponding entry of Params.
  std::vector<Rational> Weights;

  /// Source position of the distribution name.
  SourceLoc Loc;

  Dist clone() const;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// The three guard kinds of a branch or loop (§2.1): conditional-choice
/// `(phi)`, probabilistic-choice `prob(p)`, and nondeterministic-choice
/// `star`.
struct Guard {
  enum class Kind { Cond, Prob, Ndet };

  Kind TheKind = Kind::Ndet;
  Cond::Ptr Phi;  ///< Kind::Cond only.
  Rational Prob;  ///< Kind::Prob only; in [0, 1].
  SourceLoc Loc;  ///< Source position of the guard's first token.

  Guard clone() const;
};

/// The property class of an `assert_*` statement (checks/Checker.h turns
/// the solver fixpoint at the assertion's node into a verdict for it).
enum class AssertKind {
  Prob,     ///< assert_prob(phi) >= p / <= p — post-distribution mass.
  Reward,   ///< assert_reward >= r / <= r — expected reward to exit.
  Interval  ///< assert_interval(e, lo, hi) — expected value of e.
};

/// A statement.
class Stmt {
public:
  enum class Kind {
    Skip,
    Assign,   ///< x := e
    Sample,   ///< x ~ D
    Observe,  ///< observe(phi)
    Reward,   ///< reward(r)   (Defn 5.3 MDP reward action)
    Assert,   ///< assert_prob / assert_reward / assert_interval
    Block,    ///< { s1; ...; sn }
    If,       ///< if <guard> {..} else {..}
    While,    ///< while <guard> {..}
    Call,     ///< p()
    Break,
    Continue,
    Return
  };

  using Ptr = std::unique_ptr<Stmt>;

  static Ptr makeSkip();
  static Ptr makeAssign(unsigned VarIndex, Expr::Ptr Value);
  static Ptr makeSample(unsigned VarIndex, Dist D);
  static Ptr makeObserve(Cond::Ptr Phi);
  static Ptr makeReward(Rational Amount);
  static Ptr makeAssertProb(Cond::Ptr Phi, CmpOp Op, Rational Bound);
  static Ptr makeAssertReward(CmpOp Op, Rational Bound);
  static Ptr makeAssertInterval(Expr::Ptr Target, Rational Lo, Rational Hi);
  static Ptr makeBlock(std::vector<Ptr> Stmts);
  static Ptr makeIf(Guard G, Ptr Then, Ptr Else);
  static Ptr makeWhile(Guard G, Ptr Body);
  static Ptr makeCall(std::string Callee);
  static Ptr makeBreak();
  static Ptr makeContinue();
  static Ptr makeReturn();

  Kind kind() const { return TheKind; }

  unsigned varIndex() const {
    assert((TheKind == Kind::Assign || TheKind == Kind::Sample) &&
           "statement has no target variable");
    return VarIndex;
  }
  const Expr &value() const {
    assert(TheKind == Kind::Assign && "not an assignment");
    return *Value;
  }
  const Dist &dist() const {
    assert(TheKind == Kind::Sample && "not a sampling statement");
    return TheDist;
  }
  const Cond &observed() const {
    assert(TheKind == Kind::Observe && "not an observe statement");
    return *Phi;
  }
  const Rational &reward() const {
    assert(TheKind == Kind::Reward && "not a reward statement");
    return Amount;
  }
  AssertKind assertKind() const {
    assert(TheKind == Kind::Assert && "not an assert statement");
    return TheAssertKind;
  }
  /// The predicate of an `assert_prob` assertion.
  const Cond &assertCond() const {
    assert(TheKind == Kind::Assert && TheAssertKind == AssertKind::Prob &&
           "not a probability assertion");
    return *Phi;
  }
  /// The comparison (Le or Ge only) of a prob/reward assertion.
  CmpOp assertOp() const {
    assert(TheKind == Kind::Assert && TheAssertKind != AssertKind::Interval &&
           "assertion has no comparison operator");
    return AssertOp;
  }
  /// The bound of a prob/reward assertion.
  const Rational &assertBound() const {
    assert(TheKind == Kind::Assert && TheAssertKind != AssertKind::Interval &&
           "assertion has no scalar bound");
    return Amount;
  }
  /// The asserted expression of an `assert_interval` assertion.
  const Expr &assertTarget() const {
    assert(TheKind == Kind::Assert && TheAssertKind == AssertKind::Interval &&
           "not an interval assertion");
    return *Value;
  }
  const Rational &assertLo() const {
    assert(TheKind == Kind::Assert && TheAssertKind == AssertKind::Interval &&
           "not an interval assertion");
    return Lo;
  }
  const Rational &assertHi() const {
    assert(TheKind == Kind::Assert && TheAssertKind == AssertKind::Interval &&
           "not an interval assertion");
    return Hi;
  }
  const std::vector<Ptr> &stmts() const {
    assert(TheKind == Kind::Block && "not a block");
    return Stmts;
  }
  const Guard &guard() const {
    assert((TheKind == Kind::If || TheKind == Kind::While) && "no guard");
    return TheGuard;
  }
  const Stmt &thenStmt() const {
    assert(TheKind == Kind::If && "not an if");
    return *Then;
  }
  /// \returns the else branch, or null when absent (implicit skip).
  const Stmt *elseStmt() const {
    assert(TheKind == Kind::If && "not an if");
    return Else.get();
  }
  const Stmt &body() const {
    assert(TheKind == Kind::While && "not a while");
    return *Then;
  }
  const std::string &callee() const {
    assert(TheKind == Kind::Call && "not a call");
    return Callee;
  }
  /// Index of the callee procedure; resolved by Sema.
  unsigned calleeIndex() const {
    assert(TheKind == Kind::Call && "not a call");
    return CalleeIndex;
  }
  void setCalleeIndex(unsigned Index) {
    assert(TheKind == Kind::Call && "not a call");
    CalleeIndex = Index;
  }

  /// Source position of the statement's first token (unknown for
  /// programmatically built ASTs).
  SourceLoc loc() const { return Loc; }
  void setLoc(SourceLoc L) { Loc = L; }

private:
  Stmt() = default;

  Kind TheKind = Kind::Skip;
  unsigned VarIndex = 0;
  Expr::Ptr Value;
  Dist TheDist;
  Cond::Ptr Phi;
  Rational Amount;
  AssertKind TheAssertKind = AssertKind::Prob;
  CmpOp AssertOp = CmpOp::Ge;
  Rational Lo, Hi;
  std::vector<Ptr> Stmts;
  Guard TheGuard;
  Ptr Then, Else;
  std::string Callee;
  unsigned CalleeIndex = 0;
  SourceLoc Loc;
};

//===----------------------------------------------------------------------===//
// Programs
//===----------------------------------------------------------------------===//

/// A program variable: Boolean (BI programs) or nonnegative-real (LEIA/MDP
/// programs; §5.3 assumes nonnegative variables after the paper's
/// positive-negative decomposition).
struct VarInfo {
  std::string Name;
  bool IsReal = false;
  SourceLoc Loc; ///< Position of the declaring identifier.
};

/// A procedure (no parameters; state is global, as in the paper's model).
struct Procedure {
  std::string Name;
  Stmt::Ptr Body;
  SourceLoc Loc; ///< Position of the procedure name.
};

/// A whole program: variable declarations plus procedures. The procedure
/// named "main" (or the first one) is the analysis entry.
struct Program {
  std::vector<VarInfo> Vars;
  std::vector<Procedure> Procs;

  /// \returns the index of variable \p Name, or ~0u when undeclared.
  unsigned findVar(const std::string &Name) const;

  /// \returns the index of procedure \p Name, or ~0u when undefined.
  unsigned findProc(const std::string &Name) const;

  /// \returns the number of call statements in the program.
  unsigned countCalls() const;
};

/// Pretty-prints back to (parseable) surface syntax.
std::string toString(const Expr &E, const Program &P);
std::string toString(const Cond &C, const Program &P);
std::string toString(const Dist &D, const Program &P);
std::string toString(const Stmt &S, const Program &P, unsigned Indent = 0);
std::string toString(const Program &P);

} // namespace lang
} // namespace pmaf

#endif // PMAF_LANG_AST_H
