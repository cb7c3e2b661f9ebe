//===- lang/PosNegDecompose.cpp - Positive-negative decomposition ---------===//

#include "lang/PosNegDecompose.h"

#include <cassert>
#include <optional>
#include <vector>

using namespace pmaf;
using namespace pmaf::lang;

namespace {

class Decomposer {
public:
  explicit Decomposer(const Program &Original) : Original(Original) {}

  DecomposeResult run() {
    DecomposeResult Result;
    auto Out = std::make_unique<Program>();
    for (const VarInfo &Var : Original.Vars) {
      if (!Var.IsReal) {
        Result.Error = "positive-negative decomposition applies to "
                       "real-valued programs only";
        return Result;
      }
      Out->Vars.push_back(VarInfo{Var.Name + "__p", true, {}});
      Out->Vars.push_back(VarInfo{Var.Name + "__n", true, {}});
    }
    NumOriginal = static_cast<unsigned>(Original.Vars.size());
    TempIndex = 2 * NumOriginal;      // __t: sampling offset
    ScratchP = 2 * NumOriginal + 1;   // __s: staged positive component
    ScratchN = 2 * NumOriginal + 2;   // __u: staged negative component
    Out->Vars.push_back(VarInfo{"__t", true, {}});
    Out->Vars.push_back(VarInfo{"__s", true, {}});
    Out->Vars.push_back(VarInfo{"__u", true, {}});

    for (const Procedure &Proc : Original.Procs) {
      Stmt::Ptr Body = rewriteStmt(*Proc.Body);
      if (!Error.empty()) {
        Result.Error = Error;
        return Result;
      }
      Out->Procs.push_back(Procedure{Proc.Name, std::move(Body), {}});
    }
    Result.Prog = std::move(Out);
    return Result;
  }

private:
  //===--------------------------------------------------------------------===//
  // Affine forms
  //===--------------------------------------------------------------------===//

  /// Builds the nonnegative half of an affine form over the original
  /// variables, plus the sampling temporary __t when \p PlusTemp: positive
  /// coefficients go to the __p component, negative ones to the __n
  /// component (and vice versa when \p Negative).
  Expr::Ptr halfExpr(const AffineForm &Form, bool Negative,
                     bool PlusTemp = false) const {
    Expr::Ptr Acc;
    auto AddTerm = [&Acc](Rational Coeff, unsigned VarIndex) {
      if (Coeff.isZero())
        return;
      Expr::Ptr Term = Expr::makeBinary(
          Expr::Kind::Mul, Expr::makeNumber(std::move(Coeff)),
          Expr::makeVar(VarIndex));
      Acc = Acc ? Expr::makeBinary(Expr::Kind::Add, std::move(Acc),
                                   std::move(Term))
                : std::move(Term);
    };
    for (unsigned I = 0; I != NumOriginal; ++I) {
      const Rational &A = Form.Coeffs[I];
      Rational Pos = A.sign() > 0 ? A : Rational(0);
      Rational Neg = A.sign() < 0 ? -A : Rational(0);
      // x_i = x_i__p - x_i__n; contributing sign selects the component.
      AddTerm(Negative ? Neg : Pos, 2 * I);     // coeff for x_i__p
      AddTerm(Negative ? Pos : Neg, 2 * I + 1); // coeff for x_i__n
    }
    // __t is itself a nonnegative variable (not decomposed), so a +__t
    // term lands in the positive half.
    if (PlusTemp && !Negative)
      AddTerm(Rational(1), TempIndex);
    Rational C = Form.Constant;
    Rational Wanted = Negative ? (C.sign() < 0 ? -C : Rational(0))
                               : (C.sign() > 0 ? C : Rational(0));
    if (!Wanted.isZero() || !Acc)
      Acc = Acc ? Expr::makeBinary(Expr::Kind::Add, std::move(Acc),
                                   Expr::makeNumber(std::move(Wanted)))
                : Expr::makeNumber(std::move(Wanted));
    return Acc;
  }

  /// Rewrites an expression by substituting x_i -> x_i__p - x_i__n
  /// (for conditions and nonlinear contexts).
  Expr::Ptr substExpr(const Expr &E) const {
    switch (E.kind()) {
    case Expr::Kind::Var:
      return Expr::makeBinary(Expr::Kind::Sub,
                              Expr::makeVar(2 * E.varIndex()),
                              Expr::makeVar(2 * E.varIndex() + 1));
    case Expr::Kind::Number:
      return Expr::makeNumber(E.number());
    case Expr::Kind::BoolLit:
      return Expr::makeBool(E.boolValue());
    default:
      return Expr::makeBinary(E.kind(), substExpr(E.lhs()),
                              substExpr(E.rhs()));
    }
  }

  Cond::Ptr substCond(const Cond &C) const {
    switch (C.kind()) {
    case Cond::Kind::True:
      return Cond::makeTrue();
    case Cond::Kind::False:
      return Cond::makeFalse();
    case Cond::Kind::BoolVar:
      assert(false && "no Boolean variables in a real program");
      return Cond::makeTrue();
    case Cond::Kind::Cmp:
      return Cond::makeCmp(C.cmpOp(), substExpr(C.cmpLhs()),
                           substExpr(C.cmpRhs()));
    case Cond::Kind::Not:
      return Cond::makeNot(substCond(C.operand()));
    case Cond::Kind::And:
      return Cond::makeAnd(substCond(C.lhs()), substCond(C.rhs()));
    case Cond::Kind::Or:
      return Cond::makeOr(substCond(C.lhs()), substCond(C.rhs()));
    }
    assert(false && "unknown condition kind");
    return Cond::makeTrue();
  }

  Guard rewriteGuard(const Guard &G) const {
    Guard Out;
    Out.TheKind = G.TheKind;
    Out.Prob = G.Prob;
    if (G.Phi)
      Out.Phi = substCond(*G.Phi);
    return Out;
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  /// Emits `__s := pos(Form); __u := neg(Form); x__p := __s; x__n := __u`
  /// (staging through scratch variables so self-references read the old
  /// components).
  void emitSplitAssign(std::vector<Stmt::Ptr> &Out, unsigned Target,
                       const AffineForm &Form, bool PlusTemp = false) const {
    Out.push_back(
        Stmt::makeAssign(ScratchP, halfExpr(Form, false, PlusTemp)));
    Out.push_back(Stmt::makeAssign(ScratchN, halfExpr(Form, true, PlusTemp)));
    Out.push_back(Stmt::makeAssign(2 * Target, Expr::makeVar(ScratchP)));
    Out.push_back(
        Stmt::makeAssign(2 * Target + 1, Expr::makeVar(ScratchN)));
  }

  void rewriteAssign(std::vector<Stmt::Ptr> &Out, const Stmt &S) {
    std::optional<AffineForm> Form = affineForm(S.value(), NumOriginal);
    if (!Form) {
      Error = "nonlinear assignment cannot be decomposed: " +
              toString(S.value(), Original);
      return;
    }
    emitSplitAssign(Out, S.varIndex(), *Form);
  }

  void rewriteSample(std::vector<Stmt::Ptr> &Out, const Stmt &S) {
    const Dist &D = S.dist();
    unsigned X = S.varIndex();
    switch (D.TheKind) {
    case Dist::Kind::Bernoulli: {
      // Support {0, 1} is already nonnegative: x__p ~ D, x__n := 0.
      Dist Sub;
      Sub.TheKind = D.TheKind;
      Sub.Params.push_back(substExpr(*D.Params[0]));
      Out.push_back(Stmt::makeSample(2 * X, std::move(Sub)));
      Out.push_back(
          Stmt::makeAssign(2 * X + 1, Expr::makeNumber(Rational(0))));
      return;
    }
    case Dist::Kind::Uniform:
    case Dist::Kind::UniformInt: {
      // x ~ D(lo, hi)  ~>  __t ~ D(0, hi - lo); x := lo + __t.
      std::optional<AffineForm> Lo = affineForm(*D.Params[0], NumOriginal);
      std::optional<AffineForm> Hi = affineForm(*D.Params[1], NumOriginal);
      if (!Lo || !Hi) {
        Error = "sampling with nonlinear bounds cannot be decomposed";
        return;
      }
      AffineForm Span = *Hi;
      for (unsigned I = 0; I != NumOriginal; ++I)
        Span.Coeffs[I] -= Lo->Coeffs[I];
      Span.Constant -= Lo->Constant;
      Dist Offset;
      Offset.TheKind = D.TheKind;
      Offset.Params.push_back(Expr::makeNumber(Rational(0)));
      // The span hi - lo is nonnegative by the semantics of the original
      // program, so the substituted expression is a valid upper bound.
      Offset.Params.push_back(halfExprAsSignedExpr(Span));
      Out.push_back(Stmt::makeSample(TempIndex, std::move(Offset)));
      emitSplitAssign(Out, X, *Lo, /*PlusTemp=*/true);
      return;
    }
    case Dist::Kind::Discrete: {
      // Shift the (constant) support into the nonnegative range:
      // x__p ~ D + M, x__n := M with M = max(0, -min support).
      Rational Min;
      bool First = true;
      for (const Expr::Ptr &V : D.Params) {
        Rational Value = V->number();
        if (First || Value < Min)
          Min = Value;
        First = false;
      }
      Rational Shift = Min.sign() < 0 ? -Min : Rational(0);
      Dist Shifted;
      Shifted.TheKind = Dist::Kind::Discrete;
      Shifted.Weights = D.Weights;
      for (const Expr::Ptr &V : D.Params)
        Shifted.Params.push_back(Expr::makeNumber(V->number() + Shift));
      Out.push_back(Stmt::makeSample(2 * X, std::move(Shifted)));
      Out.push_back(
          Stmt::makeAssign(2 * X + 1, Expr::makeNumber(Shift)));
      return;
    }
    case Dist::Kind::Gaussian:
      Error = "Gaussian support is unbounded below and cannot be "
              "shifted into the nonnegative range";
      return;
    }
    assert(false && "unknown distribution kind");
  }

  /// Renders a signed linear form as a (possibly negative) expression over
  /// the decomposed variables: pos-half minus neg-half.
  Expr::Ptr halfExprAsSignedExpr(const AffineForm &Form) const {
    return Expr::makeBinary(Expr::Kind::Sub, halfExpr(Form, false),
                            halfExpr(Form, true));
  }

  Stmt::Ptr rewriteStmt(const Stmt &S) {
    switch (S.kind()) {
    case Stmt::Kind::Skip:
      return Stmt::makeSkip();
    case Stmt::Kind::Reward:
      return Stmt::makeReward(S.reward());
    case Stmt::Kind::Break:
      return Stmt::makeBreak();
    case Stmt::Kind::Continue:
      return Stmt::makeContinue();
    case Stmt::Kind::Return:
      return Stmt::makeReturn();
    case Stmt::Kind::Call: {
      Stmt::Ptr Out = Stmt::makeCall(S.callee());
      Out->setCalleeIndex(S.calleeIndex());
      return Out;
    }
    case Stmt::Kind::Observe:
      return Stmt::makeObserve(substCond(S.observed()));
    case Stmt::Kind::Assert: {
      Stmt::Ptr Out;
      switch (S.assertKind()) {
      case AssertKind::Prob:
        Out = Stmt::makeAssertProb(substCond(S.assertCond()), S.assertOp(),
                                   S.assertBound());
        break;
      case AssertKind::Reward:
        Out = Stmt::makeAssertReward(S.assertOp(), S.assertBound());
        break;
      case AssertKind::Interval:
        Out = Stmt::makeAssertInterval(substExpr(S.assertTarget()),
                                       S.assertLo(), S.assertHi());
        break;
      }
      Out->setLoc(S.loc());
      return Out;
    }
    case Stmt::Kind::Assign: {
      std::vector<Stmt::Ptr> Out;
      rewriteAssign(Out, S);
      return Stmt::makeBlock(std::move(Out));
    }
    case Stmt::Kind::Sample: {
      std::vector<Stmt::Ptr> Out;
      rewriteSample(Out, S);
      return Stmt::makeBlock(std::move(Out));
    }
    case Stmt::Kind::Block: {
      std::vector<Stmt::Ptr> Out;
      for (const Stmt::Ptr &Child : S.stmts())
        Out.push_back(rewriteStmt(*Child));
      return Stmt::makeBlock(std::move(Out));
    }
    case Stmt::Kind::If: {
      Stmt::Ptr Then = rewriteStmt(S.thenStmt());
      Stmt::Ptr Else =
          S.elseStmt() ? rewriteStmt(*S.elseStmt()) : nullptr;
      return Stmt::makeIf(rewriteGuard(S.guard()), std::move(Then),
                          std::move(Else));
    }
    case Stmt::Kind::While:
      return Stmt::makeWhile(rewriteGuard(S.guard()),
                             rewriteStmt(S.body()));
    }
    assert(false && "unknown statement kind");
    return Stmt::makeSkip();
  }

  const Program &Original;
  unsigned NumOriginal = 0;
  unsigned TempIndex = 0, ScratchP = 0, ScratchN = 0;
  std::string Error;
};

} // namespace

DecomposeResult lang::decomposePosNeg(const Program &Prog) {
  return Decomposer(Prog).run();
}
