//===- checks/Fuzz.cpp - Assertion planting and soundness oracles ---------===//

#include "checks/Fuzz.h"

#include "concrete/Interpreter.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <utility>

using namespace pmaf;
using namespace pmaf::checks;
using namespace pmaf::checks::fuzz;
using namespace pmaf::lang;

namespace {

unsigned mainProcIndex(const Program &Prog) {
  unsigned M = Prog.findProc("main");
  return M == ~0u ? 0 : M;
}

std::string fmt(double X) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6g", X);
  return Buf;
}

/// A small random predicate over the Boolean variables of \p Prog (one or
/// two atoms; depth is kept tiny so the asserted mass is rarely trivial).
Cond::Ptr randomPlantCond(Rng &R, const Program &Prog) {
  std::vector<unsigned> Bools;
  for (unsigned I = 0; I != Prog.Vars.size(); ++I)
    if (!Prog.Vars[I].IsReal)
      Bools.push_back(I);
  if (Bools.empty())
    return Cond::makeTrue();
  auto Pick = [&] {
    return Cond::makeBoolVar(
        Bools[static_cast<size_t>(R.below(Bools.size()))]);
  };
  switch (R.below(4)) {
  case 0:
    return Pick();
  case 1:
    return Cond::makeNot(Pick());
  case 2:
    return Cond::makeAnd(Pick(), Pick());
  default:
    return Cond::makeOr(Pick(), Pick());
  }
}

} // namespace

void fuzz::plantAssertion(Program &Prog, Stmt::Ptr Assertion,
                          std::vector<Stmt::Ptr> Prologue) {
  assert(Assertion->kind() == Stmt::Kind::Assert && "not an assertion");
  Procedure &Main = Prog.Procs[mainProcIndex(Prog)];
  std::vector<Stmt::Ptr> Stmts;
  Stmts.push_back(std::move(Assertion));
  for (Stmt::Ptr &S : Prologue)
    Stmts.push_back(std::move(S));
  Stmts.push_back(std::move(Main.Body));
  Main.Body = Stmt::makeBlock(std::move(Stmts));
}

Stmt::Ptr fuzz::randomProbAssertion(Rng &R, const Program &Prog) {
  CmpOp Op = R.below(2) == 0 ? CmpOp::Ge : CmpOp::Le;
  Rational Bound(static_cast<int64_t>(R.below(9)), 8);
  return Stmt::makeAssertProb(randomPlantCond(R, Prog), Op,
                              std::move(Bound));
}

Stmt::Ptr fuzz::randomRewardAssertion(Rng &R) {
  CmpOp Op = R.below(2) == 0 ? CmpOp::Ge : CmpOp::Le;
  Rational Bound(static_cast<int64_t>(R.below(13)), 2);
  return Stmt::makeAssertReward(Op, std::move(Bound));
}

Stmt::Ptr fuzz::randomIntervalAssertion(Rng &R, const Program &Prog) {
  std::vector<unsigned> Reals;
  for (unsigned I = 0; I != Prog.Vars.size(); ++I)
    if (Prog.Vars[I].IsReal)
      Reals.push_back(I);
  Expr::Ptr Target;
  if (Reals.empty()) {
    Target = Expr::makeNumber(Rational(0));
  } else {
    auto Pick = [&] {
      return Expr::makeVar(
          Reals[static_cast<size_t>(R.below(Reals.size()))]);
    };
    switch (R.below(3)) {
    case 0:
      Target = Pick();
      break;
    case 1:
      Target = Expr::makeBinary(Expr::Kind::Add, Pick(), Pick());
      break;
    default:
      Target = Expr::makeBinary(
          Expr::Kind::Mul,
          Expr::makeNumber(Rational(static_cast<int64_t>(1 + R.below(3)))),
          Pick());
      break;
    }
  }
  Rational Lo(static_cast<int64_t>(R.below(9)), 2);
  Rational Hi = Lo + Rational(static_cast<int64_t>(R.below(9)), 2);
  return Stmt::makeAssertInterval(std::move(Target), std::move(Lo),
                                  std::move(Hi));
}

std::vector<Stmt::Ptr> fuzz::randomInitPrologue(Rng &R, const Program &Prog) {
  std::vector<Stmt::Ptr> Out;
  for (unsigned I = 0; I != Prog.Vars.size(); ++I) {
    if (!Prog.Vars[I].IsReal) {
      if (R.below(5) < 3) {
        Out.push_back(Stmt::makeAssign(I, Expr::makeBool(R.below(2) == 0)));
      } else {
        Dist D;
        D.TheKind = Dist::Kind::Bernoulli;
        D.Params.push_back(Expr::makeNumber(
            Rational(static_cast<int64_t>(R.below(5)), 4)));
        Out.push_back(Stmt::makeSample(I, std::move(D)));
      }
    } else {
      Out.push_back(Stmt::makeAssign(
          I, Expr::makeNumber(Rational(static_cast<int64_t>(R.below(9)), 2))));
    }
  }
  return Out;
}

void fuzz::sprinkleRewards(Rng &R, Program &Prog, unsigned Count) {
  Procedure &Main = Prog.Procs[mainProcIndex(Prog)];
  // The AST exposes block statements read-only, so rewards are layered
  // around the existing body: some plain, some behind a probabilistic
  // branch (so expectations mix), before and after the original block.
  std::vector<Stmt::Ptr> Before, After;
  for (unsigned I = 0; I != Count; ++I) {
    Rational Amount(static_cast<int64_t>(R.below(9)), 2);
    Stmt::Ptr S;
    if (R.below(2) == 0) {
      S = Stmt::makeReward(std::move(Amount));
    } else {
      Guard G;
      G.TheKind = Guard::Kind::Prob;
      G.Prob = Rational(static_cast<int64_t>(R.below(5)), 4);
      std::vector<Stmt::Ptr> Then, Else;
      Then.push_back(Stmt::makeReward(std::move(Amount)));
      Else.push_back(Stmt::makeReward(
          Rational(static_cast<int64_t>(R.below(5)), 2)));
      S = Stmt::makeIf(std::move(G), Stmt::makeBlock(std::move(Then)),
                       Stmt::makeBlock(std::move(Else)));
    }
    (R.below(2) == 0 ? Before : After).push_back(std::move(S));
  }
  std::vector<Stmt::Ptr> Stmts;
  for (Stmt::Ptr &S : Before)
    Stmts.push_back(std::move(S));
  Stmts.push_back(std::move(Main.Body));
  for (Stmt::Ptr &S : After)
    Stmts.push_back(std::move(S));
  Main.Body = Stmt::makeBlock(std::move(Stmts));
}

GroundTruth fuzz::estimateGroundTruth(const Program &Prog,
                                      const Stmt &Assertion, uint64_t Seed,
                                      unsigned Runs, unsigned MaxSteps) {
  assert(Assertion.kind() == Stmt::Kind::Assert && "not an assertion");
  concrete::Interpreter Interp(Prog, Seed);
  unsigned Main = mainProcIndex(Prog);
  std::vector<double> Zero(Prog.Vars.size(), 0.0);
  double Sum = 0.0;
  for (unsigned I = 0; I != Runs; ++I) {
    concrete::ExecResult Res = Interp.run(Main, Zero, MaxSteps);
    switch (Assertion.assertKind()) {
    case AssertKind::Prob:
      if (Res.terminated() &&
          Interp.evalCond(Assertion.assertCond(), Res.State))
        Sum += 1.0;
      break;
    case AssertKind::Reward:
      Sum += Res.Reward;
      break;
    case AssertKind::Interval:
      if (Res.terminated())
        Sum += Interp.evalExpr(Assertion.assertTarget(), Res.State);
      break;
    }
  }
  GroundTruth GT;
  GT.Runs = Runs;
  GT.Estimate = Runs ? Sum / Runs : 0.0;
  return GT;
}

double fuzz::soundnessTolerance(const Stmt &Assertion, unsigned Runs) {
  double Base = 4.0 / std::sqrt(static_cast<double>(Runs ? Runs : 1));
  switch (Assertion.assertKind()) {
  case AssertKind::Prob:
    return 0.5 * Base + 0.01;
  case AssertKind::Reward:
    return Base * (1.0 + std::fabs(Assertion.assertBound().toDouble())) +
           0.05;
  case AssertKind::Interval: {
    double Scale = std::max(std::fabs(Assertion.assertLo().toDouble()),
                            std::fabs(Assertion.assertHi().toDouble()));
    return Base * (1.0 + Scale) + 0.05;
  }
  }
  return 0.05;
}

std::string fuzz::soundnessViolation(const Stmt &Assertion, Verdict V,
                                     const GroundTruth &GT, double Tol) {
  if (V == Verdict::Warning || V == Verdict::Skipped)
    return "";
  double Est = GT.Estimate;
  switch (Assertion.assertKind()) {
  case AssertKind::Prob: {
    double P = Assertion.assertBound().toDouble();
    bool Ge = Assertion.assertOp() == CmpOp::Ge;
    if (V == Verdict::Safe && (Ge ? Est < P - Tol : Est > P + Tol))
      return "checker proved assert_prob " + std::string(Ge ? ">=" : "<=") +
             " " + Assertion.assertBound().toString() +
             " SAFE but the sampled mass is " + fmt(Est);
    if (V == Verdict::Error && (Ge ? Est >= P + Tol : Est <= P - Tol))
      return "checker proved assert_prob " + std::string(Ge ? ">=" : "<=") +
             " " + Assertion.assertBound().toString() +
             " VIOLATED but the sampled mass is " + fmt(Est);
    return "";
  }
  case AssertKind::Reward: {
    double Bound = Assertion.assertBound().toDouble();
    bool Ge = Assertion.assertOp() == CmpOp::Ge;
    // The sampled mean is one scheduler's expectation, a lower bound on
    // the supremum: it can witness against "sup <= r" style claims but
    // cannot refute SAFE >= (sup may be reached by another scheduler).
    if (V == Verdict::Safe && !Ge && Est > Bound + Tol)
      return "checker proved assert_reward <= " +
             Assertion.assertBound().toString() +
             " SAFE but the sampled mean reward is " + fmt(Est);
    if (V == Verdict::Error && Ge && Est >= Bound + Tol)
      return "checker proved assert_reward >= " +
             Assertion.assertBound().toString() +
             " VIOLATED but the sampled mean reward is " + fmt(Est);
    if (V == Verdict::Error && !Ge && Est <= Bound - Tol)
      return "checker proved assert_reward <= " +
             Assertion.assertBound().toString() +
             " VIOLATED but the sampled mean reward is " + fmt(Est);
    return "";
  }
  case AssertKind::Interval: {
    double Lo = Assertion.assertLo().toDouble();
    double Hi = Assertion.assertHi().toDouble();
    if (V == Verdict::Safe && (Est < Lo - Tol || Est > Hi + Tol))
      return "checker proved assert_interval [" +
             Assertion.assertLo().toString() + ", " +
             Assertion.assertHi().toString() +
             "] SAFE but the sampled expectation is " + fmt(Est);
    if (V == Verdict::Error && Est >= Lo + Tol && Est <= Hi - Tol)
      return "checker proved assert_interval [" +
             Assertion.assertLo().toString() + ", " +
             Assertion.assertHi().toString() +
             "] VIOLATED but the sampled expectation is " + fmt(Est);
    return "";
  }
  }
  return "";
}
