//===- tests/WideningTest.cpp - §4.4 widening safety properties -----------===//
//
// Checks the safety properties §4.4 demands of the three widening
// operators — chains widened with each operator are eventually stable —
// and the coverage property that makes widening sound (the result
// over-approximates both arguments where the domain guarantees it).
//
//===----------------------------------------------------------------------===//

#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "domains/LeiaDomain.h"
#include "domains/MdpDomain.h"
#include "lang/Parser.h"
#include "poly/Polyhedron.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace pmaf;
using namespace pmaf::domains;
using namespace pmaf::poly;

namespace {

LinearExpr var(unsigned Dim, unsigned I) {
  return LinearExpr::variable(Dim, I);
}
LinearExpr cst(unsigned Dim, int64_t V) {
  return LinearExpr::constant(Dim, Rational(V));
}

} // namespace

//===----------------------------------------------------------------------===//
// Polyhedra widening (the substrate of the LEIA operators)
//===----------------------------------------------------------------------===//

TEST(WideningTest, PolyhedronWideningCoversBothArguments) {
  // The CH78 widening keeps a subset of the first argument's constraints,
  // so it always contains both operands (even without a ⊑ b).
  Polyhedron A = Polyhedron::fromConstraints(
      2, {Constraint::ge(var(2, 0), cst(2, 0)),
          Constraint::le(var(2, 0), cst(2, 1)),
          Constraint::eq(var(2, 1), var(2, 0))});
  Polyhedron B = Polyhedron::fromConstraints(
      2, {Constraint::ge(var(2, 0), cst(2, 0)),
          Constraint::le(var(2, 0), cst(2, 5)),
          Constraint::le(var(2, 1), var(2, 0))});
  Polyhedron W = A.widen(B);
  EXPECT_TRUE(W.contains(A));
  EXPECT_TRUE(W.contains(B));
}

TEST(WideningTest, PolyhedronWideningChainStabilizes) {
  // a_k = [0, 2^k] x [0, k]: growing in two directions at different
  // rates; the widened chain must stabilize in few steps.
  auto Box = [](int64_t W, int64_t H) {
    return Polyhedron::fromConstraints(
        2, {Constraint::ge(var(2, 0), cst(2, 0)),
            Constraint::le(var(2, 0), cst(2, W)),
            Constraint::ge(var(2, 1), cst(2, 0)),
            Constraint::le(var(2, 1), cst(2, H))});
  };
  Polyhedron Current = Box(1, 1);
  int StableAt = -1;
  for (int K = 2; K <= 20; ++K) {
    Polyhedron Next = Current.widen(Current.join(Box(1 << K, K)));
    if (Next.equals(Current)) {
      StableAt = K;
      break;
    }
    Current = Next;
  }
  EXPECT_GE(StableAt, 0) << "widened chain did not stabilize";
  EXPECT_LE(StableAt, 4);
  // The stable limit keeps the stable lower bounds.
  EXPECT_TRUE(Current.satisfies(Constraint::ge(var(2, 0), cst(2, 0))));
  EXPECT_TRUE(Current.satisfies(Constraint::ge(var(2, 1), cst(2, 0))));
}

//===----------------------------------------------------------------------===//
// MDP widening (§5.2's trivial jump to infinity)
//===----------------------------------------------------------------------===//

TEST(WideningTest, MdpWideningChainsStabilize) {
  MdpDomain Dom;
  // Strictly growing chain (the re-evaluated right-hand side grows from
  // the current value, as in the solver): one widening application jumps
  // to +inf, after which everything is stable.
  double Current = 0.0;
  int Steps = 0;
  while (true) {
    double Next = Current + 1.0; // rhs re-evaluation (Obs 4.9: old ⊑ new)
    double Widened = Dom.widenNdet(Current, Next);
    ++Steps;
    if (Dom.equal(Widened, Current))
      break;
    Current = Widened;
    ASSERT_LT(Steps, 5);
  }
  EXPECT_TRUE(std::isinf(Current));
  // A converging chain is left untouched (no precision loss).
  EXPECT_DOUBLE_EQ(Dom.widenProb(1.0, 1.0 + 1e-14), 1.0 + 1e-14);
}

//===----------------------------------------------------------------------===//
// LEIA widenings (§5.3)
//===----------------------------------------------------------------------===//

namespace {

struct LeiaFixture {
  std::unique_ptr<lang::Program> Prog =
      lang::parseProgramOrDie("real x, y; proc main() { skip; }");
  LeiaDomain Dom{*Prog};

  LeiaValue action(const char *Text) {
    std::string Source =
        std::string("real x, y; proc main() { ") + Text + " }";
    auto P = lang::parseProgramOrDie(Source);
    return Dom.interpret(P->Procs[0].Body->stmts()[0].get());
  }
};

} // namespace

TEST(WideningTest, LeiaCondWideningIsPessimisticPerObservation57) {
  // Obs 5.7: the conditional widening must forget body expectation
  // equalities, rebuilding EP from the (widened) support.
  LeiaFixture F;
  LeiaValue Inc = F.action("x := x + 1;");
  LeiaValue More = F.Dom.ndetChoice(Inc, F.action("x := x + 2;"));
  LeiaValue W = F.Dom.widenCond(Inc, F.Dom.ndetChoice(Inc, More));
  // The result's EP is the subprobability cone of the widened support: it
  // must contain the zero expectation (mass loss) for any pre-state.
  EXPECT_FALSE(W.P.isEmpty());
  auto [Lo, Hi] = F.Dom.expectationBounds(W, {Rational(1), Rational(0)},
                                          {Rational(5), Rational(0)});
  ASSERT_TRUE(Lo.has_value());
  EXPECT_EQ(*Lo, Rational(0)); // 0 ⊔ ... always includes zero mass.
}

TEST(WideningTest, LeiaCondWideningChainStabilizes) {
  LeiaFixture F;
  // Ascending chain a_k = ndet-join of ever-larger increments.
  LeiaValue Current = F.action("x := x + 1;");
  std::vector<LeiaValue> Chain;
  for (int K = 2; K <= 12; ++K)
    Chain.push_back(F.action(("x := x + " + std::to_string(K) + ";")
                                 .c_str()));
  LeiaValue Acc = Current;
  int StableAt = -1;
  for (int K = 0; K != static_cast<int>(Chain.size()); ++K) {
    Acc = F.Dom.ndetChoice(Acc, Chain[K]);
    LeiaValue Next = F.Dom.widenCond(Current, F.Dom.ndetChoice(Current, Acc));
    if (F.Dom.equal(Next, Current)) {
      StableAt = K;
      break;
    }
    Current = Next;
  }
  EXPECT_GE(StableAt, 0) << "widened LEIA chain did not stabilize";
  EXPECT_LE(StableAt, 5);
}

TEST(WideningTest, LeiaWideningsCoverTheSupportOfBothArguments) {
  LeiaFixture F;
  LeiaValue A = F.action("x := x + 1;");
  LeiaValue B = F.Dom.ndetChoice(A, F.action("y := y + 3;"));
  for (auto WidenOp : {&LeiaDomain::widenCond, &LeiaDomain::widenProb,
                       &LeiaDomain::widenNdet, &LeiaDomain::widenCall}) {
    LeiaValue W = (F.Dom.*WidenOp)(A, B);
    EXPECT_TRUE(W.P.contains(A.P));
    EXPECT_TRUE(W.P.contains(B.P));
  }
}

TEST(WideningTest, LeiaProbWideningKeepsNewExpectations) {
  // §5.3: the probabilistic widening "does no extrapolation in the EP
  // component" — the new iterate's expectations survive verbatim.
  LeiaFixture F;
  LeiaValue A = F.action("x := x + 1;");
  LeiaValue B = F.Dom.probChoice(Rational(1, 2), A,
                                 F.action("x := x + 3;"));
  LeiaValue W = F.Dom.widenProb(A, B);
  auto [Lo, Hi] = F.Dom.expectationBounds(W, {Rational(1), Rational(0)},
                                          {Rational(1), Rational(0)});
  ASSERT_TRUE(Lo && Hi);
  EXPECT_EQ(*Lo, Rational(3)); // E[x'] = 1 + (1/2)(1) + (1/2)(3) = 3.
  EXPECT_EQ(*Hi, Rational(3));
}

TEST(WideningTest, GeometricLoopChainStabilizesUnderProbWidening) {
  // The fixpoint chain of `while prob(3/4) { x := x + 1 }` widened at the
  // head stabilizes in a bounded number of steps (the §6.1 tolerance
  // mechanism); the limit carries E[x'] ≈ x + 3.
  LeiaFixture F;
  LeiaValue K = F.action("x := x + 1;");
  LeiaValue Head = F.Dom.bottom();
  Rational P(3, 4);
  int Iterations = 0;
  while (true) {
    LeiaValue Body = F.Dom.extend(K, Head);
    LeiaValue Next = F.Dom.probChoice(P, Body, F.Dom.one());
    if (Iterations >= 2)
      Next = F.Dom.widenProb(Head, Next);
    ++Iterations;
    ASSERT_LT(Iterations, 300) << "chain did not stabilize";
    if (F.Dom.equal(Head, Next))
      break;
    Head = Next;
  }
  auto [Lo, Hi] = F.Dom.expectationBounds(Head, {Rational(1), Rational(0)},
                                          {Rational(2), Rational(0)});
  ASSERT_TRUE(Lo && Hi);
  EXPECT_NEAR(Lo->toDouble(), 5.0, 1e-6);
  EXPECT_NEAR(Hi->toDouble(), 5.0, 1e-6);
}

//===----------------------------------------------------------------------===//
// Widening-operator selection at component heads (§4.4)
//===----------------------------------------------------------------------===//

namespace {

/// A diverging test algebra whose only purpose is to observe WHICH
/// widening operator the solver applies at a component head. Iterates
/// grow by the number of sequenced statements per pass (extend = +,
/// choices = max), so every loop head climbs until widening fires; each
/// widenX records itself and jumps to +inf, after which the chain is
/// stable.
class WidenProbeDomain {
public:
  using Value = double;

  Value bottom() const { return 0.0; }
  Value one() const { return 0.0; } // Identity of extend (+).
  Value extend(const Value &A, const Value &B) const { return A + B; }
  Value condChoice(const lang::Cond &, const Value &A,
                   const Value &B) const {
    return std::max(A, B);
  }
  Value probChoice(const Rational &, const Value &A, const Value &B) const {
    return std::max(A, B);
  }
  Value ndetChoice(const Value &A, const Value &B) const {
    return std::max(A, B);
  }
  Value interpret(const lang::Stmt *) const { return 1.0; }
  bool leq(const Value &A, const Value &B) const { return A <= B + 1e-9; }
  bool equal(const Value &A, const Value &B) const {
    return A == B || std::fabs(A - B) <= 1e-9;
  }
  Value widenCond(const Value &, const Value &) const {
    ++CondWidenings;
    return std::numeric_limits<double>::infinity();
  }
  Value widenProb(const Value &, const Value &) const {
    ++ProbWidenings;
    return std::numeric_limits<double>::infinity();
  }
  Value widenNdet(const Value &, const Value &) const {
    ++NdetWidenings;
    return std::numeric_limits<double>::infinity();
  }
  Value widenCall(const Value &, const Value &) const {
    ++CallWidenings;
    return std::numeric_limits<double>::infinity();
  }
  std::string toString(const Value &A) const { return std::to_string(A); }

  mutable unsigned CondWidenings = 0;
  mutable unsigned ProbWidenings = 0;
  mutable unsigned NdetWidenings = 0;
  mutable unsigned CallWidenings = 0;
};

static_assert(core::PreMarkovAlgebra<WidenProbeDomain>);

/// Solves \p Source under the probe and returns the domain carrying the
/// per-operator tallies.
WidenProbeDomain probeWidenings(const char *Source) {
  auto Prog = lang::parseProgramOrDie(Source);
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  WidenProbeDomain Dom;
  core::SolverOptions Opts;
  Opts.WideningDelay = 2;
  auto Result = core::solve(G, Dom, Opts);
  EXPECT_TRUE(Result.Stats.Converged);
  return Dom;
}

} // namespace

TEST(WideningTest, ComponentHeadWideningFollowsItsOwnLoopKind) {
  // Baseline: a plain probabilistic loop widens with widenProb, a plain
  // conditional loop with widenCond.
  WidenProbeDomain Prob = probeWidenings(R"(
    proc main() { while prob(1/2) { skip; } }
  )");
  EXPECT_GT(Prob.ProbWidenings, 0u);
  EXPECT_EQ(Prob.CondWidenings, 0u);

  WidenProbeDomain Cond = probeWidenings(R"(
    proc main() { while (true) { skip; } }
  )");
  EXPECT_GT(Cond.CondWidenings, 0u);
  EXPECT_EQ(Cond.ProbWidenings, 0u);
}

TEST(WideningTest, ComponentHeadPrefersProbOverCondWidening) {
  // Regression: one node heads both a conditional and a probabilistic
  // loop — the component is guarded by its conditional head AND by a
  // probabilistic branch that can break out of it, so both kinds decide
  // another traversal. Selecting the operator from the head's own
  // outgoing edge alone (the old behavior) is an accident of which guard
  // the DFS made the head; the precedence ndet ▷ prob ▷ cond over the
  // component's guards must pick widenProb.
  WidenProbeDomain Dom = probeWidenings(R"(
    proc main() { while (true) { if prob(1/2) { break; } skip; } }
  )");
  EXPECT_GT(Dom.ProbWidenings, 0u)
      << "the probabilistic guard of the component must win";
  EXPECT_EQ(Dom.CondWidenings, 0u)
      << "the head's own conditional edge must not decide the operator";
}

TEST(WideningTest, ComponentHeadPrefersNdetOverProbWidening) {
  // Same precedence one rung up: a probabilistic loop that can also be
  // left through a nondeterministic break must widen with widenNdet (the
  // most pessimistic operator), not widenProb.
  WidenProbeDomain Dom = probeWidenings(R"(
    proc main() { while prob(1/2) { if star { break; } skip; } }
  )");
  EXPECT_GT(Dom.NdetWidenings, 0u);
  EXPECT_EQ(Dom.ProbWidenings, 0u);
}

TEST(WideningTest, InternalBranchesDoNotDecideTheWideningOperator) {
  // The counterpart boundary (Ex 5.8's shape): a probabilistic branch
  // wholly inside a conditional loop's body — both arms continue around
  // the loop — does not guard the component, so the head keeps the
  // pessimistic conditional widening it needs to stabilize.
  WidenProbeDomain Dom = probeWidenings(R"(
    proc main() { while (true) { if prob(1/2) { skip; } else { skip; } } }
  )");
  EXPECT_GT(Dom.CondWidenings, 0u);
  EXPECT_EQ(Dom.ProbWidenings, 0u);
}
