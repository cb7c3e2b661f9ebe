//===- tests/LeiaDomainTest.cpp - Expectation-invariant analysis tests ----===//

#include "cfg/HyperGraph.h"
#include "concrete/Interpreter.h"
#include "core/Solver.h"
#include "domains/LeiaDomain.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;

namespace {

/// One LEIA analysis run with everything needed for queries.
struct LeiaRun {
  std::unique_ptr<lang::Program> Prog;
  std::unique_ptr<cfg::ProgramGraph> Graph;
  std::unique_ptr<LeiaDomain> Dom;
  AnalysisResult<LeiaValue> Result;

  explicit LeiaRun(const char *Source) {
    Prog = lang::parseProgramOrDie(Source);
    Graph = std::make_unique<cfg::ProgramGraph>(
        cfg::ProgramGraph::build(*Prog));
    Dom = std::make_unique<LeiaDomain>(*Prog);
    SolverOptions Opts;
    Opts.WideningDelay = 2;
    Result = solve(*Graph, *Dom, Opts);
    EXPECT_TRUE(Result.Stats.Converged);
  }

  const LeiaValue &summary() const {
    return Result.Values[Graph->proc(Prog->findProc("main")).Entry];
  }

  /// E[objective . x'] evaluated from \p Pre; returns {lo, hi} as doubles
  /// (infinity for unbounded).
  std::pair<double, double>
  bounds(std::vector<int64_t> Objective, std::vector<int64_t> Pre) const {
    std::vector<Rational> Obj, PreR;
    for (int64_t O : Objective)
      Obj.push_back(Rational(O));
    for (int64_t P : Pre)
      PreR.push_back(Rational(P));
    auto [Lo, Hi] = Dom->expectationBounds(summary(), Obj, PreR);
    double L = Lo ? Lo->toDouble() : -HUGE_VAL;
    double H = Hi ? Hi->toDouble() : HUGE_VAL;
    return {L, H};
  }

  bool hasInvariant(const std::string &Text) const {
    for (const std::string &Inv : Dom->describeInvariants(summary()))
      if (Inv == Text)
        return true;
    return false;
  }

  std::string allInvariants() const {
    std::string Out;
    for (const std::string &Inv : Dom->describeInvariants(summary()))
      Out += Inv + "\n";
    return Out;
  }
};

} // namespace

TEST(LeiaDomainTest, IdentityProgram) {
  LeiaRun Run("real x; proc main() { skip; }");
  auto [Lo, Hi] = Run.bounds({1}, {7});
  EXPECT_DOUBLE_EQ(Lo, 7.0);
  EXPECT_DOUBLE_EQ(Hi, 7.0);
}

TEST(LeiaDomainTest, DeterministicAssignment) {
  LeiaRun Run("real x, y; proc main() { x := x + 2 * y + 1; }");
  // E[x'] = x + 2y + 1, E[y'] = y.
  auto [XLo, XHi] = Run.bounds({1, 0}, {3, 5});
  EXPECT_DOUBLE_EQ(XLo, 14.0);
  EXPECT_DOUBLE_EQ(XHi, 14.0);
  auto [YLo, YHi] = Run.bounds({0, 1}, {3, 5});
  EXPECT_DOUBLE_EQ(YLo, 5.0);
  EXPECT_DOUBLE_EQ(YHi, 5.0);
}

TEST(LeiaDomainTest, UniformSampleMean) {
  LeiaRun Run("real z; proc main() { z ~ uniform(0, 2); }");
  auto [Lo, Hi] = Run.bounds({1}, {9});
  EXPECT_DOUBLE_EQ(Lo, 1.0);
  EXPECT_DOUBLE_EQ(Hi, 1.0);
  EXPECT_TRUE(Run.hasInvariant("E[z'] == 1")) << Run.allInvariants();
}

TEST(LeiaDomainTest, ProbChoiceMixesExpectations) {
  LeiaRun Run(R"(
    real x;
    proc main() { if prob(1/4) { x := x + 8; } else { x := x + 4; } }
  )");
  // E[x'] = 1/4 (x+8) + 3/4 (x+4) = x + 5.
  auto [Lo, Hi] = Run.bounds({1}, {10});
  EXPECT_DOUBLE_EQ(Lo, 15.0);
  EXPECT_DOUBLE_EQ(Hi, 15.0);
}

TEST(LeiaDomainTest, NdetChoiceGivesRange) {
  LeiaRun Run(R"(
    real x;
    proc main() { if star { x := x + 1; } else { x := x + 3; } }
  )");
  auto [Lo, Hi] = Run.bounds({1}, {0});
  EXPECT_DOUBLE_EQ(Lo, 1.0);
  EXPECT_DOUBLE_EQ(Hi, 3.0);
}

TEST(LeiaDomainTest, SequencingComposesByTowerProperty) {
  LeiaRun Run(R"(
    real x;
    proc main() { x ~ uniform(x, x + 2); x := 7 * x; }
  )");
  // E[x'] = 7 (x + 1) = 7x + 7 (the §5.3 tower-property example).
  auto [Lo, Hi] = Run.bounds({1}, {2});
  EXPECT_DOUBLE_EQ(Lo, 21.0);
  EXPECT_DOUBLE_EQ(Hi, 21.0);
}

TEST(LeiaDomainTest, PaiComparisonFromSection1) {
  // §1: PMAF resolves nondeterminism outside, so both branches are the
  // same distribution and E[r'] = 1.5 exactly; PAI-style analyses can
  // only conclude 1.25 <= E[r'] <= 1.75.
  LeiaRun Run(R"(
    real r;
    proc main() {
      if star {
        if prob(1/2) { r := 1; } else { r := 2; }
      } else {
        if prob(1/2) { r := 1; } else { r := 2; }
      }
    }
  )");
  auto [Lo, Hi] = Run.bounds({1}, {0});
  EXPECT_DOUBLE_EQ(Lo, 1.5);
  EXPECT_DOUBLE_EQ(Hi, 1.5);
}

TEST(LeiaDomainTest, Figure1bGameInvariants) {
  // §2.2: E[x' + y'] = x + y + 3, E[z'] = z/4 + 3/4, x <= E[x'] <= x + 3.
  LeiaRun Run(R"(
    real x, y, z;
    proc main() {
      while prob(3/4) {
        z ~ uniform(0, 2);
        if star { x := x + z; } else { y := y + z; }
      }
    }
  )");
  auto [SumLo, SumHi] = Run.bounds({1, 1, 0}, {1, 2, 0});
  EXPECT_NEAR(SumLo, 6.0, 1e-6);
  EXPECT_NEAR(SumHi, 6.0, 1e-6);
  auto [ZLo, ZHi] = Run.bounds({0, 0, 1}, {0, 0, 2});
  EXPECT_NEAR(ZLo, 0.5 + 0.75, 1e-6);
  EXPECT_NEAR(ZHi, 0.5 + 0.75, 1e-6);
  auto [XLo, XHi] = Run.bounds({1, 0, 0}, {1, 2, 0});
  EXPECT_NEAR(XLo, 1.0, 1e-6);
  EXPECT_NEAR(XHi, 4.0, 1e-6);
}

TEST(LeiaDomainTest, Example58PessimisticConditionalWidening) {
  // Obs 5.7 / Ex 5.8: E[x' - y'] = x - y holds for the loop body but NOT
  // for the whole loop; at exit x == y, so E[x' - y'] = 0.
  LeiaRun Run(R"(
    real x, y;
    proc main() {
      while (!(x == y)) {
        if prob(1/2) { x := x + 1; } else { y := y + 1; }
      }
    }
  )");
  auto [Lo, Hi] = Run.bounds({1, -1}, {5, 3});
  EXPECT_DOUBLE_EQ(Lo, 0.0);
  EXPECT_DOUBLE_EQ(Hi, 0.0);
}

TEST(LeiaDomainTest, LinearRecursion) {
  // E = 1/2 (E o (x+2)) + 1/2 (x+1)  =>  E[x'] = x + 3.
  LeiaRun Run(R"(
    real x;
    proc main() {
      if prob(1/2) { x := x + 2; main(); } else { x := x + 1; }
    }
  )");
  auto [Lo, Hi] = Run.bounds({1}, {4});
  EXPECT_NEAR(Lo, 7.0, 1e-6);
  EXPECT_NEAR(Hi, 7.0, 1e-6);
}

TEST(LeiaDomainTest, InterproceduralSummaries) {
  LeiaRun Run(R"(
    real x;
    proc add3() { x := x + 3; }
    proc main() { add3(); add3(); }
  )");
  auto [Lo, Hi] = Run.bounds({1}, {1});
  EXPECT_DOUBLE_EQ(Lo, 7.0);
  EXPECT_DOUBLE_EQ(Hi, 7.0);
  const LeiaValue &Helper =
      Run.Result.Values[Run.Graph->proc(Run.Prog->findProc("add3")).Entry];
  auto [HLo, HHi] = Run.Dom->expectationBounds(Helper, {Rational(1)},
                                               {Rational(0)});
  ASSERT_TRUE(HLo && HHi);
  EXPECT_EQ(*HLo, Rational(3));
  EXPECT_EQ(*HHi, Rational(3));
}

TEST(LeiaDomainTest, ObserveRestrictsSupport) {
  LeiaRun Run(R"(
    real x;
    proc main() { x ~ uniform(0, 10); observe(x <= 4); }
  )");
  // After conditioning, the support is [0, 4]; expectations can only be
  // bounded pessimistically (mass rescaling), E[x'] in [0, 4].
  auto [Lo, Hi] = Run.bounds({1}, {0});
  EXPECT_GE(Lo, 0.0);
  EXPECT_LE(Hi, 4.0);
  // The P component knows the hard bound.
  EXPECT_FALSE(Run.summary().P.isEmpty());
}

TEST(LeiaDomainTest, DivergentLoopIsBottom) {
  LeiaRun Run(R"(
    real x;
    proc main() { while (true) { x := x + 1; } }
  )");
  EXPECT_TRUE(Run.summary().P.isEmpty());
}

TEST(LeiaDomainTest, NonlinearAssignmentLosesOnlyTarget) {
  LeiaRun Run(R"(
    real x, y;
    proc main() { x := x * x; }
  )");
  // x' is unconstrained but y is preserved exactly.
  auto [YLo, YHi] = Run.bounds({0, 1}, {2, 5});
  EXPECT_DOUBLE_EQ(YLo, 5.0);
  EXPECT_DOUBLE_EQ(YHi, 5.0);
  auto [XLo, XHi] = Run.bounds({1, 0}, {2, 5});
  EXPECT_EQ(XHi, HUGE_VAL);
  EXPECT_LE(XLo, 0.0);
}

TEST(LeiaDomainTest, CancelledFactorIsTheScalarZero) {
  // (x - x) has no variable term, so it is the scalar 0 and the product
  // is exactly 0, as the §6.2 decomposition reads it.
  LeiaRun Run("real x, y, z; proc main() { z := (x - x) * y; }");
  EXPECT_TRUE(Run.hasInvariant("E[z'] == 0")) << Run.allInvariants();
}

TEST(LeiaDomainTest, InvariantStringsMentionExpectations) {
  LeiaRun Run("real x; proc main() { x := x + 1; }");
  EXPECT_TRUE(Run.hasInvariant("E[x'] == x + 1")) << Run.allInvariants();
}

TEST(LeiaDomainTest, ExpectationMatchesMonteCarlo) {
  const char *Source = R"(
    real x, y, z;
    proc main() {
      while prob(3/4) {
        z ~ uniform(0, 2);
        if star { x := x + z; } else { y := y + z; }
      }
    }
  )";
  LeiaRun Run(Source);
  concrete::Interpreter Interp(*Run.Prog, 5150);
  const int N = 60000;
  double Sum = 0.0;
  for (int I = 0; I != N; ++I) {
    auto R = Interp.run(0, {1.0, 2.0, 0.0}, 100000);
    ASSERT_TRUE(R.terminated());
    Sum += R.State[0] + R.State[1];
  }
  double Expected = Sum / N;
  auto [Lo, Hi] = Run.bounds({1, 1, 0}, {1, 2, 0});
  EXPECT_LE(Lo, Expected + 0.1);
  EXPECT_GE(Hi, Expected - 0.1);
}

TEST(LeiaDomainTest, BottomAbsorbsComposition) {
  LeiaDomain Dom(*lang::parseProgramOrDie("real x; proc main() { skip; }"));
  LeiaValue Bot = Dom.bottom(), One = Dom.one();
  EXPECT_TRUE(Dom.equal(Dom.extend(Bot, One), Bot));
  EXPECT_TRUE(Dom.equal(Dom.extend(One, Bot), Bot));
  EXPECT_TRUE(Dom.equal(Dom.extend(One, One), One));
  EXPECT_TRUE(Dom.leq(Bot, One));
  EXPECT_FALSE(Dom.leq(One, Bot));
}
