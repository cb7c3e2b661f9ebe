//===- tests/ChecksTest.cpp - Checker verdicts and soundness fuzzing ------===//
//
// Three halves. The seeded-defect fixtures under examples/bad/ must each
// produce exactly the pinned verdict, stable code, and position, and the
// Diagnostics bridge must classify them (ERROR -> error, WARNING ->
// warning, promoted under -Werror, SAFE -> note). Hand-written programs
// pin every verdict class per domain, including SKIPPED and the
// non-converged degradation. Finally, the randomized soundness fuzz:
// plant a random assertion into a generated program, solve, check, and
// demand the verdict never contradicts a Monte-Carlo ground-truth
// estimate — for BI, MDP, and LEIA assertions.
//
// Set PMAF_SEED=<n> to replay the fuzz loops under a chosen seed.
//
//===----------------------------------------------------------------------===//

#include "RandomProgramGen.h"
#include "cfg/HyperGraph.h"
#include "checks/Checker.h"
#include "checks/Fuzz.h"
#include "concrete/Interpreter.h"
#include "core/Solver.h"
#include "domains/BiDomain.h"
#include "domains/LeiaDomain.h"
#include "domains/MdpDomain.h"
#include "lang/Parser.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

using namespace pmaf;
using namespace pmaf::checks;
using namespace pmaf::core;
using namespace pmaf::domains;
using namespace pmaf::lang;

namespace {

std::string readFixture(const std::string &Name) {
  std::string Path = std::string(PMAF_BAD_EXAMPLES_DIR) + "/" + Name;
  std::ifstream In(Path);
  EXPECT_TRUE(In) << "cannot open fixture " << Path;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

ChecksDb checkBi(const Program &Prog, bool Converged = true) {
  BoolStateSpace Space(Prog);
  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(Prog);
  BiDomain Dom(Space);
  SolverOptions Opts;
  Opts.UseWidening = false;
  Opts.MaxUpdates = 200000;
  auto Result = solve(Graph, Dom, Opts);
  CheckerOptions COpts;
  COpts.Converged = Converged && Result.Stats.Converged;
  return checkBiSummaries(
      Space, Graph, [&](unsigned N) { return Result.Values[N]; }, COpts);
}

ChecksDb checkMdpProg(const Program &Prog) {
  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(Prog);
  MdpDomain Dom;
  SolverOptions Opts;
  Opts.WideningDelay = 10000;
  Opts.MaxUpdates = 200000;
  auto Result = solve(Graph, Dom, Opts);
  CheckerOptions COpts;
  COpts.Converged = Result.Stats.Converged;
  return checkMdp(Graph, Result.Values, COpts);
}

/// LEIA solve + check under a chosen numeric backend. The default update
/// budget is `pmaf verify-corpus`'s: a non-converged solve degrades
/// verdicts to WARNING, which the soundness oracle accepts.
template <typename NumV>
ChecksDb checkLeiaProg(const Program &Prog, uint64_t MaxUpdates = 200000) {
  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(Prog);
  LeiaDomainT<NumV> Dom(Prog);
  SolverOptions Opts;
  Opts.MaxUpdates = MaxUpdates;
  auto Result = solve(Graph, Dom, Opts);
  CheckerOptions COpts;
  COpts.Converged = Result.Stats.Converged;
  return checkLeia(Dom, Graph, Result.Values, COpts);
}

/// The tolerance `pmaf verify-corpus` uses: a few standard errors at the
/// scale of the asserted quantity, plus a floor for float drift.
double fuzzTol(const Stmt &A, unsigned Runs) {
  double Base = 4.0 / std::sqrt(static_cast<double>(Runs));
  switch (A.assertKind()) {
  case AssertKind::Prob:
    return 0.5 * Base + 0.01;
  case AssertKind::Reward:
    return Base * (1.0 + std::fabs(A.assertBound().toDouble())) + 0.05;
  case AssertKind::Interval: {
    double Scale = std::max(std::fabs(A.assertLo().toDouble()),
                            std::fabs(A.assertHi().toDouble()));
    return Base * (1.0 + Scale) + 0.05;
  }
  }
  return 0.05;
}

//===----------------------------------------------------------------------===//
// Seeded-defect fixtures: pinned verdict, code, and position
//===----------------------------------------------------------------------===//

TEST(ChecksFixtureTest, ViolatedAssertProb) {
  auto Prog = parseProgramOrDie(readFixture("violated_assert_prob.pp"));
  ChecksDb Db = checkBi(*Prog);
  ASSERT_EQ(Db.total(), 1u);
  const CheckRecord &R = Db.records()[0];
  EXPECT_EQ(R.Kind, AssertKind::Prob);
  EXPECT_EQ(R.TheVerdict, Verdict::Error);
  EXPECT_EQ(R.Code, "assert-prob-violated");
  EXPECT_EQ(R.Loc.Line, 7u);
  EXPECT_EQ(R.Loc.Col, 3u);
  EXPECT_EQ(Db.count(Verdict::Error), 1u);

  // The Diagnostics bridge must surface it as a hard error.
  DiagnosticEngine Diags;
  reportChecks(Db, Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.renderJson().find("assert-prob-violated"),
            std::string::npos);
}

TEST(ChecksFixtureTest, UnprovableAssertReward) {
  auto Prog = parseProgramOrDie(readFixture("unprovable_assert_reward.pp"));
  ChecksDb Db = checkMdpProg(*Prog);
  ASSERT_EQ(Db.total(), 1u);
  const CheckRecord &R = Db.records()[0];
  EXPECT_EQ(R.Kind, AssertKind::Reward);
  EXPECT_EQ(R.TheVerdict, Verdict::Warning);
  EXPECT_EQ(R.Code, "assert-reward-unproved");
  EXPECT_EQ(R.Loc.Line, 6u);
  EXPECT_EQ(R.Loc.Col, 3u);

  // Plain run: a warning, not an error. Under -Werror: promoted.
  DiagnosticEngine Plain;
  reportChecks(Db, Plain);
  EXPECT_FALSE(Plain.hasErrors());
  EXPECT_EQ(Plain.warningCount(), 1u);
  DiagnosticEngine Strict;
  Strict.setWarningsAsErrors(true);
  reportChecks(Db, Strict);
  EXPECT_TRUE(Strict.hasErrors());
}

//===----------------------------------------------------------------------===//
// Verdict classes per domain
//===----------------------------------------------------------------------===//

TEST(CheckerTest, BiSafeAndViolated) {
  auto Prog = parseProgramOrDie(R"(
    bool b;
    proc main() {
      assert_prob(b) >= 1/2;
      b ~ bernoulli(3/4);
    }
  )");
  ChecksDb Db = checkBi(*Prog);
  ASSERT_EQ(Db.total(), 1u);
  EXPECT_EQ(Db.records()[0].TheVerdict, Verdict::Safe);
  EXPECT_EQ(Db.records()[0].Code, "assert-prob-safe");

  auto Bad = parseProgramOrDie(R"(
    bool b;
    proc main() {
      assert_prob(b) <= 1/4;
      b ~ bernoulli(3/4);
    }
  )");
  ChecksDb BadDb = checkBi(*Bad);
  ASSERT_EQ(BadDb.total(), 1u);
  EXPECT_EQ(BadDb.records()[0].TheVerdict, Verdict::Error);
  EXPECT_EQ(BadDb.records()[0].Code, "assert-prob-violated");
}

TEST(CheckerTest, BiObserveMakesBoundUnprovable) {
  // Conditioning renders the kernel sub-stochastic: the surviving mass
  // with b true is 3/4 * 1/2 = 0.375 < 1/2, but the complement upper
  // bound 1 - 1/4 * 1/2 = 0.875 >= 1/2 — neither proved nor refuted.
  auto Prog = parseProgramOrDie(R"(
    bool b, c;
    proc main() {
      assert_prob(b) >= 1/2;
      b ~ bernoulli(3/4);
      c ~ bernoulli(1/2);
      observe(c);
    }
  )");
  ChecksDb Db = checkBi(*Prog);
  ASSERT_EQ(Db.total(), 1u);
  EXPECT_EQ(Db.records()[0].TheVerdict, Verdict::Warning);
  EXPECT_EQ(Db.records()[0].Code, "assert-prob-unproved");
}

TEST(CheckerTest, MdpUpperBoundSemantics) {
  // <= is provable from the upper bound...
  auto Safe = parseProgramOrDie(
      "proc main() { assert_reward <= 3; reward(2); }");
  ChecksDb SafeDb = checkMdpProg(*Safe);
  ASSERT_EQ(SafeDb.total(), 1u);
  EXPECT_EQ(SafeDb.records()[0].TheVerdict, Verdict::Safe);
  EXPECT_EQ(SafeDb.records()[0].Code, "assert-reward-safe");

  // ...and >= is refutable from it, but never provable.
  auto Bad = parseProgramOrDie(
      "proc main() { assert_reward >= 3; reward(2); }");
  ChecksDb BadDb = checkMdpProg(*Bad);
  ASSERT_EQ(BadDb.total(), 1u);
  EXPECT_EQ(BadDb.records()[0].TheVerdict, Verdict::Error);
  EXPECT_EQ(BadDb.records()[0].Code, "assert-reward-violated");
}

TEST(CheckerTest, LeiaIntervalContainmentAndDisjointness) {
  auto Safe = parseProgramOrDie(R"(
    real x;
    proc main() {
      assert_interval(x, 0, 1);
      x := 1/2;
    }
  )");
  auto Bad = parseProgramOrDie(R"(
    real x;
    proc main() {
      assert_interval(x, 2, 3);
      x := 1/2;
    }
  )");
  // Same verdicts under the shipped ladder and the zones backend.
  ChecksDb SafeDb = checkLeiaProg<poly::LadderValue>(*Safe);
  ASSERT_EQ(SafeDb.total(), 1u);
  EXPECT_EQ(SafeDb.records()[0].TheVerdict, Verdict::Safe);
  EXPECT_EQ(SafeDb.records()[0].Code, "assert-interval-safe");
  ChecksDb SafeZ = checkLeiaProg<poly::Zones>(*Safe);
  ASSERT_EQ(SafeZ.total(), 1u);
  EXPECT_EQ(SafeZ.records()[0].Code, "assert-interval-safe");

  ChecksDb BadDb = checkLeiaProg<poly::LadderValue>(*Bad);
  ASSERT_EQ(BadDb.total(), 1u);
  EXPECT_EQ(BadDb.records()[0].TheVerdict, Verdict::Error);
  EXPECT_EQ(BadDb.records()[0].Code, "assert-interval-violated");
  ChecksDb BadZ = checkLeiaProg<poly::Zones>(*Bad);
  ASSERT_EQ(BadZ.total(), 1u);
  EXPECT_EQ(BadZ.records()[0].Code, "assert-interval-violated");

  // The non-relational interval backend tops out at the exit identity
  // (x' = x is not box-expressible), so it degrades both to unproved —
  // sound, never decisive.
  EXPECT_EQ(checkLeiaProg<poly::Intervals>(*Safe).records()[0].Code,
            "assert-interval-unproved");
  EXPECT_EQ(checkLeiaProg<poly::Intervals>(*Bad).records()[0].Code,
            "assert-interval-unproved");
}

TEST(CheckerTest, LeiaIntervalTargetsWithNestedScalars) {
  // A factor or divisor without a variable term is a scalar however it is
  // spelled, so these targets are proved like `0.5 * x`.
  const std::pair<const char *, const char *> Cases[] = {
      {"0.5 * x", "1/2"},
      {"1/2 * x", "1/2"},
      {"x * (3 - 1)", "2"},
      {"x / (1 + 1)", "1/2"},
  };
  for (auto [Target, Value] : Cases) {
    SCOPED_TRACE(Target);
    auto Prog = parseProgramOrDie(std::string("real x; proc main() { ") +
                                  "assert_interval(" + Target + ", " +
                                  Value + ", " + Value + "); x := 1; }");
    ChecksDb Ladder = checkLeiaProg<poly::LadderValue>(*Prog);
    ASSERT_EQ(Ladder.total(), 1u);
    EXPECT_EQ(Ladder.records()[0].Code, "assert-interval-safe")
        << Ladder.records()[0].Message;
    ChecksDb Zones = checkLeiaProg<poly::Zones>(*Prog);
    ASSERT_EQ(Zones.total(), 1u);
    EXPECT_EQ(Zones.records()[0].Code, "assert-interval-safe")
        << Zones.records()[0].Message;
  }
  // A product of two variable terms is not affine.
  auto Square = parseProgramOrDie(
      "real x; proc main() { assert_interval(x * x, 1, 1); x := 1; }");
  ChecksDb Db = checkLeiaProg<poly::LadderValue>(*Square);
  ASSERT_EQ(Db.total(), 1u);
  EXPECT_EQ(Db.records()[0].TheVerdict, Verdict::Skipped);
  EXPECT_EQ(Db.records()[0].Code, "assert-skipped");
  EXPECT_NE(Db.records()[0].Message.find("not affine"), std::string::npos)
      << Db.records()[0].Message;
}

TEST(CheckerTest, DivergenceMakesExpectationExactlyZero) {
  // Almost-sure divergence leaves zero terminating mass, so the
  // sub-probability expectation of any objective is exactly 0 — an
  // asserted interval excluding 0 is provably violated, one containing
  // 0 provably holds. (Regression: the corpus fuzzer caught the old
  // "bottom slice is vacuously SAFE" reading as a soundness hole.)
  auto Bad = parseProgramOrDie(R"(
    real x;
    proc main() {
      assert_interval(x, 3, 3);
      x := 7/2;
      while (x >= 0) { x := 1; }
    }
  )");
  ChecksDb BadDb = checkLeiaProg<poly::Zones>(*Bad);
  ASSERT_EQ(BadDb.total(), 1u);
  EXPECT_EQ(BadDb.records()[0].TheVerdict, Verdict::Error);
  EXPECT_EQ(BadDb.records()[0].Code, "assert-interval-violated");

  auto Ok = parseProgramOrDie(R"(
    real x;
    proc main() {
      assert_interval(x, 0, 1);
      x := 7/2;
      while (x >= 0) { x := 1; }
    }
  )");
  ChecksDb OkDb = checkLeiaProg<poly::Zones>(*Ok);
  ASSERT_EQ(OkDb.total(), 1u);
  EXPECT_EQ(OkDb.records()[0].TheVerdict, Verdict::Safe);
  EXPECT_EQ(OkDb.records()[0].Code, "assert-interval-safe");
}

TEST(CheckerTest, MismatchedKindIsSkippedNotDropped) {
  auto Prog = parseProgramOrDie(
      "bool b; proc main() { assert_reward >= 1; b := true; }");
  ChecksDb Db = checkBi(*Prog);
  ASSERT_EQ(Db.total(), 1u);
  EXPECT_EQ(Db.records()[0].TheVerdict, Verdict::Skipped);
  EXPECT_EQ(Db.records()[0].Code, "assert-skipped");
}

TEST(CheckerTest, NonConvergedSolveDegradesToWarning) {
  auto Prog = parseProgramOrDie(R"(
    bool b;
    proc main() {
      assert_prob(b) >= 1/2;
      b ~ bernoulli(3/4);
    }
  )");
  ChecksDb Db = checkBi(*Prog, /*Converged=*/false);
  ASSERT_EQ(Db.total(), 1u);
  EXPECT_EQ(Db.records()[0].TheVerdict, Verdict::Warning);
  EXPECT_EQ(Db.records()[0].Code, "assert-prob-unproved");
}

TEST(CheckerTest, SafeVerdictsAreNotesNeverExitRelevant) {
  auto Prog = parseProgramOrDie(R"(
    bool b;
    proc main() {
      assert_prob(b) >= 1/2;
      b ~ bernoulli(3/4);
    }
  )");
  ChecksDb Db = checkBi(*Prog);
  DiagnosticEngine Strict;
  Strict.setWarningsAsErrors(true);
  reportChecks(Db, Strict);
  EXPECT_FALSE(Strict.hasErrors());
  EXPECT_EQ(Strict.warningCount(), 0u);
  ASSERT_EQ(Strict.diagnostics().size(), 1u);
  EXPECT_EQ(Strict.diagnostics()[0].Sev, Severity::Note);
}

TEST(CheckerTest, DbMergeTagAndJson) {
  auto Prog = parseProgramOrDie(R"(
    bool b;
    proc main() {
      assert_prob(b) >= 1/2;
      b ~ bernoulli(3/4);
    }
  )");
  ChecksDb A = checkBi(*Prog);
  A.tagFile("a.pp");
  ChecksDb B = checkBi(*Prog);
  B.tagFile("b.pp");
  ChecksDb Merged;
  Merged.merge(A);
  Merged.merge(B);
  EXPECT_EQ(Merged.total(), 2u);
  EXPECT_EQ(Merged.count(Verdict::Safe), 2u);
  EXPECT_EQ(Merged.codeCounts().at("assert-prob-safe"), 2u);
  EXPECT_EQ(Merged.records()[0].File, "a.pp");
  EXPECT_EQ(Merged.records()[1].File, "b.pp");
  std::string Json = Merged.toJson();
  EXPECT_NE(Json.find("\"total\": 2"), std::string::npos) << Json;
  EXPECT_NE(Json.find("assert-prob-safe"), std::string::npos) << Json;
  EXPECT_NE(Json.find("a.pp"), std::string::npos) << Json;
}

//===----------------------------------------------------------------------===//
// Soundness fuzz: verdicts must never contradict concrete semantics
//===----------------------------------------------------------------------===//

TEST(SoundnessFuzzTest, ProbAssertionsBi) {
  uint64_t Seed = concrete::Interpreter::seedFromEnv(0xB1);
  Rng R(Seed);
  const unsigned Runs = 2000;
  for (int Round = 0; Round != 30; ++Round) {
    auto Prog = testgen::randomBoolProgram(R, 3, 4);
    Stmt::Ptr A = fuzz::randomProbAssertion(R, *Prog);
    const Stmt *Planted = A.get();
    fuzz::plantAssertion(*Prog, std::move(A),
                         fuzz::randomInitPrologue(R, *Prog));
    ChecksDb Db = checkBi(*Prog);
    ASSERT_EQ(Db.total(), 1u);
    fuzz::GroundTruth GT =
        fuzz::estimateGroundTruth(*Prog, *Planted, Seed + Round, Runs);
    EXPECT_EQ(fuzz::soundnessViolation(*Planted, Db.records()[0].TheVerdict,
                                       GT, fuzzTol(*Planted, Runs)),
              "")
        << "round " << Round << " (" << Db.records()[0].Code << ")\n"
        << toString(*Prog);
  }
}

TEST(SoundnessFuzzTest, RewardAssertionsMdp) {
  uint64_t Seed = concrete::Interpreter::seedFromEnv(0x3D9);
  Rng R(Seed);
  const unsigned Runs = 2000;
  for (int Round = 0; Round != 30; ++Round) {
    testgen::BoolGenConfig C;
    C.NumVars = 2;
    C.NumStmts = 3;
    C.ObserveWeight = 0; // MDP semantics has no conditioning.
    auto Prog = testgen::randomBoolProgram(R, C);
    fuzz::sprinkleRewards(R, *Prog, 1 + R.below(3));
    Stmt::Ptr A = fuzz::randomRewardAssertion(R);
    const Stmt *Planted = A.get();
    fuzz::plantAssertion(*Prog, std::move(A),
                         fuzz::randomInitPrologue(R, *Prog));
    ChecksDb Db = checkMdpProg(*Prog);
    ASSERT_EQ(Db.total(), 1u);
    fuzz::GroundTruth GT =
        fuzz::estimateGroundTruth(*Prog, *Planted, Seed + Round, Runs);
    EXPECT_EQ(fuzz::soundnessViolation(*Planted, Db.records()[0].TheVerdict,
                                       GT, fuzzTol(*Planted, Runs)),
              "")
        << "round " << Round << " (" << Db.records()[0].Code << ")\n"
        << toString(*Prog);
  }
}

TEST(SoundnessFuzzTest, IntervalAssertionsLeia) {
  uint64_t Seed = concrete::Interpreter::seedFromEnv(0x1E1A);
  Rng R(Seed);
  const unsigned Runs = 2000;
  for (int Round = 0; Round != 20; ++Round) {
    auto Prog = testgen::randomRealProgram(R, 2, 3);
    Stmt::Ptr A = fuzz::randomIntervalAssertion(R, *Prog);
    const Stmt *Planted = A.get();
    fuzz::plantAssertion(*Prog, std::move(A),
                         fuzz::randomInitPrologue(R, *Prog));
    fuzz::GroundTruth GT =
        fuzz::estimateGroundTruth(*Prog, *Planted, Seed + Round, Runs);
    // Zones is the backend verify-corpus runs, poly the one `pmaf` runs by
    // default, and the ladder the other exact one. The exact backends get
    // 60 updates. Under the default seed every round converges within 50
    // but two, which run long on them and come out unproved: round 6
    // nests two probabilistic loops and needs 2,737 updates (3 s on the
    // ladder), and round 14's loop over a conditional gains EP facets at
    // every iteration, so each update costs more than the last (0.5 s at
    // 60 updates, 64 s at 120). See ROADMAP's Newton item.
    for (const auto &[Backend, Db] :
         {std::pair{"zones", checkLeiaProg<poly::Zones>(*Prog)},
          std::pair{"poly", checkLeiaProg<poly::Polyhedron>(*Prog, 60)},
          std::pair{"ladder", checkLeiaProg<poly::LadderValue>(*Prog, 60)}}) {
      ASSERT_EQ(Db.total(), 1u) << Backend;
      EXPECT_EQ(fuzz::soundnessViolation(*Planted,
                                         Db.records()[0].TheVerdict, GT,
                                         fuzzTol(*Planted, Runs)),
                "")
          << Backend << " round " << Round << " (" << Db.records()[0].Code
          << ")\n"
          << toString(*Prog);
    }
  }
}

} // namespace
