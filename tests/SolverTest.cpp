//===- tests/SolverTest.cpp - Generic solver behavior tests ---------------===//
//
// Exercises the interprocedural chaotic-iteration solver of §4.3-4.4
// through a deliberately simple hand-rolled domain, independent of the
// paper's three instantiations.
//
//===----------------------------------------------------------------------===//

#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

using namespace pmaf;
using namespace pmaf::core;

namespace {

/// A termination-probability-style test domain over [0, 1]: the value at a
/// node is the minimal probability of reaching the exit. This is an
/// under-approximation analysis (iterates up from 0, no widening needed for
/// convergence within tolerance) and makes solver behavior easy to predict.
class ReachDomain {
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
    return Prob * A + (1 - Prob) * B;
  }
  Value ndetChoice(const Value &A, const Value &B) const {
    return std::min(A, B);
  }
  Value interpret(const lang::Stmt *) const { return 1.0; }
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

static_assert(PreMarkovAlgebra<ReachDomain>);
static_assert(!Extrapolates<ReachDomain>);

/// ReachDomain offering \p Guess once, at the first widening: the solver
/// must keep it only if the next evaluation lies below it.
class GuessingReachDomain : public ReachDomain {
public:
  explicit GuessingReachDomain(double Guess) : Guess(Guess) {}
  std::optional<Value> extrapolate(const std::vector<Value> &) const {
    if (Offered)
      return std::nullopt;
    Offered = true;
    return Guess;
  }

private:
  double Guess;
  mutable bool Offered = false;
};

static_assert(Extrapolates<GuessingReachDomain>);

double mainReach(const char *Source, SolverStats *StatsOut = nullptr) {
  auto Prog = lang::parseProgramOrDie(Source);
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  ReachDomain Dom;
  auto Result = solve(G, Dom);
  if (StatsOut)
    *StatsOut = Result.Stats;
  EXPECT_TRUE(Result.Stats.Converged);
  return Result.Values[G.proc(Prog->findProc("main")).Entry];
}

} // namespace

TEST(SolverTest, ExitNodeIsPinnedAtOne) {
  auto Prog = lang::parseProgramOrDie("proc main() { skip; }");
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  ReachDomain Dom;
  auto Result = solve(G, Dom);
  EXPECT_DOUBLE_EQ(Result.Values[G.proc(0).Exit], 1.0);
  EXPECT_DOUBLE_EQ(Result.Values[G.proc(0).Entry], 1.0);
}

TEST(SolverTest, GeometricTerminationProbability) {
  // while prob(1/2) skip: terminates almost surely -> reach = 1.
  EXPECT_NEAR(mainReach(R"(
    proc main() { while prob(1/2) { skip; } }
  )"),
              1.0, 1e-6);
}

TEST(SolverTest, InfiniteLoopHasReachZero) {
  EXPECT_NEAR(mainReach(R"(
    proc main() { while (true) { skip; } }
  )"),
              0.0, 1e-9);
}

TEST(SolverTest, DemonicNdetTakesWorstBranch) {
  // The adversary can enter the infinite loop: min-reach 0.
  EXPECT_NEAR(mainReach(R"(
    proc main() { if star { while (true) { skip; } } else { skip; } }
  )"),
              0.0, 1e-9);
}

TEST(SolverTest, RecursiveOneHalfTermination) {
  // f terminates with prob p where p = 1/2 + 1/2 p^2 (two sequential
  // recursive calls) => p = 1: but float iteration converges slowly toward
  // 1; accept the known iterate band. Use single call: p = 1/2 + 1/2 p
  // => p = 1.
  EXPECT_NEAR(mainReach(R"(
    proc main() { if prob(1/2) { main(); } }
  )"),
              1.0, 1e-5);
}

TEST(SolverTest, TransientCriticalBranchingProcess) {
  // p = 1/3 + 2/3 p^2 has least fixpoint 1/2 (subcritical-to-transient
  // branching): two sequential recursive calls with prob 2/3.
  EXPECT_NEAR(mainReach(R"(
    proc main() { if prob(2/3) { main(); main(); } }
  )"),
              0.5, 1e-4);
}

TEST(SolverTest, StatsAreReported) {
  SolverStats Stats;
  mainReach(R"(
    proc main() { while prob(1/2) { skip; } }
  )",
            &Stats);
  EXPECT_GT(Stats.NodeUpdates, 0u);
  EXPECT_TRUE(Stats.Converged);
}

TEST(SolverTest, MaxUpdatesSafetyValve) {
  // Exhausting the update budget must (a) report Converged = false, and
  // (b) account honestly: the refused update is not counted, so the
  // reported NodeUpdates equals the budget exactly.
  auto Prog = lang::parseProgramOrDie(R"(
    proc main() { while prob(1/2) { skip; } }
  )");
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  ReachDomain Dom;
  SolverOptions Opts;
  Opts.MaxUpdates = 3;
  auto Result = solve(G, Dom, Opts);
  EXPECT_FALSE(Result.Stats.Converged);
  EXPECT_EQ(Result.Stats.NodeUpdates, 3u);
}

TEST(SolverTest, CallComposesSummaries) {
  // helper reaches exit with prob 1/2 (adversary may diverge); main calls
  // it twice -> 1/4.
  EXPECT_NEAR(mainReach(R"(
    proc helper() {
      if prob(1/2) { while (true) { skip; } }
    }
    proc main() { helper(); helper(); }
  )"),
              0.25, 1e-9);
}

TEST(SolverTest, InterpretCacheCallsOncePerSeqEdge) {
  // Two seq edges inside a loop: the old solver re-interpreted them on
  // every pass; the compiled-program layer must interpret each exactly
  // once and serve cache hits afterwards.
  auto Prog = lang::parseProgramOrDie(R"(
    proc main() { while prob(1/2) { skip; skip; } }
  )");
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  unsigned SeqEdges = 0;
  for (const cfg::HyperEdge &E : G.edges())
    SeqEdges += E.Ctrl.TheKind == cfg::ControlAction::Kind::Seq;
  ReachDomain Dom;
  auto Result = solve(G, Dom);
  EXPECT_TRUE(Result.Stats.Converged);
  EXPECT_LE(Result.Stats.InterpretCalls, SeqEdges);
  EXPECT_GT(Result.Stats.InterpretCacheHits, 0u);
}

TEST(SolverTest, CompiledProgramReuseSkipsReinterpretation) {
  auto Prog = lang::parseProgramOrDie(R"(
    proc main() { while prob(1/2) { skip; } }
  )");
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  ReachDomain Dom;
  CompiledProgram<ReachDomain> Compiled(G, Dom);
  auto First = solve(Compiled);
  EXPECT_GT(First.Stats.InterpretCalls, 0u);
  auto Second = solve(Compiled);
  EXPECT_EQ(Second.Stats.InterpretCalls, 0u); // All transformers cached.
  EXPECT_EQ(Second.Values.size(), First.Values.size());
  for (unsigned V = 0; V != First.Values.size(); ++V)
    EXPECT_TRUE(Dom.equal(First.Values[V], Second.Values[V]));
}

TEST(SolverTest, StatsRecordSolveLifecycle) {
  // One solve's record: the loop converges, updates and widens, compiles
  // each seq edge once and serves the rest from the cache; a cold solve
  // reuses nothing and resolves every WTO component (the while loop).
  auto Prog = lang::parseProgramOrDie(R"(
    proc main() { while prob(1/2) { skip; } }
  )");
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  ReachDomain Dom;
  CompiledProgram<ReachDomain> Compiled(G, Dom);
  auto Result = solve(Compiled);
  const SolverStats &Stats = Result.Stats;
  EXPECT_TRUE(Stats.Converged);
  EXPECT_GT(Stats.NodeUpdates, 0u);
  EXPECT_GT(Stats.WideningApplications, 0u);
  EXPECT_LE(Stats.WideningApplications, Stats.NodeUpdates);
  EXPECT_EQ(Stats.InterpretCalls, Compiled.interpretCalls());
  EXPECT_EQ(Stats.InterpretCacheHits, Compiled.interpretCacheHits());
  EXPECT_GT(Stats.InterpretCacheHits, 0u);
  EXPECT_EQ(Stats.NodesReused, 0u);
  EXPECT_EQ(Stats.SccsSkipped, 0u);
  EXPECT_EQ(Stats.SccsResolved, 1u);
  EXPECT_EQ(Stats.Extrapolations, 0u);
  EXPECT_EQ(Stats.ExtrapolationsAccepted, 0u);
}

TEST(SolverTest, ExtrapolatedCandidateNeedsTheExactCheck) {
  // while prob(1/2) skip: the loop head's least fixpoint is 1. A guess at
  // it passes the check (F(1) = 1) and ends the chain at once; a guess
  // below it (F(1/4) = 5/8) is rejected and the chain goes on to 1.
  auto Prog = lang::parseProgramOrDie(R"(
    proc main() { while prob(1/2) { skip; } }
  )");
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  const unsigned Entry = G.proc(0).Entry;
  ReachDomain Plain;
  auto Iterated = solve(G, Plain);

  GuessingReachDomain Right(1.0);
  CompiledProgram<GuessingReachDomain> RightC(G, Right);
  auto Shortcut = solve(RightC);
  EXPECT_EQ(Shortcut.Stats.Extrapolations, 1u);
  EXPECT_EQ(Shortcut.Stats.ExtrapolationsAccepted, 1u);
  EXPECT_EQ(Shortcut.Values[Entry], 1.0);
  EXPECT_LT(Shortcut.Stats.NodeUpdates, Iterated.Stats.NodeUpdates);
  EXPECT_TRUE(isPostFixpoint(RightC, Shortcut.Values));

  GuessingReachDomain Low(0.25);
  auto Rejected = solve(G, Low);
  EXPECT_EQ(Rejected.Stats.Extrapolations, 1u);
  EXPECT_EQ(Rejected.Stats.ExtrapolationsAccepted, 0u);
  EXPECT_TRUE(Rejected.Stats.Converged);
  EXPECT_NEAR(Rejected.Values[Entry], Iterated.Values[Entry], 1e-9);
}

TEST(SolverTest, PostFixpointCertificate) {
  // A solved system passes; a vector pushed below the fixpoint does not.
  auto Prog = lang::parseProgramOrDie(R"(
    proc main() { if prob(1/2) { skip; } else { skip; } }
  )");
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  ReachDomain Dom;
  CompiledProgram<ReachDomain> Compiled(G, Dom);
  auto Result = solve(Compiled);
  EXPECT_TRUE(isPostFixpoint(Compiled, Result.Values));
  Result.Values[G.proc(0).Entry] = 0.5;
  EXPECT_FALSE(isPostFixpoint(Compiled, Result.Values));
}

TEST(SolverTest, UnreachableProcedureStillAnalyzed) {
  auto Prog = lang::parseProgramOrDie(R"(
    proc dead() { while (true) { skip; } }
    proc main() { skip; }
  )");
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  ReachDomain Dom;
  auto Result = solve(G, Dom);
  EXPECT_NEAR(Result.Values[G.proc(Prog->findProc("dead")).Entry], 0.0,
              1e-9);
  EXPECT_NEAR(Result.Values[G.proc(Prog->findProc("main")).Entry], 1.0,
              1e-9);
}
