//===- tests/DifferentialBiTest.cpp - Bayesian inference vs Monte-Carlo ---===//
//
// A second opinion on random BI programs, including the call-heavy and
// nondeterministic ones RandomProgramTest leaves out: every program —
// random programs across workload mixes (prob-heavy, ndet-heavy,
// call-heavy, mixed; tests/RandomProgramGen.h) and the full §6.2 BI
// benchmark suite — is solved over BiDomain, and the posterior at main's
// entry from the all-false prior is compared with 20,000 runs of the
// concrete interpreter under its fair-coin scheduler. BI under-approximates
// the posterior under every scheduler (Thm 5.2), so each entry must be at
// most the sampled one plus 0.02; without ndet the two must agree to 0.02.
//
//===----------------------------------------------------------------------===//

#include "RandomProgramGen.h"

#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "concrete/Interpreter.h"
#include "core/Solver.h"
#include "domains/BiDomain.h"
#include "lang/Ast.h"
#include "lang/Parser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;
using namespace pmaf::lang;

namespace {

constexpr int Runs = 20000;
constexpr double Slack = 0.02;

bool hasNdet(const cfg::ProgramGraph &Graph) {
  return std::any_of(Graph.edges().begin(), Graph.edges().end(),
                     [](const cfg::HyperEdge &E) {
                       return E.Ctrl.TheKind ==
                              cfg::ControlAction::Kind::Ndet;
                     });
}

/// The posterior over main's post-states from the all-false prior as the
/// fraction of Runs sampled executions ending in each state; runs that
/// fail an observe or run out of fuel carry no mass.
std::vector<double> sampledPosterior(const Program &Prog, unsigned Main,
                                     const BoolStateSpace &Space,
                                     uint64_t Seed) {
  concrete::Interpreter Interp(Prog, Seed);
  std::vector<double> Mass(Space.numStates(), 0.0);
  for (int I = 0; I != Runs; ++I) {
    auto Run = Interp.run(Main, std::vector<double>(Space.numVars(), 0.0));
    if (!Run.terminated())
      continue;
    size_t State = 0;
    for (unsigned V = 0; V != Space.numVars(); ++V)
      State = Space.set(State, V, Run.State[V] != 0.0);
    Mass[State] += 1.0 / Runs;
  }
  return Mass;
}

/// The full differential check for one program.
void expectBiMatchesSampling(const Program &Prog, const std::string &Name,
                             uint64_t Seed) {
  BoolStateSpace Space(Prog);
  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(Prog);
  unsigned Main = Prog.findProc("main");
  ASSERT_NE(Main, ~0u) << Name;
  BiDomain Dom(Space);
  SolverOptions Opts;
  Opts.UseWidening = false;
  auto Result = solve(Graph, Dom, Opts);
  ASSERT_TRUE(Result.Stats.Converged) << Name;
  std::vector<double> Prior(Space.numStates(), 0.0);
  Prior[0] = 1.0;
  std::vector<double> Bi =
      Dom.posterior(Result.Values[Graph.proc(Main).Entry], Prior);
  std::vector<double> Sampled = sampledPosterior(Prog, Main, Space, Seed);
  bool HasNdet = hasNdet(Graph);
  for (size_t S = 0; S != Bi.size(); ++S) {
    if (HasNdet)
      EXPECT_LE(Bi[S], Sampled[S] + Slack)
          << Name << ", state " << S << "\n" << toString(Prog);
    else
      EXPECT_NEAR(Bi[S], Sampled[S], Slack)
          << Name << ", state " << S << "\n" << toString(Prog);
  }
}

void sweepConfig(const char *ConfigName, testgen::BoolGenConfig Config,
                 uint64_t Seed, int Rounds) {
  Rng R(Seed);
  for (int Round = 0; Round != Rounds; ++Round) {
    auto Prog = testgen::randomBoolProgram(R, Config);
    expectBiMatchesSampling(*Prog,
                            std::string(ConfigName) + " round " +
                                std::to_string(Round),
                            Seed + Round);
  }
}

} // namespace

TEST(DifferentialBiTest, ProbHeavyRandomPrograms) {
  sweepConfig("prob-heavy", testgen::BoolGenConfig::probHeavy(),
              20260801, 6);
}

TEST(DifferentialBiTest, NdetHeavyRandomPrograms) {
  sweepConfig("ndet-heavy", testgen::BoolGenConfig::ndetHeavy(),
              20260802, 6);
}

TEST(DifferentialBiTest, CallHeavyRandomPrograms) {
  sweepConfig("call-heavy", testgen::BoolGenConfig::callHeavy(),
              20260803, 6);
}

TEST(DifferentialBiTest, MixedRandomPrograms) {
  sweepConfig("mixed", testgen::BoolGenConfig::mixed(), 20260804, 6);
}

TEST(DifferentialBiTest, BiBenchmarkSuite) {
  uint64_t Seed = 20260805;
  for (const benchmarks::BenchProgram &B : benchmarks::biPrograms()) {
    auto Prog = parseProgramOrDie(B.Source);
    expectBiMatchesSampling(*Prog, B.Name, Seed++);
  }
}
