//===- tests/DifferentialBiTest.cpp - Dense vs ADD Bayesian inference -----===//
//
// The differential-testing harness for the ADD-backed Bayesian inference
// domain: every program — random programs across workload mixes
// (prob-heavy, ndet-heavy, call-heavy, mixed; tests/RandomProgramGen.h) and
// the full §6.2 BI benchmark suite — is solved over both BiDomain and
// AddBiDomain, and the posteriors at main's entry under a fixed prior must
// be equal to 1e-9 (dense matrix contraction vs ADD rename/multiply/
// sum-out accumulate in different orders, so exact equality is not
// expected across domains).
//
//===----------------------------------------------------------------------===//

#include "RandomProgramGen.h"

#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "domains/AddBiDomain.h"
#include "domains/BiDomain.h"
#include "lang/Ast.h"
#include "lang/Parser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;
using namespace pmaf::lang;

namespace {

std::vector<double> uniformPrior(const BoolStateSpace &Space) {
  return std::vector<double>(Space.numStates(),
                             1.0 / static_cast<double>(Space.numStates()));
}

/// Solves \p Graph over a fresh domain of type D and returns the
/// posterior at main's entry.
template <typename D>
std::vector<double> posteriorOf(const Program &Prog,
                                const cfg::ProgramGraph &Graph,
                                const BoolStateSpace &Space,
                                const std::string &Label) {
  D Dom(Space);
  SolverOptions Opts;
  Opts.UseWidening = false;
  auto Result = solve(Graph, Dom, Opts);
  EXPECT_TRUE(Result.Stats.Converged) << Label;
  unsigned Main = Prog.findProc("main");
  EXPECT_NE(Main, ~0u) << Label;
  if (Main == ~0u)
    return {};
  return Dom.posterior(Result.Values[Graph.proc(Main).Entry],
                       uniformPrior(Space));
}

/// The full differential check for one program.
void expectDenseMatchesAdd(const Program &Prog, const std::string &Name) {
  BoolStateSpace Space(Prog);
  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(Prog);
  std::vector<double> Dense =
      posteriorOf<BiDomain>(Prog, Graph, Space, "BiDomain " + Name);
  std::vector<double> Compact =
      posteriorOf<AddBiDomain>(Prog, Graph, Space, "AddBiDomain " + Name);
  ASSERT_EQ(Dense.size(), Compact.size()) << Name;
  for (size_t S = 0; S != Dense.size(); ++S)
    EXPECT_NEAR(Dense[S], Compact[S], 1e-9)
        << Name << ": dense vs ADD, state " << S;
}

void sweepConfig(const char *ConfigName, testgen::BoolGenConfig Config,
                 uint64_t Seed, int Rounds) {
  Rng R(Seed);
  for (int Round = 0; Round != Rounds; ++Round) {
    auto Prog = testgen::randomBoolProgram(R, Config);
    expectDenseMatchesAdd(*Prog,
                         std::string(ConfigName) + " round " +
                             std::to_string(Round));
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
  for (const benchmarks::BenchProgram &B : benchmarks::biPrograms()) {
    auto Prog = parseProgramOrDie(B.Source);
    expectDenseMatchesAdd(*Prog, B.Name);
  }
}
