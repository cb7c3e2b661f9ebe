//===- tests/BenchmarksTest.cpp - Regression net for the Table programs ---===//
//
// Validates the reconstructed §6.2 benchmark programs end-to-end: every
// program parses, lowers, and analyzes to convergence, and the analysis
// results match the values the tables (and hand calculation) predict.
// This keeps the bench binaries honest without running them under ctest.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "domains/BiDomain.h"
#include "domains/LeiaDomain.h"
#include "domains/MdpDomain.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;

namespace {

const benchmarks::BenchProgram &
findProgram(const std::vector<benchmarks::BenchProgram> &Table,
            const char *Name) {
  for (const auto &Bench : Table)
    if (std::string(Bench.Name) == Name)
      return Bench;
  ADD_FAILURE() << "no benchmark named " << Name;
  static benchmarks::BenchProgram Dummy{"", ""};
  return Dummy;
}

} // namespace

//===----------------------------------------------------------------------===//
// Table metadata
//===----------------------------------------------------------------------===//

TEST(BenchmarksTest, AllProgramsParseAndClassify) {
  struct Expected {
    const char *Name;
    char Rec;
  };
  const Expected LeiaMeta[] = {
      {"2d-walk", 'n'},   {"aggregate-rv", 'n'}, {"biased-coin", 'n'},
      {"binom-update", 'n'}, {"coupon5", 'n'},   {"dist", 'n'},
      {"eg", 'n'},        {"eg-tail", 't'},      {"hare-turtle", 'n'},
      {"hawk-dove", 'n'}, {"mot-ex", 'n'},       {"recursive", 'r'},
      {"uniform-dist", 'n'}};
  ASSERT_EQ(benchmarks::leiaPrograms().size(), std::size(LeiaMeta));
  for (size_t I = 0; I != std::size(LeiaMeta); ++I) {
    const auto &Bench = benchmarks::leiaPrograms()[I];
    EXPECT_STREQ(Bench.Name, LeiaMeta[I].Name);
    auto Prog = lang::parseProgramOrDie(Bench.Source);
    EXPECT_EQ(benchmarks::recursionKind(*Prog), LeiaMeta[I].Rec)
        << Bench.Name;
    EXPECT_GT(benchmarks::countLoc(Bench.Source), 0u);
  }
  // Table 2: the recursion column of the paper.
  EXPECT_EQ(benchmarks::recursionKind(*lang::parseProgramOrDie(
                findProgram(benchmarks::biPrograms(), "recursive").Source)),
            'r');
  EXPECT_EQ(benchmarks::recursionKind(*lang::parseProgramOrDie(
                findProgram(benchmarks::biPrograms(), "eg1-tail").Source)),
            't');
  EXPECT_EQ(benchmarks::recursionKind(*lang::parseProgramOrDie(
                findProgram(benchmarks::mdpPrograms(), "student").Source)),
            't');
}

//===----------------------------------------------------------------------===//
// Table 2 (top): BI results
//===----------------------------------------------------------------------===//

namespace {

std::vector<double> biPosterior(const char *Name, double *MassOut) {
  const auto &Bench = findProgram(benchmarks::biPrograms(), Name);
  auto Prog = lang::parseProgramOrDie(Bench.Source);
  BoolStateSpace Space(*Prog);
  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
  BiDomain Dom(Space);
  SolverOptions Opts;
  Opts.UseWidening = false;
  auto Result = solve(Graph, Dom, Opts);
  std::vector<double> Prior(Space.numStates(), 0.0);
  Prior[0] = 1.0;
  std::vector<double> Post = Dom.posterior(
      Result.Values[Graph.proc(Prog->findProc("main")).Entry], Prior);
  if (MassOut) {
    *MassOut = 0.0;
    for (double P : Post)
      *MassOut += P;
  }
  return Post;
}

} // namespace

// tests/cli/paper/<family>/<name>.pp is what the CLI pins run `pmaf` on;
// each must stay the embedded source (minus its leading newline), so the
// pinned answers are the paper programs' answers.
TEST(BenchmarksTest, CliPaperPinsUseTheEmbeddedSources) {
  auto Check = [](const char *Family,
                  const std::vector<benchmarks::BenchProgram> &Table) {
    for (const auto &Bench : Table) {
      std::string Path = std::string(PMAF_CLI_PAPER_DIR) + "/" + Family +
                         "/" + Bench.Name + ".pp";
      std::ifstream File(Path);
      ASSERT_TRUE(File) << "missing " << Path;
      std::ostringstream Text;
      Text << File.rdbuf();
      std::string Source = Bench.Source;
      if (!Source.empty() && Source.front() == '\n')
        Source.erase(0, 1);
      EXPECT_EQ(Text.str(), Source) << Path;
    }
  };
  Check("leia", benchmarks::leiaPrograms());
  Check("bi", benchmarks::biPrograms());
  Check("mdp", benchmarks::mdpPrograms());
}

TEST(BenchmarksTest, BiComparePosteriorIsThreeEighths) {
  double Mass = 0.0;
  std::vector<double> Post = biPosterior("compare", &Mass);
  EXPECT_NEAR(Mass, 1.0, 1e-9);
  // P[less] = P[A < B] for two uniform 2-bit numbers = 6/16.
  double PLess = 0.0;
  for (size_t S = 0; S != Post.size(); ++S)
    if (S & (1u << 4)) // variable `less` is index 4
      PLess += Post[S];
  EXPECT_NEAR(PLess, 6.0 / 16.0, 1e-9);
}

TEST(BenchmarksTest, BiDiceIsUniformOverSixFaces) {
  double Mass = 0.0;
  std::vector<double> Post = biPosterior("dice", &Mass);
  EXPECT_NEAR(Mass, 1.0, 1e-9);
  EXPECT_NEAR(Post[0], 0.0, 1e-9); // 000 rejected by the loop
  EXPECT_NEAR(Post[7], 0.0, 1e-9); // 111 rejected by the loop
  for (size_t S = 1; S != 7; ++S)
    EXPECT_NEAR(Post[S], 1.0 / 6.0, 1e-9) << "state " << S;
}

TEST(BenchmarksTest, BiTailRecursiveVariantsMatchTheLoopVersions) {
  std::vector<double> Loop = biPosterior("eg1", nullptr);
  std::vector<double> Tail = biPosterior("eg1-tail", nullptr);
  ASSERT_EQ(Loop.size(), Tail.size());
  for (size_t S = 0; S != Loop.size(); ++S)
    EXPECT_NEAR(Loop[S], Tail[S], 1e-7) << "state " << S;
}

TEST(BenchmarksTest, BiEg2ConditioningMass) {
  double Mass = 0.0;
  std::vector<double> Post = biPosterior("eg2", &Mass);
  EXPECT_NEAR(Mass, 0.625, 1e-9);
  EXPECT_NEAR(Post[3], 0.375, 1e-9); // (T,T)
}

TEST(BenchmarksTest, BiRecursiveTerminatesAlmostSurely) {
  double Mass = 0.0;
  std::vector<double> Post = biPosterior("recursive", &Mass);
  EXPECT_NEAR(Mass, 1.0, 1e-6);
  EXPECT_NEAR(Post[0], 1.0, 1e-6); // b = false at exit
}

//===----------------------------------------------------------------------===//
// Table 2 (bottom): MDP results
//===----------------------------------------------------------------------===//

TEST(BenchmarksTest, MdpExpectedRewards) {
  struct Expected {
    const char *Name;
    double Reward;
  } Cases[] = {
      {"binary10", 2.9},
      {"loop", 1.0},
      {"quicksort7", 13.485714285714286},
      {"recursive", 3.0},
      {"student", 20.133333333333333},
  };
  for (const auto &Case : Cases) {
    const auto &Bench = findProgram(benchmarks::mdpPrograms(), Case.Name);
    auto Prog = lang::parseProgramOrDie(Bench.Source);
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    MdpDomain Dom;
    SolverOptions Opts;
    Opts.WideningDelay = 10000;
    auto Result = solve(Graph, Dom, Opts);
    EXPECT_TRUE(Result.Stats.Converged) << Case.Name;
    EXPECT_NEAR(
        Result.Values[Graph.proc(Prog->findProc("main")).Entry],
        Case.Reward, 1e-6)
        << Case.Name;
  }
}

//===----------------------------------------------------------------------===//
// Table 1: LEIA results (the fast rows; the slow loop rows are covered by
// LeiaDomainTest and the bench binary)
//===----------------------------------------------------------------------===//

namespace {

struct LeiaRun {
  std::unique_ptr<lang::Program> Prog;
  std::unique_ptr<cfg::ProgramGraph> Graph;
  std::unique_ptr<LeiaDomain> Dom;
  AnalysisResult<LeiaValue> Result;

  explicit LeiaRun(const char *Name) {
    Prog = lang::parseProgramOrDie(
        findProgram(benchmarks::leiaPrograms(), Name).Source);
    Graph = std::make_unique<cfg::ProgramGraph>(
        cfg::ProgramGraph::build(*Prog));
    Dom = std::make_unique<LeiaDomain>(*Prog);
    SolverOptions Opts;
    Opts.WideningDelay = 2;
    Result = solve(*Graph, *Dom, Opts);
    EXPECT_TRUE(Result.Stats.Converged);
  }

  std::pair<double, double> bounds(std::vector<int64_t> Objective,
                                   std::vector<int64_t> Pre) {
    std::vector<Rational> Obj, PreR;
    for (int64_t O : Objective)
      Obj.push_back(Rational(O));
    for (int64_t P : Pre)
      PreR.push_back(Rational(P));
    auto [Lo, Hi] = Dom->expectationBounds(
        Result.Values[Graph->proc(Prog->findProc("main")).Entry], Obj,
        PreR);
    return {Lo ? Lo->toDouble() : -HUGE_VAL, Hi ? Hi->toDouble() : HUGE_VAL};
  }
};

} // namespace

TEST(BenchmarksTest, Leia2dWalkInvariants) {
  LeiaRun Run("2d-walk");
  // E[x'] = x, E[y'] = y, E[dist'] = dist, count <= E[count'] <= count+1.
  auto [XLo, XHi] = Run.bounds({1, 0, 0, 0}, {3, 5, 2, 7});
  EXPECT_DOUBLE_EQ(XLo, 3.0);
  EXPECT_DOUBLE_EQ(XHi, 3.0);
  auto [CLo, CHi] = Run.bounds({0, 0, 0, 1}, {3, 5, 2, 7});
  EXPECT_DOUBLE_EQ(CLo, 7.0);
  EXPECT_DOUBLE_EQ(CHi, 8.0);
}

TEST(BenchmarksTest, LeiaBinomUpdateInvariant) {
  LeiaRun Run("binom-update");
  // E[4x' - n'] = 4x - n at (x, n) = (2, 3): 4*2.25 - 4 = 5 = 4*2 - 3.
  auto [Lo, Hi] = Run.bounds({4, -1}, {2, 3});
  EXPECT_DOUBLE_EQ(Lo, 5.0);
  EXPECT_DOUBLE_EQ(Hi, 5.0);
}

TEST(BenchmarksTest, LeiaMotExInvariants) {
  LeiaRun Run("mot-ex");
  // E[2x' - y'] = 2x - y and E[4x' - 3count'] = 4x - 3count.
  auto [ALo, AHi] = Run.bounds({2, -1, 0}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(ALo, 0.0);
  EXPECT_DOUBLE_EQ(AHi, 0.0);
  auto [BLo, BHi] = Run.bounds({4, 0, -3}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(BLo, -5.0);
  EXPECT_DOUBLE_EQ(BHi, -5.0);
}

TEST(BenchmarksTest, LeiaUniformDistRanges) {
  LeiaRun Run("uniform-dist");
  auto [NLo, NHi] = Run.bounds({1, 0}, {3, 1});
  EXPECT_DOUBLE_EQ(NLo, 3.0);
  EXPECT_DOUBLE_EQ(NHi, 6.0);
  auto [GLo, GHi] = Run.bounds({0, 1}, {3, 1});
  EXPECT_DOUBLE_EQ(GLo, 1.0);
  EXPECT_DOUBLE_EQ(GHi, 2.5);
}

TEST(BenchmarksTest, LeiaRecursiveSummary) {
  LeiaRun Run("recursive");
  // The ε-converged chain sits just below the true fixpoint x + 9
  // (§6.1-style convergence at tolerance 1e-9 accumulated over the
  // nested recursion).
  auto [Lo, Hi] = Run.bounds({1}, {2});
  EXPECT_NEAR(Lo, 11.0, 1e-4);
  EXPECT_NEAR(Hi, 11.0, 1e-4);
}
