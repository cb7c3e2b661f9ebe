//===- tests/DifferentialLeiaTest.cpp - LEIA on polyhedra vs sampling -----===//
//
// The LEIA analysis of §5.3 on exact polyhedra (the default backend),
// checked against the concrete semantics: at the entry of main, the
// bounds the summary gives E[x_i'] from the all-zero pre-state must
// contain the mean of x_i over Monte-Carlo runs from that state — on every
// LEIA benchmark of Table 1 and on seeded random real-valued programs
// covering affine assignments, sampling, probabilistic / conditional /
// demonic branching, probabilistically terminating loops, and widened
// counting loops.
//
// The expectation LEIA bounds is over terminating runs (divergence and
// failed observations lose mass), so rejected and divergent runs count as
// 0. A run cut off by its step budget also counts as 0, which can only
// lower the mean of a nonnegative variable (the random programs keep every
// variable nonnegative; no Table 1 run is cut off); when any run is cut
// off, only the upper bound is judged. The tolerance is five standard
// errors of the sample mean plus a small floor for the solver's 1e-9
// stopping tolerance and float drift.
//
//===----------------------------------------------------------------------===//

#include "RandomProgramGen.h"
#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "concrete/Interpreter.h"
#include "core/Solver.h"
#include "domains/LeiaDomain.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <tuple>

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;

namespace {

constexpr unsigned Runs = 4000;
constexpr unsigned MaxSteps = 20000;

/// How many (program, variable) pairs a suite judged, and how many of
/// them on the upper bound alone.
struct Judged {
  unsigned Pairs = 0;
  unsigned UpperOnly = 0;

  void print(const char *Suite) const {
    std::printf("%s: %u (program, variable) pairs judged, %u on the upper "
                "bound only\n",
                Suite, Pairs, UpperOnly);
  }
};

/// Solves \p Prog on polyhedra and expects every variable's expectation
/// bounds at main's entry, from the all-zero pre-state, to contain its
/// Monte-Carlo mean from that state.
void expectBoundsContainMeans(const lang::Program &Prog,
                              const std::string &Tag, uint64_t Seed,
                              Judged &Count) {
  SCOPED_TRACE(Tag);
  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(Prog);
  SolverOptions Opts;
  Opts.WideningDelay = 2; // Table 1 configuration.
  LeiaDomain Dom(Prog);
  auto Result = solve(Graph, Dom, Opts);
  ASSERT_TRUE(Result.Stats.Converged);
  const unsigned Main = Prog.findProc("main");
  const LeiaValue &Summary = Result.Values[Graph.proc(Main).Entry];

  const unsigned N = Dom.numVars();
  std::vector<double> Sum(N, 0.0), SumSq(N, 0.0);
  bool CutOff = false;
  concrete::Interpreter Interp(Prog,
                               concrete::Interpreter::seedFromEnv(Seed));
  for (unsigned Run = 0; Run != Runs; ++Run) {
    concrete::ExecResult R = Interp.run(Main, {}, MaxSteps);
    CutOff |= R.TheStatus == concrete::ExecResult::Status::OutOfFuel;
    if (!R.terminated())
      continue;
    for (unsigned I = 0; I != N; ++I) {
      Sum[I] += R.State[I];
      SumSq[I] += R.State[I] * R.State[I];
    }
  }

  for (unsigned I = 0; I != N; ++I) {
    const double Mean = Sum[I] / Runs;
    const double Var = std::max(0.0, SumSq[I] / Runs - Mean * Mean);
    const double Tol =
        5.0 * std::sqrt(Var / Runs) + 0.02 * (1.0 + std::fabs(Mean));
    const std::string &Name = Prog.Vars[I].Name;
    std::optional<Rational> Lo, Hi;
    // A bottom summary says no run terminates: every expectation is 0.
    if (Summary.P.isEmpty()) {
      Lo = Hi = Rational(0);
    } else {
      std::vector<Rational> Objective(N, Rational(0));
      Objective[I] = Rational(1);
      std::tie(Lo, Hi) = Dom.expectationBounds(
          Summary, Objective, std::vector<Rational>(N, Rational(0)));
    }
    if (Hi) {
      EXPECT_GE(Hi->toDouble(), Mean - Tol)
          << "E[" << Name << "'] <= " << Hi->toDouble()
          << " excludes the sampled mean " << Mean << "\n"
          << Dom.toString(Summary);
    }
    if (Lo && !CutOff) {
      EXPECT_LE(Lo->toDouble(), Mean + Tol)
          << "E[" << Name << "'] >= " << Lo->toDouble()
          << " excludes the sampled mean " << Mean << "\n"
          << Dom.toString(Summary);
    }
    if (Hi || (Lo && !CutOff)) {
      ++Count.Pairs;
      Count.UpperOnly += CutOff;
    }
  }
}

} // namespace

TEST(DifferentialLeiaTest, AllLeiaBenchmarks) {
  Judged Count;
  uint64_t Seed = 1;
  for (const auto &Bench : benchmarks::leiaPrograms()) {
    auto Prog = lang::parseProgramOrDie(Bench.Source);
    expectBoundsContainMeans(*Prog, Bench.Name, Seed++, Count);
  }
  Count.print("Table 1");
  EXPECT_GT(Count.Pairs, 0u);
}

TEST(DifferentialLeiaTest, RandomStraightLineHeavy) {
  // Mostly assignments and sampling: exercises composition and
  // probabilistic choice without widening.
  Rng R(1001);
  Judged Count;
  for (int Iter = 0; Iter != 12; ++Iter) {
    auto Prog = testgen::randomRealProgram(R, /*NumVars=*/3,
                                           /*NumStmts=*/4, /*Depth=*/1);
    expectBoundsContainMeans(*Prog,
                             "straight-line seed 1001 #" +
                                 std::to_string(Iter),
                             1001 + Iter, Count);
  }
  Count.print("straight-line");
  EXPECT_GT(Count.Pairs, 0u);
}

TEST(DifferentialLeiaTest, RandomNested) {
  // Deeper nesting: branches inside loops inside branches, so join,
  // widening, and the two-vocabulary lift all fire.
  Rng R(2002);
  Judged Count;
  for (int Iter = 0; Iter != 10; ++Iter) {
    auto Prog = testgen::randomRealProgram(R, /*NumVars=*/3,
                                           /*NumStmts=*/3, /*Depth=*/2);
    expectBoundsContainMeans(*Prog,
                             "nested seed 2002 #" + std::to_string(Iter),
                             2002 + Iter, Count);
  }
  Count.print("nested");
  EXPECT_GT(Count.Pairs, 0u);
}

TEST(DifferentialLeiaTest, RandomWide) {
  // More variables than any single constraint touches, so most of the
  // two-vocabulary space is unconstrained by any one statement.
  Rng R(3003);
  Judged Count;
  for (int Iter = 0; Iter != 8; ++Iter) {
    auto Prog = testgen::randomRealProgram(R, /*NumVars=*/5,
                                           /*NumStmts=*/4, /*Depth=*/2);
    expectBoundsContainMeans(*Prog, "wide seed 3003 #" + std::to_string(Iter),
                             3003 + Iter, Count);
  }
  Count.print("wide");
  EXPECT_GT(Count.Pairs, 0u);
}
