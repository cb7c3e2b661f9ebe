//===- tests/DifferentialLeiaTest.cpp - Ladder vs polyhedra LEIA ----------===//
//
// The exactness contract of the numeric-domain ladder, end to end: running
// the LEIA analysis of §5.3 with `--numeric=ladder` must produce the same
// invariants as the monolithic-polyhedra baseline, to the solver's own
// 1e-9 tolerance — on every LEIA benchmark of Table 1 and on seeded random
// real-valued programs covering affine assignments, sampling,
// probabilistic / conditional / demonic branching, probabilistically
// terminating loops, and widened counting loops.
//
// Comparison is semantic, not textual: each component of the ladder
// summary is converted to its exact polyhedron (LadderValue::toPolyhedron)
// and checked for mutual inclusion with the baseline at 1e-9 — the same
// approximate order the fixpoint detection uses, so a divergence the test
// tolerates is one the analysis itself cannot observe.
//
//===----------------------------------------------------------------------===//

#include "RandomProgramGen.h"
#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "domains/LeiaDomain.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;
using namespace pmaf::poly;

namespace {

constexpr double Tol = 1e-9;

/// Mutual approximate inclusion of a ladder component and its polyhedral
/// baseline.
bool sameSet(const LadderValue &L, const Polyhedron &P) {
  Polyhedron LP = L.toPolyhedron();
  return LP.containsApprox(P, Tol) && P.containsApprox(LP, Tol);
}

/// Runs the LEIA analysis of \p Prog under both backends and expects every
/// node summary to agree (P and EP components separately) at 1e-9.
///
/// \p SolveTolerance is the domains' internal fixpoint-detection tolerance.
/// The Table 1 benchmarks run at the production 1e-9: their §6.1-rounded
/// chains stabilize exactly, so the two backends land on literally equal
/// sets. Programs with free-running probabilistic loops stop on the
/// *approximate* equality instead, and the stopping iterate depends on the
/// comparison's representation (blockwise vs monolithic norms) — per-run
/// noise of order the tolerance that has nothing to do with ladder
/// exactness. The random families therefore solve at 1e-12, pushing that
/// noise three orders of magnitude below the 1e-9 comparison.
void expectBackendsAgree(const lang::Program &Prog, const std::string &Tag,
                         double SolveTolerance = 1e-9) {
  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(Prog);
  SolverOptions Opts;
  Opts.WideningDelay = 2; // Table 1 configuration.

  LeiaDomainT<Polyhedron> PolyDom(Prog, SolveTolerance);
  auto PolyResult = solve(Graph, PolyDom, Opts);
  LeiaDomainT<LadderValue> LadderDom(Prog, SolveTolerance);
  auto LadderResult = solve(Graph, LadderDom, Opts);

  ASSERT_EQ(PolyResult.Stats.Converged, LadderResult.Stats.Converged)
      << Tag << ": one backend converged, the other did not";
  ASSERT_EQ(PolyResult.Values.size(), LadderResult.Values.size());
  for (size_t Node = 0; Node != PolyResult.Values.size(); ++Node) {
    const auto &PV = PolyResult.Values[Node];
    const auto &LV = LadderResult.Values[Node];
    EXPECT_TRUE(sameSet(LV.P, PV.P))
        << Tag << ": P diverges at node " << Node << "\n  ladder: "
        << LadderDom.toString(LV) << "\n  poly:   " << PolyDom.toString(PV);
    EXPECT_TRUE(sameSet(LV.EP, PV.EP))
        << Tag << ": EP diverges at node " << Node << "\n  ladder: "
        << LadderDom.toString(LV) << "\n  poly:   " << PolyDom.toString(PV);
  }

  // At the production tolerance the rounded chains stabilize exactly, so
  // even the *printed* invariants at the entry of main — what Table 1
  // reports — must agree verbatim, line for line and in order.
  if (SolveTolerance == 1e-9) {
    unsigned Entry = Graph.proc(Prog.findProc("main")).Entry;
    EXPECT_EQ(LadderDom.describeInvariants(LadderResult.Values[Entry]),
              PolyDom.describeInvariants(PolyResult.Values[Entry]))
        << Tag << ": printed invariants diverge";
  }
}

} // namespace

TEST(DifferentialLeiaTest, AllLeiaBenchmarks) {
  for (const auto &Bench : benchmarks::leiaPrograms()) {
    auto Prog = lang::parseProgramOrDie(Bench.Source);
    expectBackendsAgree(*Prog, Bench.Name);
  }
}

TEST(DifferentialLeiaTest, RandomStraightLineHeavy) {
  // Mostly assignments and sampling: exercises composition and
  // probabilistic choice without widening.
  Rng R(1001);
  for (int Iter = 0; Iter != 12; ++Iter) {
    auto Prog = testgen::randomRealProgram(R, /*NumVars=*/3,
                                           /*NumStmts=*/4, /*Depth=*/1);
    expectBackendsAgree(*Prog,
                        "straight-line seed 1001 #" + std::to_string(Iter),
                        /*SolveTolerance=*/1e-12);
  }
}

TEST(DifferentialLeiaTest, RandomNested) {
  // Deeper nesting: branches inside loops inside branches, so join,
  // widening, and the two-vocabulary lift all fire on packed values.
  Rng R(2002);
  for (int Iter = 0; Iter != 10; ++Iter) {
    auto Prog = testgen::randomRealProgram(R, /*NumVars=*/3,
                                           /*NumStmts=*/3, /*Depth=*/2);
    expectBackendsAgree(*Prog, "nested seed 2002 #" + std::to_string(Iter),
                        /*SolveTolerance=*/1e-12);
  }
}

TEST(DifferentialLeiaTest, RandomWide) {
  // More variables than any single constraint touches: the regime where
  // variable packing pays, and where a packing bug would diverge.
  Rng R(3003);
  for (int Iter = 0; Iter != 8; ++Iter) {
    auto Prog = testgen::randomRealProgram(R, /*NumVars=*/5,
                                           /*NumStmts=*/4, /*Depth=*/2);
    expectBackendsAgree(*Prog, "wide seed 3003 #" + std::to_string(Iter),
                        /*SolveTolerance=*/1e-12);
  }
}
