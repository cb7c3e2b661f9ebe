//===- tests/SchedulerParityTest.cpp - Bit-identical fixpoints -------------===//
//
// The transformer cache (core/CompiledProgram.h) promises that a
// transformer is a pure function of its edge, so whether it was compiled
// up front (CompiledProgram::precompile), lazily during iteration, or by
// an earlier solve over the same compiled program must not change a
// single bit of the fixpoint — nor may the warm process-wide conversion
// memos a later solve finds. The BitIdentical* tests pin that down on
// every benchmark program of §6.2 (src/benchmarks/Programs.cpp) across
// all three domains — BI, MDP, and LEIA — with exact comparisons (no
// tolerance): Matrix::operator== for BI, double == for MDP, and exact
// rational toString for LEIA. The reference solve must also
// converge and keep the interpret-cache invariant: Dom.interpret at most
// once per `seq` edge, and only cache hits after that.
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

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;

namespace {

/// Counts the `seq` hyper-edges of \p Graph (the interpret-cache key set).
unsigned countSeqEdges(const cfg::ProgramGraph &Graph) {
  unsigned Count = 0;
  for (const cfg::HyperEdge &Edge : Graph.edges())
    Count += Edge.Ctrl.TheKind == cfg::ControlAction::Kind::Seq;
  return Count;
}

/// Solves lazily once as the reference, which must converge and interpret
/// each `seq` edge at most once; then over a fresh domain whose compiled
/// program had every transformer precompiled, then over that compiled
/// program again (every transformer a cache hit), and checks both
/// fixpoints are bit-identical to the reference under the exact predicate
/// \p Identical (no tolerance involved).
template <typename MakeDomainFn, typename IdenticalFn>
void expectBitIdentical(const char *Name, const cfg::ProgramGraph &Graph,
                        const SolverOptions &Opts, MakeDomainFn MakeDomain,
                        IdenticalFn Identical) {
  auto RefDom = MakeDomain();
  auto Reference = solve(Graph, RefDom, Opts);
  ASSERT_TRUE(Reference.Stats.Converged) << Name;
  EXPECT_LE(Reference.Stats.InterpretCalls, countSeqEdges(Graph))
      << Name << ": interpret-cache invariant violated";

  auto Dom = MakeDomain();
  CompiledProgram<decltype(Dom)> Compiled(Graph, Dom);
  EXPECT_EQ(Compiled.precompile(), countSeqEdges(Graph)) << Name;
  for (const char *Run : {"precompiled", "cache-hit re-solve"}) {
    auto Result = solve(Compiled, Opts);
    ASSERT_TRUE(Result.Stats.Converged) << Name << " " << Run;
    EXPECT_EQ(Result.Stats.InterpretCalls, 0u) << Name << " " << Run;
    ASSERT_EQ(Reference.Values.size(), Result.Values.size());
    for (unsigned V = 0; V != Reference.Values.size(); ++V)
      EXPECT_TRUE(Identical(Reference.Values[V], Result.Values[V]))
          << Name << " " << Run << ": node " << V
          << " is not bit-identical to the lazily compiled fixpoint";
  }
}

} // namespace

TEST(SchedulerParityTest, BitIdenticalBiDomain) {
  for (const auto &Bench : benchmarks::biPrograms()) {
    auto Prog = lang::parseProgramOrDie(Bench.Source);
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    BoolStateSpace Space(*Prog);
    SolverOptions Opts;
    Opts.UseWidening = false;
    expectBitIdentical(Bench.Name, Graph, Opts,
                       [&] { return BiDomain(Space); },
                       [](const Matrix &A, const Matrix &B) { return A == B; });
  }
}

TEST(SchedulerParityTest, BitIdenticalMdpDomain) {
  for (const auto &Bench : benchmarks::mdpPrograms()) {
    auto Prog = lang::parseProgramOrDie(Bench.Source);
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    SolverOptions Opts;
    Opts.WideningDelay = 10000;
    expectBitIdentical(Bench.Name, Graph, Opts, [] { return MdpDomain(); },
                       [](double A, double B) { return A == B; });
  }
}

TEST(SchedulerParityTest, BitIdenticalLeiaDomain) {
  for (const auto &Bench : benchmarks::leiaPrograms()) {
    auto Prog = lang::parseProgramOrDie(Bench.Source);
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    SolverOptions Opts;
    Opts.WideningDelay = 2;
    LeiaDomain Printer(*Prog);
    expectBitIdentical(
        Bench.Name, Graph, Opts, [&] { return LeiaDomain(*Prog); },
        [&](const LeiaValue &A, const LeiaValue &B) {
          return Printer.toString(A) == Printer.toString(B);
        });
  }
}
