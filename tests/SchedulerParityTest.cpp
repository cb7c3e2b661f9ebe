//===- tests/SchedulerParityTest.cpp - All schedulers, same fixpoint ------===//
//
// The scheduler layer (core/Schedule.h) promises that chaotic-iteration
// order is a performance knob, not a semantics knob: WTO-recursive,
// round-robin, and the dependency-driven worklist must reach Dom.equal
// fixpoints. This suite checks that node-by-node on every benchmark
// program of §6.2 (src/benchmarks/Programs.cpp) across all four domains —
// BI, ADD-backed BI, MDP, and LEIA — and additionally checks the
// interpret-cache invariant: each solve calls Dom.interpret at most once
// per `seq` edge, and only cache hits follow.
//
// The transformer cache promises more than tolerance-equality: a
// transformer is a pure function of its edge, so whether it was compiled
// up front (CompiledProgram::precompile), lazily during iteration, or by
// an earlier solve over the same compiled program must not change a
// single bit of the fixpoint — nor may the warm process-wide conversion
// memos a later solve finds. The BitIdentical* tests pin that down with
// exact comparisons (no tolerance): Matrix::operator== for BI, double ==
// for MDP, exact rational toString for LEIA, and NodeRef identity (one
// hash-consing manager) for ADD-BI.
//
// Two numeric subtleties the setup accounts for:
//  * Each solve stops when successive iterates agree to the domain's
//    tolerance (§6.1), so two iteration orders land on approximate
//    fixpoints a few ulps apart. Solves therefore run at the domain's
//    default (tight) tolerance while the cross-strategy comparison uses a
//    Dom.equal of the same domain type constructed with a looser
//    comparison tolerance.
//  * ADD NodeRefs are indices into a per-domain manager, so ADD-BI values
//    are only comparable within one AddBiDomain instance: its strategies
//    share a single domain (which also exercises transformer-cache reuse
//    across solves).
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "domains/AddBiDomain.h"
#include "domains/BiDomain.h"
#include "domains/LeiaDomain.h"
#include "domains/MdpDomain.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <type_traits>

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;

namespace {

constexpr IterationStrategy AllStrategies[] = {
    IterationStrategy::WtoRecursive,
    IterationStrategy::RoundRobin,
    IterationStrategy::Worklist,
};

/// Counts the `seq` hyper-edges of \p Graph (the interpret-cache key set).
unsigned countSeqEdges(const cfg::ProgramGraph &Graph) {
  unsigned Count = 0;
  for (const cfg::HyperEdge &Edge : Graph.edges())
    Count += Edge.Ctrl.TheKind == cfg::ControlAction::Kind::Seq;
  return Count;
}

/// Solves \p Graph under every strategy with a domain obtained from
/// \p MakeDomain (which may hand out the same instance every time), and
/// checks (a) all solves converge, (b) the interpret cache admits at most
/// one interpret per seq edge and solve, and (c) all fixpoints are equal
/// node-by-node under \p CompareDom's Dom.equal.
template <typename MakeDomainFn, typename CompareD>
void expectParity(const char *Name, const cfg::ProgramGraph &Graph,
                  SolverOptions Opts, MakeDomainFn MakeDomain,
                  CompareD &CompareDom) {
  auto Reference = [&] {
    decltype(auto) Dom = MakeDomain();
    Opts.Strategy = IterationStrategy::WtoRecursive;
    return solve(Graph, Dom, Opts);
  }();
  ASSERT_TRUE(Reference.Stats.Converged) << Name;
  for (IterationStrategy Strategy : AllStrategies) {
    decltype(auto) Dom = MakeDomain();
    Opts.Strategy = Strategy;
    auto Result = solve(Graph, Dom, Opts);
    ASSERT_TRUE(Result.Stats.Converged)
        << Name << " under " << toString(Strategy);
    EXPECT_LE(Result.Stats.InterpretCalls, countSeqEdges(Graph))
        << Name << " under " << toString(Strategy)
        << ": interpret-cache invariant violated";
    ASSERT_EQ(Result.Values.size(), Reference.Values.size());
    for (unsigned V = 0; V != Result.Values.size(); ++V)
      EXPECT_TRUE(CompareDom.equal(Result.Values[V], Reference.Values[V]))
          << Name << " under " << toString(Strategy) << ": node " << V
          << " differs from the WTO-recursive fixpoint\n  wto: "
          << CompareDom.toString(Reference.Values[V]) << "\n  "
          << toString(Strategy) << ": "
          << CompareDom.toString(Result.Values[V]);
  }
}

/// Solves lazily once as the reference, then over a fresh domain whose
/// compiled program had every transformer precompiled, then over that
/// compiled program again (every transformer a cache hit), and checks
/// both fixpoints are bit-identical to the reference under the exact
/// predicate \p Identical (no tolerance involved).
template <typename MakeDomainFn, typename IdenticalFn>
void expectBitIdentical(const char *Name, const cfg::ProgramGraph &Graph,
                        const SolverOptions &Opts, MakeDomainFn MakeDomain,
                        IdenticalFn Identical) {
  decltype(auto) RefDom = MakeDomain();
  auto Reference = solve(Graph, RefDom, Opts);
  ASSERT_TRUE(Reference.Stats.Converged) << Name;

  decltype(auto) Dom = MakeDomain();
  CompiledProgram<std::remove_reference_t<decltype(Dom)>> Compiled(Graph,
                                                                   Dom);
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

TEST(SchedulerParityTest, BiDomainOnAllBiPrograms) {
  for (const auto &Bench : benchmarks::biPrograms()) {
    auto Prog = lang::parseProgramOrDie(Bench.Source);
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    BoolStateSpace Space(*Prog);
    SolverOptions Opts;
    Opts.UseWidening = false; // §5.1: BI is an under-abstraction.
    BiDomain CompareDom(Space, /*Tolerance=*/1e-9);
    expectParity(Bench.Name, Graph, Opts, [&] { return BiDomain(Space); },
                 CompareDom);
  }
}

TEST(SchedulerParityTest, AddBiDomainOnAllBiPrograms) {
  for (const auto &Bench : benchmarks::biPrograms()) {
    auto Prog = lang::parseProgramOrDie(Bench.Source);
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    BoolStateSpace Space(*Prog);
    SolverOptions Opts;
    Opts.UseWidening = false;
    // One shared domain: ADD values are only comparable within a manager.
    AddBiDomain Shared(Space);
    expectParity(Bench.Name, Graph, Opts,
                 [&]() -> AddBiDomain & { return Shared; }, Shared);
  }
}

TEST(SchedulerParityTest, MdpDomainOnAllMdpPrograms) {
  for (const auto &Bench : benchmarks::mdpPrograms()) {
    auto Prog = lang::parseProgramOrDie(Bench.Source);
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    SolverOptions Opts;
    Opts.WideningDelay = 10000; // Geometric chains stabilize first (§5.2).
    MdpDomain CompareDom(/*Tolerance=*/1e-9);
    expectParity(Bench.Name, Graph, Opts, [] { return MdpDomain(); },
                 CompareDom);
  }
}

TEST(SchedulerParityTest, LeiaDomainOnAllLeiaPrograms) {
  for (const auto &Bench : benchmarks::leiaPrograms()) {
    auto Prog = lang::parseProgramOrDie(Bench.Source);
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    SolverOptions Opts;
    Opts.WideningDelay = 2; // Table 1 configuration.
    LeiaDomain CompareDom(*Prog, /*Tolerance=*/1e-6);
    expectParity(Bench.Name, Graph, Opts,
                 [&] { return LeiaDomain(*Prog); }, CompareDom);
  }
}

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

TEST(SchedulerParityTest, BitIdenticalAddBiDomain) {
  for (const auto &Bench : benchmarks::biPrograms()) {
    auto Prog = lang::parseProgramOrDie(Bench.Source);
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    BoolStateSpace Space(*Prog);
    SolverOptions Opts;
    Opts.UseWidening = false;
    // One shared domain makes NodeRef identity meaningful: hash-consing
    // gives every function one NodeRef in the manager.
    AddBiDomain Shared(Space);
    expectBitIdentical(Bench.Name, Graph, Opts,
                       [&]() -> AddBiDomain & { return Shared; },
                       [](add::NodeRef A, add::NodeRef B) { return A == B; });
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
