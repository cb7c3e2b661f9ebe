//===- bench/bench_widening_ablation.cpp - §4.4 widening ablation ---------===//
//
// Reproduces the design observation of §4.4: "if we used the same widening
// operator for all widening nodes, there could be a substantial loss in
// precision." Each Table 1 program is analyzed twice — once with the
// per-control-kind widening selection (cond/prob/ndet/call) and once with a
// single unified widening (NdetWideningDomain below, which applies the
// pessimistic ndet widening everywhere) — and the derived expectation
// invariants are compared.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "domains/LeiaDomain.h"
#include "lang/Parser.h"

#include <benchmark/benchmark.h>

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;

namespace {

/// \p D with every widening operator replaced by its ndet widening: the
/// solver still picks an operator per component, but all four coincide.
template <typename D> class NdetWideningDomain {
public:
  using Value = typename D::Value;

  explicit NdetWideningDomain(D &Inner) : Inner(Inner) {}

  Value bottom() const { return Inner.bottom(); }
  Value one() const { return Inner.one(); }
  Value extend(const Value &A, const Value &B) const {
    return Inner.extend(A, B);
  }
  Value condChoice(const lang::Cond &Phi, const Value &A,
                   const Value &B) const {
    return Inner.condChoice(Phi, A, B);
  }
  Value probChoice(const Rational &P, const Value &A, const Value &B) const {
    return Inner.probChoice(P, A, B);
  }
  Value ndetChoice(const Value &A, const Value &B) const {
    return Inner.ndetChoice(A, B);
  }
  Value interpret(const lang::Stmt *Act) const { return Inner.interpret(Act); }
  bool leq(const Value &A, const Value &B) const { return Inner.leq(A, B); }
  bool equal(const Value &A, const Value &B) const {
    return Inner.equal(A, B);
  }
  Value widenCond(const Value &A, const Value &B) const {
    return Inner.widenNdet(A, B);
  }
  Value widenProb(const Value &A, const Value &B) const {
    return Inner.widenNdet(A, B);
  }
  Value widenNdet(const Value &A, const Value &B) const {
    return Inner.widenNdet(A, B);
  }
  Value widenCall(const Value &A, const Value &B) const {
    return Inner.widenNdet(A, B);
  }
  std::string toString(const Value &A) const { return Inner.toString(A); }

private:
  D &Inner;
};

static_assert(PreMarkovAlgebra<NdetWideningDomain<LeiaDomain>>);

/// Solves \p Graph over \p Dom, or over its unified-widening wrapper.
AnalysisResult<LeiaValue> solveLeia(const cfg::ProgramGraph &Graph,
                                    LeiaDomain &Dom, const SolverOptions &Opts,
                                    bool Unified) {
  if (!Unified)
    return solve(Graph, Dom, Opts);
  NdetWideningDomain<LeiaDomain> Wrapped(Dom);
  return solve(Graph, Wrapped, Opts);
}

struct Outcome {
  unsigned Equalities = 0;
  unsigned Inequalities = 0;
  double Seconds = 0.0;
};

Outcome analyze(const benchmarks::BenchProgram &Bench, bool Unified) {
  auto Prog = lang::parseProgramOrDie(Bench.Source);
  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
  LeiaDomain Dom(*Prog);
  SolverOptions Opts;
  Opts.WideningDelay = 2;
  AnalysisResult<LeiaValue> Result = solveLeia(Graph, Dom, Opts, Unified);
  Outcome Out;
  Out.Seconds = bench::timedTrimmedMean([&] {
    LeiaDomain Fresh(*Prog);
    solveLeia(Graph, Fresh, Opts, Unified);
  }, 3);
  unsigned Entry = Graph.proc(Prog->findProc("main")).Entry;
  for (const std::string &Inv :
       Dom.describeInvariants(Result.Values[Entry])) {
    if (Inv.find("==") != std::string::npos)
      ++Out.Equalities;
    else
      ++Out.Inequalities;
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  std::printf("Ablation (§4.4): per-kind widening vs a single unified "
              "widening, LEIA on Table 1\n");
  bench::printRule(78);
  std::printf("%-14s | %-21s | %-21s\n", "", "per-kind (paper)",
              "unified (ablation)");
  std::printf("%-14s | %4s %4s %9s | %4s %4s %9s\n", "program", "#eq",
              "#ineq", "time(s)", "#eq", "#ineq", "time(s)");
  bench::printRule(78);
  unsigned LostEqualities = 0;
  for (const auto &Bench : benchmarks::leiaPrograms()) {
    Outcome PerKind = analyze(Bench, /*Unified=*/false);
    Outcome Unified = analyze(Bench, /*Unified=*/true);
    std::printf("%-14s | %4u %4u %9.4f | %4u %4u %9.4f%s\n", Bench.Name,
                PerKind.Equalities, PerKind.Inequalities, PerKind.Seconds,
                Unified.Equalities, Unified.Inequalities, Unified.Seconds,
                Unified.Equalities < PerKind.Equalities
                    ? "   << lost equalities"
                    : "");
    if (Unified.Equalities < PerKind.Equalities)
      LostEqualities += PerKind.Equalities - Unified.Equalities;
  }
  bench::printRule(78);
  std::printf("Unified widening loses %u expectation equalities across the "
              "suite.\n\n",
              LostEqualities);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
