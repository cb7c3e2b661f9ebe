//===- bench/bench_bi_scaling.cpp - BI cost vs number of variables --------===//
//
// Reproduces the scaling observation of §6.2 — "The analysis time of
// Bayesian inference grows exponentially with respect to the number of
// program variables. The time cost comes from the explicit matrix
// representation of domain elements. One could use Algebraic Decision
// Diagrams as a compact representation to improve the efficiency." —
// by analyzing one family of programs with the dense-matrix domain
// (§5.1), reporting time and representation size per variable count.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "domains/BiDomain.h"
#include "lang/Parser.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;

namespace {

/// A family of Boolean programs over n variables: sample every variable,
/// then resample the first two until one is true (a Fig 1(a)-style loop
/// embedded in a growing state space).
std::string chainProgram(unsigned N) {
  std::string Decls = "bool";
  for (unsigned I = 0; I != N; ++I)
    Decls += std::string(I ? ", " : " ") + "v" + std::to_string(I);
  std::string Body;
  for (unsigned I = 0; I != N; ++I)
    Body += "v" + std::to_string(I) + " ~ bernoulli(0.5);\n";
  Body += "while (!v0 && !v1) {\n"
          "  v0 ~ bernoulli(0.5);\n"
          "  v1 ~ bernoulli(0.5);\n"
          "}\n";
  return Decls + ";\nproc main() {\n" + Body + "}\n";
}

} // namespace

int main(int argc, char **argv) {
  std::printf("Bayesian inference scaling in #vars (§6.2): dense matrices\n");
  bench::printRule(40);
  std::printf("%5s %14s %16s\n", "#vars", "dense time(s)", "dense entries");
  bench::printRule(40);
  // One dense value is 4^n doubles; the sweep stops before the time per
  // solve reaches seconds.
  for (unsigned N = 2; N <= 9; ++N) {
    std::string Source = chainProgram(N);
    auto Prog = lang::parseProgramOrDie(Source);
    BoolStateSpace Space(*Prog);
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    SolverOptions Opts;
    Opts.UseWidening = false;
    double Seconds = bench::timedTrimmedMean(
        [&] {
          BiDomain Dom(Space);
          solve(Graph, Dom, Opts);
        },
        3);
    std::printf("%5u %14.4f %16.3g\n", N, Seconds,
                static_cast<double>(Space.numStates()) *
                    static_cast<double>(Space.numStates()));
  }
  bench::printRule(40);
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
