//===- bench/bench_mdp.cpp - Table 2 (bottom): MDPs with rewards ----------===//
//
// Regenerates the MDP half of Table 2: program sizes, recursion kinds,
// call counts, and timed analyses, with the maximum expected reward
// computed by the PMAF instantiation of §5.2 cross-checked against the
// PReMo-style monotone-equation solver (§6.2: "Our framework computed the
// same answer as PReMo").
//
// quicksort7 models randomized quicksort on 7 elements (expected
// comparisons Theta(n log n)); binary10 models randomized binary search on
// 10 elements (Theta(log n)) — the two observations §6.2 highlights.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baselines/PolySystem.h"
#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "driver/Pipeline.h"
#include "lang/Parser.h"

#include <benchmark/benchmark.h>

using namespace pmaf;
using namespace pmaf::core;

namespace {

AnalysisResult<double> analyzeOnce(const cfg::ProgramGraph &Graph) {
  driver::MdpBox::DomainT Dom;
  SolverOptions Opts;
  driver::MdpBox::preset(Opts);
  return solve(Graph, Dom, Opts);
}

void registerTimingBenchmarks() {
  for (const auto &Bench : benchmarks::mdpPrograms()) {
    benchmark::RegisterBenchmark(
        (std::string("MDP/") + Bench.Name).c_str(),
        [Source = Bench.Source](benchmark::State &State) {
          auto Prog = lang::parseProgramOrDie(Source);
          cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
          for (auto _ : State)
            benchmark::DoNotOptimize(analyzeOnce(Graph));
        })
        ->Unit(benchmark::kMillisecond);
  }
}

} // namespace

int main(int argc, char **argv) {
  std::printf(
      "Table 2 (bottom): Markov decision processes with rewards (§5.2)\n");
  bench::printRule(78);
  std::printf("%-12s %5s %4s %6s %9s %12s %12s\n", "program", "#loc", "rec",
              "#call", "time(s)", "E[reward]", "PReMo-style");
  bench::printRule(78);
  for (const auto &Bench : benchmarks::mdpPrograms()) {
    auto Prog = lang::parseProgramOrDie(Bench.Source);
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    AnalysisResult<double> Result = analyzeOnce(Graph);
    double Seconds = bench::timedTrimmedMean([&] { analyzeOnce(Graph); });
    unsigned Entry = Graph.proc(Prog->findProc("main")).Entry;

    baselines::PolySystem Sys =
        baselines::rewardSystem(Graph, baselines::NdetResolution::Max);
    std::vector<double> Baseline = Sys.solveKleene(1e-13, 3000000);

    std::printf("%-12s %5u %4c %6u %9.4f %12.6f %12.6f\n", Bench.Name,
                benchmarks::countLoc(Bench.Source),
                benchmarks::recursionKind(*Prog), Prog->countCalls(),
                Seconds, Result.Values[Entry], Baseline[Entry]);
  }
  bench::printRule(78);
  std::printf("\n");

  registerTimingBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
