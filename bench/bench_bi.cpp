//===- bench/bench_bi.cpp - Table 2 (top): Bayesian inference -------------===//
//
// Regenerates the Bayesian-inference half of Table 2 of the paper: for each
// benchmark program, the program size (#loc), recursion kind, number of
// call sites, and the 20%-trimmed-mean analysis time over 5 runs. As a
// correctness column (the paper's §6.2 cross-check against PReMo), the
// terminating posterior mass from the all-false prior is printed next to
// the exact value computed by the PReMo-style equation solver where the
// model is state-independent, and by the forward Claret-et-al. baseline
// where it applies.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baselines/ClaretForward.h"
#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "driver/Pipeline.h"
#include "lang/Parser.h"

#include <benchmark/benchmark.h>

#include <cmath>

using namespace pmaf;
using namespace pmaf::core;

namespace {

struct Row {
  std::string Name;
  unsigned Loc = 0;
  char Rec = 'n';
  unsigned Calls = 0;
  double Seconds = 0.0;
  double PosteriorMass = 0.0;
  std::string CrossCheck;
  SolverStats Stats;
};

AnalysisResult<Matrix> analyzeOnce(const cfg::ProgramGraph &Graph,
                                   const driver::BiBox &Box) {
  SolverOptions Opts;
  driver::BiBox::preset(Opts);
  driver::BiBox::DomainT Copy = Box.Dom;
  return solve(Graph, Copy, Opts);
}

Row runProgram(const benchmarks::BenchProgram &Bench) {
  Row R;
  R.Name = Bench.Name;
  R.Loc = benchmarks::countLoc(Bench.Source);
  auto Prog = lang::parseProgramOrDie(Bench.Source);
  R.Rec = benchmarks::recursionKind(*Prog);
  R.Calls = Prog->countCalls();
  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
  driver::BiBox Box(*Prog);

  AnalysisResult<Matrix> Result = analyzeOnce(Graph, Box);
  R.Stats = Result.Stats;
  R.Seconds =
      bench::timedTrimmedMean([&] { analyzeOnce(Graph, Box); });

  unsigned Main = Prog->findProc("main");
  std::vector<double> Prior(Box.Space.numStates(), 0.0);
  Prior[0] = 1.0;
  std::vector<double> Post =
      Box.Dom.posterior(Result.Values[Graph.proc(Main).Entry], Prior);
  for (double P : Post)
    R.PosteriorMass += P;

  // Cross-check against the forward intraprocedural baseline where it
  // applies (no recursion; §5.1 describes exactly this gap).
  if (R.Rec == 'n') {
    baselines::ClaretForward Forward(Box.Space);
    std::vector<double> FwdPost = Forward.posterior(Main, Prior);
    double MaxDiff = 0.0;
    for (size_t S = 0; S != Post.size(); ++S)
      MaxDiff = std::max(MaxDiff, std::fabs(Post[S] - FwdPost[S]));
    char Buffer[64];
    std::snprintf(Buffer, sizeof(Buffer), "fwd agrees (max diff %.1e)",
                  MaxDiff);
    R.CrossCheck = Buffer;
  } else {
    R.CrossCheck = "(recursive: beyond the forward baseline)";
  }
  return R;
}

void registerTimingBenchmarks() {
  for (const auto &Bench : benchmarks::biPrograms()) {
    benchmark::RegisterBenchmark(
        (std::string("BI/") + Bench.Name).c_str(),
        [Source = Bench.Source](benchmark::State &State) {
          auto Prog = lang::parseProgramOrDie(Source);
          cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
          driver::BiBox Box(*Prog);
          for (auto _ : State)
            benchmark::DoNotOptimize(analyzeOnce(Graph, Box));
        })
        ->Unit(benchmark::kMillisecond);
  }
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = bench::extractStringFlag(argc, argv, "--json=");
  bench::JsonEmitter Json;
  std::printf("Table 2 (top): interprocedural Bayesian inference (§5.1)\n");
  bench::printRule(78);
  std::printf("%-12s %5s %4s %6s %9s  %10s  %s\n", "program", "#loc", "rec",
              "#call", "time(s)", "post.mass", "cross-check");
  bench::printRule(78);
  for (const auto &Bench : benchmarks::biPrograms()) {
    Row R = runProgram(Bench);
    std::printf("%-12s %5u %4c %6u %9.4f  %10.6f  %s\n", R.Name.c_str(),
                R.Loc, R.Rec, R.Calls, R.Seconds, R.PosteriorMass,
                R.CrossCheck.c_str());
    bench::BenchRecord Record;
    Record.Name = R.Name;
    Record.Seconds = R.Seconds;
    Record.NodeUpdates = R.Stats.NodeUpdates;
    Record.Widenings = R.Stats.WideningApplications;
    Record.InterpretCalls = R.Stats.InterpretCalls;
    Record.InterpretCacheHits = R.Stats.InterpretCacheHits;
    Json.add(std::move(Record));
  }
  bench::printRule(78);
  std::printf("\n");
  if (!Json.writeTo(JsonPath))
    std::fprintf(stderr, "warning: cannot write %s\n", JsonPath.c_str());

  registerTimingBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
