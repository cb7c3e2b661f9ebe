//===- bench/bench_leia.cpp - Table 1: expectation-invariant analysis -----===//
//
// Regenerates Table 1 of the paper: for each of the 13 LEIA benchmarks,
// the derived linear expectation invariants, the program size, recursion
// kind, number of call sites, and two analysis times: one cold solve
// (the conversion caches cleared first, as in a fresh `pmaf` process) and
// the 20%-trimmed mean of warm re-solves that reuse its conversions. The
// recorded counters are the cold solve's, so they depend only on the
// program, not on which programs ran before it. Each record also says
// how many loop-head fixpoints the cold solve extrapolated and whether
// its result passes the exact post-fixpoint check (core::isPostFixpoint).
//
// Flags (beyond google-benchmark's own):
//   --numeric=poly|zones  numeric backend (default poly)
//   --programs=a,b,c      run only the named benchmarks
//   --json=<path>         write BENCH_*.json records
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "driver/Pipeline.h"
#include "lang/Parser.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <type_traits>

using namespace pmaf;
using namespace pmaf::core;

namespace {

/// Resolved --numeric backend; set once in main.
NumericBackend BenchNumeric = driver::defaultNumeric();

/// Names from --programs= (empty = run everything).
std::vector<std::string> ProgramFilter;

bool wantProgram(const char *Name) {
  if (ProgramFilter.empty())
    return true;
  for (const std::string &Want : ProgramFilter)
    if (Want == Name)
      return true;
  return false;
}

template <typename Box>
AnalysisResult<typename Box::DomainT::Value>
analyzeOnce(const cfg::ProgramGraph &Graph, const lang::Program &Prog) {
  Box B(Prog);
  SolverOptions Opts;
  Box::preset(Opts);
  Opts.Numeric = BenchNumeric;
  return solve(Graph, B.Dom, Opts);
}

void registerTimingBenchmarks() {
  for (const auto &Bench : benchmarks::leiaPrograms()) {
    if (!wantProgram(Bench.Name))
      continue;
    benchmark::RegisterBenchmark(
        (std::string("LEIA/") + Bench.Name).c_str(),
        [Source = Bench.Source](benchmark::State &State) {
          auto Prog = lang::parseProgramOrDie(Source);
          cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
          for (auto _ : State)
            driver::withLeiaBox(
                BenchNumeric, [&]<typename Box>(std::type_identity<Box>) {
                  benchmark::DoNotOptimize(analyzeOnce<Box>(Graph, *Prog));
                });
        })
        ->Unit(benchmark::kMillisecond);
  }
}

int runTable(const std::string &JsonPath) {
  bench::JsonEmitter Json;
  std::printf("Table 1: linear expectation-invariant analysis (§5.3)\n");
  std::printf("numeric backend: %s\n", toString(BenchNumeric));
  bench::printRule(88);
  std::printf("%-14s %5s %4s %6s %9s %9s  %s\n", "program", "#loc", "rec",
              "#call", "cold(s)", "warm(s)", "expectation invariants");
  bench::printRule(88);
  for (const auto &Bench : benchmarks::leiaPrograms()) {
    if (!wantProgram(Bench.Name))
      continue;
    auto Prog = lang::parseProgramOrDie(Bench.Source);
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    // Per-program peak counter (generator rows): the solver reports the
    // process-wide peak, so reset it before the measured run.
    // Clearing the conversion caches makes the first solve cold.
    poly::resetNumericPeaks();
    poly::clearConversionCaches();
    driver::withLeiaBox(BenchNumeric, [&]<typename Box>(
                                          std::type_identity<Box>) {
      auto ColdStart = std::chrono::steady_clock::now();
      auto Result = analyzeOnce<Box>(Graph, *Prog);
      double ColdSeconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - ColdStart)
                               .count();
      double Seconds =
          bench::timedTrimmedMean([&] { analyzeOnce<Box>(Graph, *Prog); });
      bench::BenchRecord Record;
      Record.Name = Bench.Name;
      Record.Seconds = Seconds;
      Record.ColdSeconds = ColdSeconds;
      Record.NodeUpdates = Result.Stats.NodeUpdates;
      Record.Widenings = Result.Stats.WideningApplications;
      Record.InterpretCalls = Result.Stats.InterpretCalls;
      Record.InterpretCacheHits = Result.Stats.InterpretCacheHits;
      Record.NumericBackend = toString(BenchNumeric);
      Record.ChernikovaCalls = Result.Stats.Numeric.MinimizationCalls;
      Record.ConversionCacheHits = Result.Stats.Numeric.ConversionCacheHits;
      Record.ConversionCacheMisses =
          Result.Stats.Numeric.ConversionCacheMisses;
      Record.PeakGeneratorRows = Result.Stats.Numeric.PeakGeneratorRows;
      Record.Extrapolations = Result.Stats.Extrapolations;
      Record.ExtrapolationsAccepted = Result.Stats.ExtrapolationsAccepted;
      Box B(*Prog);
      CompiledProgram<typename Box::DomainT> Compiled(Graph, B.Dom);
      Record.PostFixpointChecked = isPostFixpoint(Compiled, Result.Values);
      Json.add(std::move(Record));
      unsigned Entry = Graph.proc(Prog->findProc("main")).Entry;
      std::vector<std::string> Invariants =
          B.Dom.describeInvariants(Result.Values[Entry]);
      std::printf("%-14s %5u %4c %6u %9.4f %9.4f  ",
                  Bench.Name, benchmarks::countLoc(Bench.Source),
                  benchmarks::recursionKind(*Prog), Prog->countCalls(),
                  ColdSeconds, Seconds);
      if (Invariants.empty()) {
        std::printf("(none)\n");
      } else {
        std::printf("%s\n", Invariants[0].c_str());
        for (size_t I = 1; I != Invariants.size(); ++I)
          std::printf("%*s%s\n", 54, "", Invariants[I].c_str());
      }
      if (!Result.Stats.Converged)
        std::printf("%*s(did not converge!)\n", 54, "");
    });
  }
  bench::printRule(88);
  std::printf("\n");
  if (!Json.writeTo(JsonPath)) {
    std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = bench::extractStringFlag(argc, argv, "--json=");
  std::string NumericArg =
      bench::extractStringFlag(argc, argv, "--numeric=");
  if (!NumericArg.empty()) {
    auto Parsed = parseNumericBackend(NumericArg);
    if (!Parsed) {
      std::fprintf(stderr,
                   "error: unknown numeric backend '%s' (expected %s) "
                   "[invalid-flag-value]\n",
                   NumericArg.c_str(), NumericBackendNames);
      return 2;
    }
    BenchNumeric = *Parsed;
  }
  std::string ProgramsArg =
      bench::extractStringFlag(argc, argv, "--programs=");
  for (size_t Pos = 0; Pos < ProgramsArg.size();) {
    size_t Comma = ProgramsArg.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = ProgramsArg.size();
    if (Comma > Pos)
      ProgramFilter.push_back(ProgramsArg.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }

  if (int Failed = runTable(JsonPath))
    return Failed;

  registerTimingBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
