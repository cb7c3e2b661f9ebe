//===- tools/pmaf.cpp - Command-line driver for the framework -------------===//
//
// Analyze a probabilistic program from the command line:
//
//   pmaf <file.pp> [--domain=leia|bi|mdp|termination] [--decompose]
//                  [--dot] [--stats] [--werror] [--diag-format=text|json]
//                  [--numeric=poly|zones]
//                  [--widening-delay=<n>] [--max-updates=<n>]
//   pmaf check <file.pp>... [--domain=leia|bi|mdp|termination]
//                  [--decompose] [--werror] [--diag-format=text|json]
//   pmaf verify-corpus <dir|file.pp>... [--jobs=<n>] [--seed=<n>]
//                  [--runs=<n>] [--max-updates=<n>] [--out=<file>]
//                  [--werror]
//   pmaf gen-corpus <dir> [--count=<n>] [--seed=<n>]
//                  [--family=bi|mdp|leia|mixed]
//
// With --domain=leia (default) prints the expectation invariants of every
// procedure summary; bi prints the posterior from the all-false prior;
// mdp prints greatest expected rewards; termination prints lower bounds
// on termination probabilities. --decompose applies the positive-negative
// decomposition (§6.2) first, for programs with signed variables. --dot
// prints the control-flow hyper-graphs in Graphviz syntax.
//
// Every analysis is preceded by the semantic lint (analysis/Lint.h):
// warnings go to stderr and the analysis proceeds; errors (including
// domain-precondition failures) abort with a nonzero exit. --werror
// promotes warnings to errors. `pmaf check` runs only the lint, over any
// number of files, and exits nonzero when any file has errors;
// --diag-format=json renders machine-readable diagnostics.
//
// --numeric (LEIA only) selects the numeric backend of the domain
// (core::NumericBackend): `poly` (the default) is the exact monolithic
// polyhedra of §5.3, and `zones` a cheap sound over-approximation
// restricted to the difference-bound fragment. Any other name is a usage
// error (exit 2, [invalid-flag-value]).
//
// The solver knobs map onto core::SolverOptions: --widening-delay the
// number of plain updates before widening kicks in (BI never widens, so
// there it draws an [option-ignored] warning), and --max-updates the
// node-update budget. Every solve runs on one thread, iterating a
// worklist in WTO order (core/Solver.h). --stats prints the settings the
// domain uses, the solve's counters (core::SolverStats) including the
// interpret-cache traffic and the numeric-layer counters, and the wall
// clock of the solve. For LEIA the solver line also counts the
// extrapolated loop-head fixpoints (offered / accepted by the exact
// check) and says whether one exact pass confirms F(X) ⊑ X at every node
// (core::isPostFixpoint).
//
// Every solve is followed by the checker layer (checks/Checker.h): each
// `assert_prob` / `assert_reward` / `assert_interval` statement is judged
// against the fixpoint annotation at its node and reported as a structured
// diagnostic with a stable code (assert-*-safe / -unproved / -violated /
// assert-skipped). A violated assertion exits 1; --werror additionally
// fails unproved and skipped assertions.
//
// `pmaf verify-corpus` fans a directory of programs across --jobs worker
// threads (default 4; 0 = one per hardware thread) — the only place the
// tool runs anything concurrently: per file it parses and lints against
// the auto-detected domain (driver/Domains.h), solves (LEIA on zones),
// runs the checker, and — for programs whose main starts with a planted
// assertion — spot-checks the verdict against a Monte-Carlo estimate of
// the ground truth (checks/Fuzz.h). Verdicts merge
// in file-name order into one ChecksDb whose JSON summary goes to --out or
// stdout, so the output does not depend on --jobs; any parse failure or
// soundness violation exits 1. `pmaf gen-corpus` writes such a corpus of
// random programs with planted assertions (deterministic in --seed).
// Elsewhere --jobs only draws an [option-ignored] warning.
//
// Every mode takes its per-domain decisions from driver/Pipeline.h, as
// pmafd does; --domain must name an entry of its table (else exit 2).
//
// Exit codes: 0 analysis converged; 1 lint/parse errors or failed checks;
// 2 usage errors; 3 the update budget (--max-updates) ran out before the
// fixpoint — the printed values are a mid-iteration snapshot, not the
// analysis answer.
//
//===----------------------------------------------------------------------===//

#include "checks/Fuzz.h"
#include "core/Solver.h"
#include "driver/Pipeline.h"
#include "support/JsonEscape.h"
#include "support/NumParse.h"
#include "support/ThreadPool.h"

// The corpus generator reuses the test suite's seeded program generators
// so `gen-corpus` and the differential tests draw from one distribution.
#include "RandomProgramGen.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

using namespace pmaf;
using namespace pmaf::core;
using support::parseFlag;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <file.pp | -> [--domain=leia|bi|mdp|termination]"
               " [--decompose] [--dot] [--stats] [--werror]"
               " [--diag-format=text|json]"
               " [--numeric=poly|zones]"
               " [--widening-delay=<n>] [--max-updates=<n>]\n"
               "       %s check <file.pp>..."
               " [--domain=leia|bi|mdp|termination] [--decompose]"
               " [--werror] [--diag-format=text|json]\n"
               "       %s verify-corpus <dir|file.pp>... [--jobs=<n>]"
               " [--seed=<n>] [--runs=<n>] [--max-updates=<n>]"
               " [--out=<file>] [--werror]\n"
               "       %s gen-corpus <dir> [--count=<n>] [--seed=<n>]"
               " [--family=bi|mdp|leia|mixed]\n",
               Argv0, Argv0, Argv0, Argv0);
  return 2;
}

/// The flags of one `pmaf <file>` run. The solver knobs overlay the
/// preset of the domain's box.
struct AnalyzeConfig {
  std::optional<unsigned> WideningDelay;
  std::optional<uint64_t> MaxUpdates;
  std::optional<NumericBackend> Numeric;
  bool Stats = false;
  bool Werror = false;
  bool Json = false;

  void apply(SolverOptions &Opts) const {
    if (WideningDelay)
      Opts.WideningDelay = *WideningDelay;
    if (MaxUpdates)
      Opts.MaxUpdates = *MaxUpdates;
    if (Numeric)
      Opts.Numeric = *Numeric;
  }

  /// Prints one solve's check verdicts, its --stats report, and a warning
  /// when the update budget ran out (the printed values are then only a
  /// mid-iteration snapshot); returns the exit code. \p Leia says whether
  /// the domain runs on a numeric backend; \p PostFixpoint is the solve's
  /// certificate, for the domains that extrapolate.
  int finish(const checks::ChecksDb &Db, const std::string &Path,
             const std::string &Source, const SolverOptions &Opts, bool Leia,
             const core::SolverStats &SolveStats, double SolveSeconds,
             std::optional<bool> PostFixpoint) const {
    DiagnosticEngine Diags;
    Diags.setSource(Path, Source);
    Diags.setWarningsAsErrors(Werror);
    const int Exit = driver::checkOutcome(Db, SolveStats.Converged, Diags);
    if (Db.total() != 0) {
      if (Json) {
        // Match the lint path: machine-readable diagnostics go to stderr
        // so stdout stays the (parseable-by-humans) analysis report.
        std::fprintf(stderr, "%s\n", Diags.renderJson().c_str());
      } else {
        std::printf("%s", Diags.renderAll().c_str());
        std::printf("checks: %s\n", Db.summary().c_str());
      }
    }
    if (Stats)
      printStats(Opts, Leia, SolveStats, SolveSeconds, PostFixpoint);
    if (!SolveStats.Converged)
      std::fprintf(stderr,
                   "warning: analysis did not converge: the update budget "
                   "(--max-updates=%llu) was exhausted; the reported values "
                   "are not a post-fixpoint\n",
                   static_cast<unsigned long long>(Opts.MaxUpdates));
    return Exit;
  }

  /// The --stats report: the settings the domain uses, then the solve's
  /// counters and its wall clock.
  static void printStats(const SolverOptions &Opts, bool Leia,
                         const core::SolverStats &S, double SolveSeconds,
                         std::optional<bool> PostFixpoint) {
    auto U = [](uint64_t N) { return static_cast<unsigned long long>(N); };
    std::printf("; settings: ");
    if (Opts.UseWidening)
      std::printf("widening delay %u, ", Opts.WideningDelay);
    std::printf("max updates %llu", U(Opts.MaxUpdates));
    if (Leia)
      std::printf(", numeric %s", core::toString(Opts.Numeric));
    std::printf("\n");
    if (!S.Converged)
      std::printf("; NOT CONVERGED: update budget exhausted after %llu "
                  "updates\n",
                  U(S.NodeUpdates));
    std::printf("; solver: %llu updates, %llu widenings, ", U(S.NodeUpdates),
                U(S.WideningApplications));
    if (PostFixpoint)
      std::printf("%llu extrapolations (%llu accepted), post-fixpoint=%s, ",
                  U(S.Extrapolations), U(S.ExtrapolationsAccepted),
                  *PostFixpoint ? "yes" : "no");
    std::printf("converged=%s\n"
                "; interpret cache: %llu misses (= distinct seq edges "
                "evaluated), %llu hits\n"
                "; wall clock: %.6f s\n",
                S.Converged ? "yes" : "NO", U(S.InterpretCalls),
                U(S.InterpretCacheHits), SolveSeconds);
    const core::NumericLayerStats &N = S.Numeric;
    if (N.MinimizationCalls == 0 && N.ConversionCacheHits == 0)
      return;
    std::printf("; numeric layer: %llu Chernikova minimizations (peak %u "
                "generator rows), conversion cache %llu hits / %llu misses "
                "(%llu evictions)\n",
                U(N.MinimizationCalls), N.PeakGeneratorRows,
                U(N.ConversionCacheHits), U(N.ConversionCacheMisses),
                U(N.CacheEvictions));
  }
};

bool readSource(const std::string &Path, std::string &Source) {
  std::ifstream File;
  if (Path != "-") {
    File.open(Path);
    if (!File)
      return false;
  }
  std::ostringstream Buffer;
  Buffer << (Path == "-" ? std::cin.rdbuf() : File.rdbuf());
  Source = Buffer.str();
  return true;
}

/// `pmaf check`: lint-only over any number of files; diagnostics go to
/// stdout, exit 1 when any file has errors.
int runCheck(const std::vector<std::string> &Files,
             const std::string &DomainName, bool Decompose, bool Werror,
             bool Json) {
  if (Files.empty()) {
    std::fprintf(stderr, "error: pmaf check requires at least one file\n");
    return 2;
  }
  bool AnyErrors = false;
  for (const std::string &Path : Files) {
    std::string Source;
    if (!readSource(Path, Source)) {
      std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
      AnyErrors = true;
      continue;
    }
    DiagnosticEngine Diags;
    Diags.setWarningsAsErrors(Werror);
    Diags.setSource(Path, Source);
    driver::frontEnd(Source, Diags, DomainName, Decompose);
    Diags.sortByLocation();
    if (Json)
      std::printf("%s\n", Diags.renderJson().c_str());
    else
      std::printf("%s", Diags.renderAll().c_str());
    if (Diags.hasErrors())
      AnyErrors = true;
  }
  return AnyErrors ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// verify-corpus / gen-corpus
//===----------------------------------------------------------------------===//

/// The planted assertion of a fuzz-shaped program: the first statement of
/// main when it is an assert, else null (the soundness spot-check only
/// applies to that shape — the all-zero initial state of the concrete runs
/// is then one of the quantified pre-states).
const lang::Stmt *plantedAssertion(const lang::Program &Prog) {
  unsigned Main = Prog.findProc("main");
  if (Main == ~0u)
    Main = 0;
  if (Prog.Procs.empty() || !Prog.Procs[Main].Body)
    return nullptr;
  const lang::Stmt *Body = Prog.Procs[Main].Body.get();
  while (Body->kind() == lang::Stmt::Kind::Block && !Body->stmts().empty())
    Body = Body->stmts().front().get();
  return Body->kind() == lang::Stmt::Kind::Assert ? Body : nullptr;
}

struct CorpusOptions {
  unsigned Jobs = 4;
  uint64_t Seed = 1;
  /// Monte-Carlo runs per soundness spot-check; 0 disables the oracle.
  unsigned Runs = 2000;
  uint64_t MaxUpdates = 200000;
  std::string OutPath;
  bool Werror = false;
};

struct CorpusFileOutcome {
  bool Ok = true;         ///< Parsed, linted, and solved without failure.
  bool Converged = true;  ///< Solver reached the fixpoint.
  checks::ChecksDb Db;
  std::string SoundnessViolation; ///< Nonempty = the oracle fired.
  std::string Error;              ///< Failure description when !Ok.
};

CorpusFileOutcome processCorpusFile(const std::string &Path,
                                    const CorpusOptions &Opts,
                                    uint64_t FileSeed) {
  CorpusFileOutcome Out;
  const auto Fail = [&Out](std::string Error) {
    Out.Ok = false;
    Out.Error = std::move(Error);
    return Out;
  };
  std::string Source;
  if (!readSource(Path, Source))
    return Fail("cannot open file");
  DiagnosticEngine Diags;
  Diags.setSource(Path, Source);
  driver::Parsed Front = driver::frontEnd(Source, Diags, "auto");
  if (!Front.Prog)
    return Fail("parse failed");
  if (Diags.hasErrors())
    return Fail("lint errors (domain " + std::string(Front.Domain->Name) +
                ")");
  const lang::Program &Prog = *Front.Prog;

  // LEIA runs on zones, not the default backend: a rare random loop
  // program keeps exact polyhedra busy for minutes (a loop over a
  // conditional can gain EP facets at every iteration), and corpus
  // verification needs bounded per-file cost. Zones stays relational (it
  // keeps the exit identity x' = x) at polynomial cost, and the checker
  // verdict logic is backend-independent.
  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(Prog);
  driver::withBox(*Front.Domain, NumericBackend::Zones,
                  [&]<typename Box>(std::type_identity<Box>) {
                    Box B(Prog);
                    SolverOptions SOpts;
                    Box::preset(SOpts);
                    SOpts.MaxUpdates = Opts.MaxUpdates;
                    auto Result = solve(Graph, B.Dom, SOpts);
                    Out.Converged = Result.Stats.Converged;
                    checks::CheckerOptions COpts;
                    COpts.Converged = Result.Stats.Converged;
                    Out.Db = B.check(Graph, Result.Values, COpts);
                  });

  // Soundness spot-check for fuzz-shaped programs. Checker records are in
  // collectAssertions order, so the planted assertion's verdict is at the
  // matching index.
  const lang::Stmt *Planted = plantedAssertion(Prog);
  if (Planted && Opts.Runs && Out.Converged) {
    auto Asserts = checks::collectAssertions(Graph);
    for (size_t I = 0; I != Asserts.size(); ++I) {
      if (Asserts[I].second != Planted)
        continue;
      checks::fuzz::GroundTruth GT = checks::fuzz::estimateGroundTruth(
          Prog, *Planted, FileSeed, Opts.Runs);
      Out.SoundnessViolation = checks::fuzz::soundnessViolation(
          *Planted, Out.Db.records()[I].TheVerdict, GT,
          checks::fuzz::soundnessTolerance(*Planted, Opts.Runs));
      break;
    }
  }
  return Out;
}

int runVerifyCorpus(const std::vector<std::string> &Paths,
                    const CorpusOptions &Opts) {
  namespace fs = std::filesystem;
  std::vector<std::string> Files;
  for (const std::string &P : Paths) {
    std::error_code Ec;
    // A path that does not exist is a usage error, not a corpus with one
    // unreadable file: surface it with a stable code and exit 2 instead
    // of burying "cannot open file" in the per-file failure list.
    if (P != "-" && !fs::exists(P, Ec)) {
      std::fprintf(stderr,
                   "error: verify-corpus path does not exist: %s "
                   "[corpus-path-missing]\n",
                   P.c_str());
      return 2;
    }
    if (fs::is_directory(P, Ec)) {
      for (const fs::directory_entry &E : fs::directory_iterator(P, Ec))
        if (E.path().extension() == ".pp")
          Files.push_back(E.path().string());
    } else {
      Files.push_back(P);
    }
  }
  std::sort(Files.begin(), Files.end());
  if (Files.empty()) {
    std::fprintf(stderr, "error: verify-corpus found no .pp files to check "
                         "[corpus-empty]\n");
    return 2;
  }

  // Each worker fills only its file's slot; the merge below walks the
  // slots in file order, so the output is the same for every --jobs.
  std::vector<CorpusFileOutcome> Outcomes(Files.size());
  support::ThreadPool Pool(Opts.Jobs
                               ? Opts.Jobs
                               : support::ThreadPool::hardwareConcurrency());
  Pool.parallelFor(size_t(0), Files.size(), [&](size_t I) {
    CorpusFileOutcome &Out = Outcomes[I];
    try {
      Out = processCorpusFile(Files[I], Opts,
                              Opts.Seed + I * 0x9e3779b97f4a7c15ull);
    } catch (const std::exception &E) {
      Out.Ok = false;
      Out.Error = std::string("exception: ") + E.what();
    }
    Out.Db.tagFile(Files[I]);
  });

  checks::ChecksDb Global;
  unsigned Failed = 0, NotConverged = 0;
  std::vector<std::string> Violations, Failures;
  for (size_t I = 0; I != Files.size(); ++I) {
    const CorpusFileOutcome &Out = Outcomes[I];
    Global.merge(Out.Db);
    if (!Out.Ok) {
      ++Failed;
      Failures.push_back(Files[I] + ": " + Out.Error);
    }
    if (!Out.Converged)
      ++NotConverged;
    if (!Out.SoundnessViolation.empty())
      Violations.push_back(Files[I] + ": " + Out.SoundnessViolation);
  }

  std::string Json = "{\"files\": " + std::to_string(Files.size());
  Json += ", \"failed\": " + std::to_string(Failed);
  Json += ", \"not_converged\": " + std::to_string(NotConverged);
  Json += ", \"soundness_violations\": [";
  for (size_t I = 0; I != Violations.size(); ++I) {
    if (I)
      Json += ", ";
    Json += '"';
    support::appendJsonEscaped(Json, Violations[I]);
    Json += '"';
  }
  Json += "], \"checks\": " + Global.toJson() + "}";
  if (!Opts.OutPath.empty()) {
    std::ofstream OutFile(Opts.OutPath);
    if (!OutFile) {
      std::fprintf(stderr, "error: cannot write %s\n", Opts.OutPath.c_str());
      return 1;
    }
    OutFile << Json << "\n";
  } else {
    std::printf("%s\n", Json.c_str());
  }

  for (const std::string &F : Failures)
    std::fprintf(stderr, "error: %s\n", F.c_str());
  for (const std::string &V : Violations)
    std::fprintf(stderr, "error: SOUNDNESS VIOLATION: %s\n", V.c_str());
  std::fprintf(stderr,
               "verify-corpus: %zu files, %u failed, %u not converged, "
               "%zu soundness violations; checks: %s\n",
               Files.size(), Failed, NotConverged, Violations.size(),
               Global.summary().c_str());
  bool WerrorFail =
      Opts.Werror && (Global.count(checks::Verdict::Warning) != 0 ||
                      Global.count(checks::Verdict::Skipped) != 0);
  return (Failed || !Violations.empty() || WerrorFail) ? 1 : 0;
}

int runGenCorpus(const std::string &Dir, unsigned Count, uint64_t Seed,
                 const std::string &Family) {
  namespace fs = std::filesystem;
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  if (Ec || !fs::is_directory(Dir, Ec)) {
    std::fprintf(stderr,
                 "error: cannot create corpus directory %s "
                 "[corpus-dir-unwritable]\n",
                 Dir.c_str());
    return 1;
  }
  for (unsigned I = 0; I != Count; ++I) {
    Rng R(Seed + I * 0x9e3779b97f4a7c15ull + 1);
    std::string Kind = Family;
    if (Kind == "mixed")
      Kind = I % 3 == 0 ? "bi" : I % 3 == 1 ? "mdp" : "leia";
    std::unique_ptr<lang::Program> Prog;
    lang::Stmt::Ptr Assertion;
    if (Kind == "leia") {
      Prog = testgen::randomRealProgram(
          R, 2 + static_cast<unsigned>(R.below(2)),
          3 + static_cast<unsigned>(R.below(2)));
      Assertion = checks::fuzz::randomIntervalAssertion(R, *Prog);
    } else {
      testgen::BoolGenConfig C;
      C.NumVars = 2 + static_cast<unsigned>(R.below(2));
      C.NumStmts = 3 + static_cast<unsigned>(R.below(3));
      if (R.below(3) == 0) {
        C.HelperProcs = 2;
        C.CallWeight = 2;
      }
      if (Kind == "mdp") {
        // The MDP domain treats observe as the identity while the concrete
        // semantics rejects the run; keep the fuzz distribution inside the
        // fragment both readings agree on.
        C.ObserveWeight = 0;
        Prog = testgen::randomBoolProgram(R, C);
        checks::fuzz::sprinkleRewards(R, *Prog,
                                      1 + static_cast<unsigned>(R.below(3)));
        Assertion = checks::fuzz::randomRewardAssertion(R);
      } else {
        Prog = testgen::randomBoolProgram(R, C);
        Assertion = checks::fuzz::randomProbAssertion(R, *Prog);
      }
    }
    // Half the corpus gets the decisive shape (assertion, then a constant
    // prologue collapsing all pre-state rows); the other half keeps the
    // raw pre-state dependence, exercising the for-all-pre-states
    // warnings.
    std::vector<lang::Stmt::Ptr> Prologue;
    if (R.below(2) == 0)
      Prologue = checks::fuzz::randomInitPrologue(R, *Prog);
    checks::fuzz::plantAssertion(*Prog, std::move(Assertion),
                                 std::move(Prologue));
    char Name[32];
    std::snprintf(Name, sizeof(Name), "prog_%05u.pp", I);
    std::ofstream OutFile(fs::path(Dir) / Name);
    if (!OutFile) {
      std::fprintf(stderr, "error: cannot write %s/%s\n", Dir.c_str(), Name);
      return 1;
    }
    OutFile << lang::toString(*Prog);
  }
  std::printf("gen-corpus: wrote %u programs to %s\n", Count, Dir.c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  bool CheckMode = argc > 1 && std::strcmp(argv[1], "check") == 0;
  bool CorpusMode = argc > 1 && std::strcmp(argv[1], "verify-corpus") == 0;
  bool GenMode = argc > 1 && std::strcmp(argv[1], "gen-corpus") == 0;
  std::vector<std::string> Paths;
  std::string Domain = "leia";
  bool DomainExplicit = false;
  bool Decompose = false, EmitDot = false;
  uint64_t Seed = 1;
  unsigned Count = 100, Runs = 2000;
  std::string OutPath, Family = "mixed";
  std::optional<unsigned> Jobs;
  AnalyzeConfig Config;
  for (int I = (CheckMode || CorpusMode || GenMode) ? 2 : 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--domain=", 0) == 0) {
      Domain = Arg.substr(9);
      DomainExplicit = true;
      if (!driver::findDomain(Domain)) {
        std::fprintf(stderr,
                     "error: unknown domain '%s' (expected %s) "
                     "[unknown-domain]\n",
                     Domain.c_str(), driver::domainNames().c_str());
        return 2;
      }
    } else if (Arg == "--decompose")
      Decompose = true;
    else if (Arg == "--werror")
      Config.Werror = true;
    else if (Arg.rfind("--diag-format=", 0) == 0) {
      std::string Format = Arg.substr(14);
      if (Format == "json")
        Config.Json = true;
      else if (Format != "text")
        return usage(argv[0]);
    } else if (Arg == "--dot")
      EmitDot = true;
    else if (Arg == "--stats")
      Config.Stats = true;
    else if (Arg.rfind("--numeric=", 0) == 0) {
      Config.Numeric = parseNumericBackend(Arg.substr(10));
      if (!Config.Numeric) {
        std::fprintf(stderr,
                     "error: unknown numeric backend '%s' (expected %s) "
                     "[invalid-flag-value]\n",
                     Arg.substr(10).c_str(), NumericBackendNames);
        return 2;
      }
    } else if (Arg.rfind("--widening-delay=", 0) == 0) {
      if (!parseFlag(Arg, "--widening-delay", Config.WideningDelay.emplace()))
        return 2;
    } else if (Arg.rfind("--max-updates=", 0) == 0) {
      if (!parseFlag(Arg, "--max-updates", Config.MaxUpdates.emplace()))
        return 2;
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseFlag(Arg, "--jobs", Jobs.emplace()))
        return 2;
    } else if (Arg.rfind("--seed=", 0) == 0) {
      if (!parseFlag(Arg, "--seed", Seed))
        return 2;
    } else if (Arg.rfind("--runs=", 0) == 0) {
      if (!parseFlag(Arg, "--runs", Runs))
        return 2;
    } else if (Arg.rfind("--count=", 0) == 0) {
      if (!parseFlag(Arg, "--count", Count))
        return 2;
    } else if (Arg.rfind("--out=", 0) == 0)
      OutPath = Arg.substr(6);
    else if (Arg.rfind("--family=", 0) == 0) {
      Family = Arg.substr(9);
      if (Family != "bi" && Family != "mdp" && Family != "leia" &&
          Family != "mixed")
        return usage(argv[0]);
    } else if (Arg[0] == '-' && Arg != "-")
      return usage(argv[0]);
    else
      Paths.push_back(Arg);
  }

  const char *JobsIgnored =
      "--jobs sets the worker count of verify-corpus; every other mode "
      "runs on one thread";
  if (Jobs && (CheckMode || GenMode))
    std::fprintf(stderr, "warning: %s [option-ignored]\n", JobsIgnored);
  if (CheckMode)
    return runCheck(Paths, DomainExplicit ? Domain : std::string(),
                    Decompose, Config.Werror, Config.Json);
  if (CorpusMode) {
    CorpusOptions COpts;
    if (Jobs)
      COpts.Jobs = *Jobs;
    COpts.Seed = Seed;
    COpts.Runs = Runs;
    if (Config.MaxUpdates)
      COpts.MaxUpdates = *Config.MaxUpdates;
    COpts.OutPath = OutPath;
    COpts.Werror = Config.Werror;
    return runVerifyCorpus(Paths, COpts);
  }
  if (GenMode) {
    if (Paths.size() != 1)
      return usage(argv[0]);
    return runGenCorpus(Paths[0], Count, Seed, Family);
  }
  if (Paths.size() != 1)
    return usage(argv[0]);
  const std::string &Path = Paths[0];

  std::string Source;
  if (!readSource(Path, Source)) {
    std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
    return 1;
  }

  // Pre-analysis lint: warnings are advisory, errors (parse failures,
  // type errors, domain-precondition violations) stop the analysis.
  DiagnosticEngine Diags;
  Diags.setWarningsAsErrors(Config.Werror);
  // Flags that only affect the LEIA path are diagnosed, not silently
  // dropped, when another domain was selected.
  if (Config.Numeric && Domain != "leia")
    Diags.report(Severity::Warning, {}, "option-ignored",
                 "--numeric selects the LEIA numeric backend and has no "
                 "effect with --domain=" +
                     Domain);
  if (Config.WideningDelay && Domain == "bi")
    Diags.report(Severity::Warning, {}, "option-ignored",
                 "--widening-delay delays widening, which the BI analysis "
                 "never applies; it has no effect with --domain=bi");
  if (Decompose && Domain != "leia")
    Diags.report(Severity::Warning, {}, "option-ignored",
                 "--decompose targets signed variables of LEIA runs; with "
                 "--domain=" +
                     Domain + " it does not change the analysis");
  if (Jobs)
    Diags.report(Severity::Warning, {}, "option-ignored", JobsIgnored);
  Diags.setSource(Path, Source);
  driver::Parsed Front = driver::frontEnd(Source, Diags, Domain, Decompose);
  Diags.sortByLocation();
  if (!Diags.empty()) {
    if (Config.Json)
      std::fprintf(stderr, "%s\n", Diags.renderJson().c_str());
    else
      std::fprintf(stderr, "%s", Diags.renderAll().c_str());
  }
  if (!Front.Prog || Diags.hasErrors())
    return 1;
  const lang::Program &Prog = *Front.Prog;

  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(Prog);
  if (EmitDot)
    std::printf("%s", Graph.toDot().c_str());

  return driver::withBox(
      *Front.Domain, Config.Numeric.value_or(driver::defaultNumeric()),
      [&]<typename Box>(std::type_identity<Box>) {
        Box B(Prog);
        SolverOptions Opts;
        Box::preset(Opts);
        Config.apply(Opts);
        const auto Start = std::chrono::steady_clock::now();
        core::CompiledProgram<typename Box::DomainT> Compiled(Graph, B.Dom);
        auto Result = solve(Compiled, Opts);
        const double SolveSeconds = std::chrono::duration<double>(
                                        std::chrono::steady_clock::now() -
                                        Start)
                                        .count();
        std::printf("%s",
                    driver::render(B, Prog, Graph, Result.Values).c_str());
        std::optional<bool> PostFixpoint;
        if constexpr (core::Extrapolates<typename Box::DomainT>)
          if (Config.Stats)
            PostFixpoint = core::isPostFixpoint(Compiled, Result.Values);
        checks::CheckerOptions COpts;
        COpts.Converged = Result.Stats.Converged;
        return Config.finish(B.check(Graph, Result.Values, COpts), Path,
                             Source, Opts, Domain == "leia", Result.Stats,
                             SolveSeconds, PostFixpoint);
      });
}
