//===- perfbench/driver.cpp - The repository benchmark driver -------------===//
//
//   perfbench_driver --workload paper|corpus|served --seed <n>
//                    --seconds <s> --trace 0|1 --out <file.json>
//   perfbench_driver --noop
//   perfbench_driver --paper-child <index> <op> <trace>
//
// Runs one workload through the public calls of each module (parse, lint,
// lower, WTO, precompile, solve, check, render; the concrete oracle; the
// thread pool; the daemon over loopback) and writes one JSON document of
// raw samples, counters, answers and — with --trace 1 — spans. The
// workloads, and why each exists, are described in NOTES.md; run.py turns
// the document into metrics and checks the answers. `--noop` starts and
// exits: the paper workload times it as the fresh-process set-up cost.
// `--paper-child` runs one paper program cold in the fresh process the
// paper workload starts for it, and prints the result on stdout.
//
//===----------------------------------------------------------------------===//

#include "trace.h"

#include "RandomProgramGen.h"
#include "analysis/Lint.h"
#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "checks/Checker.h"
#include "checks/Fuzz.h"
#include "core/Solver.h"
#include "domains/BiDomain.h"
#include "domains/LeiaDomain.h"
#include "domains/MdpDomain.h"
#include "lang/Parser.h"
#include "poly/NumericDomain.h"
#include "server/Daemon.h"
#include "server/Protocol.h"
#include "server/Session.h"
#include "support/ThreadPool.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

extern char **environ;

using namespace pmaf;
using perfbench::ScopedSpan;
using perfbench::nowNs;

namespace {

//===----------------------------------------------------------------------===//
// Output helpers
//===----------------------------------------------------------------------===//

std::string jstr(const std::string &S) {
  std::string Out;
  server::appendJsonString(Out, S);
  return Out;
}

std::string jnum(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

std::string jnum(uint64_t V) { return std::to_string(V); }

std::string jlist(const std::vector<double> &Vs) {
  std::string Out = "[";
  for (size_t I = 0; I != Vs.size(); ++I)
    Out += (I ? "," : "") + jnum(Vs[I]);
  return Out + "]";
}

/// Spans as text lines "<name> <start_ns> <end_ns> <parent> <op>"; parent
/// indexes the lines of the same group (-1 for a root).
std::string spanLines(const std::vector<perfbench::Span> &Spans) {
  std::string Out;
  for (const perfbench::Span &S : Spans)
    Out += std::string(S.Name) + " " + std::to_string(S.Start) + " " +
           std::to_string(S.End) + " " + std::to_string(S.Parent) + " " +
           std::to_string(S.Op) + "\n";
  return Out;
}

/// Separates a paper child's document from its span lines.
constexpr const char *SpansMarker = "\n#spans\n";

double seconds(int64_t FromNs, int64_t ToNs) { return (ToNs - FromNs) * 1e-9; }

/// Peak resident set of this process and of its largest waited-for child.
double peakRssMb() {
  rusage Self{}, Children{};
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Children);
  return std::max(Self.ru_maxrss, Children.ru_maxrss) / 1024.0;
}

unsigned liveThreads() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("Threads:", 0) == 0)
      return static_cast<unsigned>(std::stoul(Line.substr(8)));
  return 0;
}

struct Verdicts {
  uint64_t Safe = 0, Unproved = 0, Violated = 0, Skipped = 0;
  void add(const checks::ChecksDb &Db) {
    Safe += Db.count(checks::Verdict::Safe);
    Unproved += Db.count(checks::Verdict::Warning);
    Violated += Db.count(checks::Verdict::Error);
    Skipped += Db.count(checks::Verdict::Skipped);
  }
  void add(const Verdicts &O) {
    Safe += O.Safe;
    Unproved += O.Unproved;
    Violated += O.Violated;
    Skipped += O.Skipped;
  }
  bool operator==(const Verdicts &O) const {
    return Safe == O.Safe && Unproved == O.Unproved &&
           Violated == O.Violated && Skipped == O.Skipped;
  }
  std::string json() const {
    return "{\"safe\":" + jnum(Safe) + ",\"unproved\":" + jnum(Unproved) +
           ",\"violated\":" + jnum(Violated) + ",\"skipped\":" +
           jnum(Skipped) + "}";
  }
};

/// Snapshot of the process-wide numeric-layer counters.
struct NumericSnapshot {
  uint64_t Chernikova = 0, Escalations = 0, ConvHits = 0, ConvMisses = 0;
  static NumericSnapshot now() {
    const poly::NumericCounters &C = poly::numericCounters();
    NumericSnapshot S;
    S.Chernikova = C.MinimizationCalls.load();
    S.Escalations = C.LadderEscalations.load();
    S.ConvHits = C.ConversionCacheHits.load();
    S.ConvMisses = C.ConversionCacheMisses.load();
    return S;
  }
  NumericSnapshot operator-(const NumericSnapshot &O) const {
    return {Chernikova - O.Chernikova, Escalations - O.Escalations,
            ConvHits - O.ConvHits, ConvMisses - O.ConvMisses};
  }
  bool zero() const {
    return !Chernikova && !Escalations && !ConvHits && !ConvMisses &&
           !poly::numericCounters().SharedCacheHits.load();
  }
};

//===----------------------------------------------------------------------===//
// The analysis pipeline, one program at a time
//===----------------------------------------------------------------------===//

enum class Domain { Leia, LeiaZones, Bi, Mdp };

analysis::TargetDomain targetOf(Domain D) {
  switch (D) {
  case Domain::Leia:
  case Domain::LeiaZones:
    return analysis::TargetDomain::Leia;
  case Domain::Bi:
    return analysis::TargetDomain::Bi;
  case Domain::Mdp:
    return analysis::TargetDomain::Mdp;
  }
  return analysis::TargetDomain::None;
}

struct PipelineResult {
  bool Ok = false;
  std::string Error;
  bool Converged = false;
  double Seconds = 0.0; ///< Parse through render.
  uint64_t NodeUpdates = 0, Widenings = 0, InterpretCalls = 0;
  NumericSnapshot Numeric;
  Verdicts Checks;
  checks::ChecksDb Db;
  std::string Rendered; ///< What the CLI would print for the program.
  std::string Answer;   ///< JSON of main's summary, for the answer check.
  /// The analysed program and its graph, for callers that look further.
  std::unique_ptr<lang::Program> Prog;
  std::unique_ptr<cfg::ProgramGraph> Graph;
};

unsigned mainProc(const lang::Program &Prog) {
  unsigned Main = Prog.findProc("main");
  return Main == ~0u ? 0 : Main;
}

/// Exact expectation-invariant rows of \p V (pre-state dims first, then
/// the expected post-state dims), for the entailment check in run.py.
template <typename NumV>
std::string leiaAnswer(const lang::Program &Prog,
                       const domains::LeiaValueT<NumV> &V) {
  std::string Out = "{\"vars\":[";
  for (size_t I = 0; I != Prog.Vars.size(); ++I)
    Out += (I ? "," : "") + jstr(Prog.Vars[I].Name);
  Out += "],\"bottom\":";
  Out += V.P.isEmpty() ? "true" : "false";
  Out += ",\"rows\":[";
  if (!V.P.isEmpty()) {
    bool First = true;
    for (const poly::Constraint &C : V.EP.constraintList()) {
      Out += First ? "[" : ",[";
      First = false;
      Out += C.TheKind == poly::Constraint::Kind::Eq ? "\"eq\"" : "\"ge\"";
      Out += ',';
      Out += jstr(C.Expr.constantTerm().toString());
      for (unsigned I = 0; I != C.Expr.dim(); ++I) {
        Out += ',';
        Out += jstr(C.Expr.coeff(I).toString());
      }
      Out += "]";
    }
  }
  return Out + "]}";
}

/// Compile, precompile, solve, check and render one lowered program over
/// \p Dom. \p Check and \p Render receive the fixpoint; \p Answer runs
/// after the clock stops.
template <typename D, typename CheckFn, typename RenderFn, typename AnswerFn>
void solveCheckRender(const cfg::ProgramGraph &Graph, D &Dom,
                      const core::SolverOptions &Opts, PipelineResult &R,
                      int64_t &EndNs, std::optional<ScopedSpan> &Op,
                      CheckFn Check, RenderFn Render, AnswerFn Answer) {
  core::CompiledProgram<D> Compiled(Graph, Dom);
  {
    ScopedSpan S("core.precompile");
    Compiled.precompile();
  }
  core::AnalysisResult<typename D::Value> Result;
  {
    ScopedSpan S("core.solve");
    Result = core::solve(Compiled, Opts);
  }
  R.Converged = Result.Stats.Converged;
  R.NodeUpdates = Result.Stats.NodeUpdates;
  R.Widenings = Result.Stats.WideningApplications;
  R.InterpretCalls = Compiled.interpretCalls();
  checks::CheckerOptions COpts;
  COpts.Converged = Result.Stats.Converged;
  R.Db = Check(Result.Values, COpts);
  R.Checks.add(R.Db);
  {
    ScopedSpan S("domains.render");
    R.Rendered = Render(Result.Values);
  }
  EndNs = nowNs();
  Op.reset();
  R.Answer = Answer(Result.Values);
}

/// parse → lint → lower → (WTO, precompile, solve, check, render) with the
/// CLI's per-domain presets and Jobs = 1. \p MaxUpdates bounds the solve.
PipelineResult runPipeline(const std::string &Name, const std::string &Source,
                           Domain Dom, const char *OpName,
                           uint64_t MaxUpdates = 5'000'000) {
  PipelineResult R;
  const NumericSnapshot Before = NumericSnapshot::now();
  const int64_t StartNs = nowNs();
  int64_t EndNs = 0;
  std::optional<ScopedSpan> Op;
  Op.emplace(OpName);

  DiagnosticEngine Diags;
  Diags.setSource(Name, Source);
  lang::ParseResult Parsed = lang::parseProgram(Source, Diags);
  if (!Parsed) {
    R.Error = "parse failed: " + Parsed.Error;
    return R;
  }
  R.Prog = std::move(Parsed.Prog);
  const lang::Program &Prog = *R.Prog;
  analysis::LintOptions LOpts;
  LOpts.Domain = targetOf(Dom);
  analysis::lintProgram(Prog, Diags, LOpts);
  if (Diags.hasErrors()) {
    R.Error = "lint errors: " + Diags.renderAll();
    return R;
  }
  R.Graph = std::make_unique<cfg::ProgramGraph>(cfg::ProgramGraph::build(Prog));
  const cfg::ProgramGraph &Graph = *R.Graph;
  const unsigned Main = mainProc(Prog);

  core::SolverOptions Opts;
  Opts.Jobs = 1;
  Opts.MaxUpdates = MaxUpdates;
  if (Dom == Domain::Leia || Dom == Domain::LeiaZones) {
    auto RunLeia = [&]<typename NumV>(std::type_identity<NumV>) {
      domains::LeiaDomainT<NumV> D(Prog);
      using Values = std::vector<domains::LeiaValueT<NumV>>;
      solveCheckRender(
          Graph, D, Opts, R, EndNs, Op,
          [&](const Values &V, const checks::CheckerOptions &C) {
            ScopedSpan S("checks.check");
            return checks::checkLeia(D, Graph, V, C);
          },
          [&](const Values &V) {
            std::string Out;
            for (unsigned P = 0; P != Graph.numProcs(); ++P) {
              Out += Prog.Procs[P].Name + "():\n";
              auto Invariants = D.describeInvariants(V[Graph.proc(P).Entry]);
              if (Invariants.empty())
                Out += "  (no expectation invariants)\n";
              for (const std::string &Inv : Invariants)
                Out += "  " + Inv + "\n";
            }
            return Out;
          },
          [&](const Values &V) {
            return leiaAnswer(Prog, V[Graph.proc(Main).Entry]);
          });
    };
    if (Dom == Domain::Leia) {
      // The CLI's default backend is whatever SolverOptions{} selects.
      switch (core::SolverOptions{}.Numeric) {
      case core::NumericBackend::Poly:
        RunLeia(std::type_identity<poly::Polyhedron>{});
        break;
      case core::NumericBackend::Ladder:
        RunLeia(std::type_identity<poly::LadderValue>{});
        break;
      case core::NumericBackend::Zones:
        RunLeia(std::type_identity<poly::Zones>{});
        break;
      case core::NumericBackend::Intervals:
        RunLeia(std::type_identity<poly::Intervals>{});
        break;
      }
    } else {
      // verify-corpus solves LEIA on zones for bounded per-file cost.
      RunLeia(std::type_identity<poly::Zones>{});
    }
  } else if (Dom == Domain::Bi) {
    domains::BoolStateSpace Space(Prog);
    domains::BiDomain D(Space);
    Opts.UseWidening = false;
    using Values = std::vector<Matrix>;
    solveCheckRender(
        Graph, D, Opts, R, EndNs, Op,
        [&](const Values &V, const checks::CheckerOptions &C) {
          return checks::checkBiSummaries(
              Space, Graph, [&](unsigned N) { return V[N]; }, C);
        },
        [&](const Values &V) {
          std::string Out;
          std::vector<double> Prior(Space.numStates(), 0.0);
          Prior[0] = 1.0;
          char Buf[64];
          for (unsigned P = 0; P != Graph.numProcs(); ++P) {
            Out += Prog.Procs[P].Name + "(): posterior from the all-false "
                                        "prior\n";
            std::vector<double> Post =
                D.posterior(V[Graph.proc(P).Entry], Prior);
            double Mass = 0.0;
            for (size_t S = 0; S != Post.size(); ++S) {
              Mass += Post[S];
              if (Post[S] > 1e-12) {
                std::snprintf(Buf, sizeof Buf, " %.6f\n", Post[S]);
                Out += "  " + Space.stateToString(S) + Buf;
              }
            }
            std::snprintf(Buf, sizeof Buf, "  terminating mass: %.6f\n", Mass);
            Out += Buf;
          }
          return Out;
        },
        [&](const Values &V) {
          std::vector<double> Prior(Space.numStates(), 0.0);
          Prior[0] = 1.0;
          std::vector<double> Post =
              D.posterior(V[Graph.proc(Main).Entry], Prior);
          double Mass = 0.0;
          std::string States;
          for (size_t S = 0; S != Post.size(); ++S) {
            Mass += Post[S];
            if (Post[S] > 1e-12)
              States += (States.empty() ? "" : ",") +
                        jstr(Space.stateToString(S)) + ":" + jnum(Post[S]);
          }
          return "{\"mass\":" + jnum(Mass) + ",\"states\":{" + States + "}}";
        });
  } else {
    domains::MdpDomain D;
    Opts.WideningDelay = 10000;
    using Values = std::vector<double>;
    solveCheckRender(
        Graph, D, Opts, R, EndNs, Op,
        [&](const Values &V, const checks::CheckerOptions &C) {
          return checks::checkMdp(Graph, V, C);
        },
        [&](const Values &V) {
          std::string Out;
          char Buf[64];
          for (unsigned P = 0; P != Graph.numProcs(); ++P) {
            std::snprintf(Buf, sizeof Buf, "%g\n", V[Graph.proc(P).Entry]);
            Out += Prog.Procs[P].Name + "(): greatest expected reward = " + Buf;
          }
          return Out;
        },
        [&](const Values &V) {
          return "{\"reward\":" + jnum(V[Graph.proc(Main).Entry]) + "}";
        });
  }
  R.Seconds = seconds(StartNs, EndNs);
  R.Numeric = NumericSnapshot::now() - Before;
  R.Ok = true;
  return R;
}

//===----------------------------------------------------------------------===//
// paper: the 25 programs of src/benchmarks, each cold in a fresh child
//===----------------------------------------------------------------------===//

struct PaperProgram {
  std::string Name; ///< "<table>/<program>", e.g. "leia/eg".
  Domain Dom;
  std::string Source;
};

std::vector<PaperProgram> paperPrograms() {
  std::vector<PaperProgram> Out;
  for (const auto &P : benchmarks::leiaPrograms())
    Out.push_back({std::string("leia/") + P.Name, Domain::Leia, P.Source});
  for (const auto &P : benchmarks::biPrograms())
    Out.push_back({std::string("bi/") + P.Name, Domain::Bi, P.Source});
  for (const auto &P : benchmarks::mdpPrograms())
    Out.push_back({std::string("mdp/") + P.Name, Domain::Mdp, P.Source});
  return Out;
}

constexpr unsigned WarmRepeats = 5;

std::string pipelineJson(const PipelineResult &R) {
  return "{\"ok\":" + std::string(R.Ok ? "true" : "false") +
         ",\"error\":" + jstr(R.Error) + ",\"converged\":" +
         (R.Converged ? "true" : "false") + ",\"seconds\":" +
         jnum(R.Seconds) + ",\"node_updates\":" + jnum(R.NodeUpdates) +
         ",\"widenings\":" + jnum(R.Widenings) + ",\"interpret_calls\":" +
         jnum(R.InterpretCalls) + ",\"chernikova\":" +
         jnum(R.Numeric.Chernikova) + ",\"escalations\":" +
         jnum(R.Numeric.Escalations) + ",\"conv_hits\":" +
         jnum(R.Numeric.ConvHits) + ",\"conv_misses\":" +
         jnum(R.Numeric.ConvMisses) + ",\"verdicts\":" + R.Checks.json() +
         "}";
}

/// Body of one cold child: the isolation guard, the cold run, the warm
/// repeats, and the document the parent reads back.
std::string paperChild(const PaperProgram &P, uint32_t OpBase) {
  std::string Guard;
  if (!NumericSnapshot::now().zero())
    Guard = "numeric counters were not zero before the cold run";
  perfbench::setOperation(OpBase);
  PipelineResult Cold = runPipeline(P.Name, P.Source, P.Dom, "paper.cold");
  std::vector<double> Warm;
  NumericSnapshot WarmNumeric;
  std::string Mismatch;
  perfbench::setOperation(OpBase + 1);
  for (unsigned I = 0; I != WarmRepeats && Cold.Ok; ++I) {
    PipelineResult W = runPipeline(P.Name, P.Source, P.Dom, "paper.warm");
    if (!W.Ok || W.Rendered != Cold.Rendered || W.Answer != Cold.Answer)
      Mismatch = "warm run " + std::to_string(I) + " differs from the cold "
                                                    "run";
    Warm.push_back(W.Seconds);
    WarmNumeric.Chernikova += W.Numeric.Chernikova;
    WarmNumeric.Escalations += W.Numeric.Escalations;
    WarmNumeric.ConvHits += W.Numeric.ConvHits;
    WarmNumeric.ConvMisses += W.Numeric.ConvMisses;
  }
  // A cold run that converted representations must leave the memo warm.
  if (Guard.empty() && Cold.Numeric.ConvMisses && !WarmNumeric.ConvHits)
    Guard = "warm repeats recorded no conversion-cache hits";
  return "{\"name\":" + jstr(P.Name) + ",\"guard\":" + jstr(Guard) +
         ",\"mismatch\":" + jstr(Mismatch) + ",\"cold\":" +
         pipelineJson(Cold) + ",\"warm\":" + jlist(Warm) +
         ",\"warm_conv_hits\":" + jnum(WarmNumeric.ConvHits) +
         ",\"warm_conv_misses\":" + jnum(WarmNumeric.ConvMisses) +
         ",\"answer\":" + (Cold.Answer.empty() ? "null" : Cold.Answer) +
         ",\"rendered\":" + jstr(Cold.Rendered) + "}" + SpansMarker +
         spanLines(perfbench::takeSpans());
}

/// Runs a fresh copy of this program with \p Args and waits for it;
/// \returns true when it exited with 0. Its standard output goes to
/// \p Stdout when non-null.
bool runSelf(const char *Self, std::vector<std::string> Args,
             std::string *Stdout) {
  std::vector<char *> Argv{const_cast<char *>(Self)};
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  // Close-on-exec, so that a child spawned by another thread at the same
  // time does not inherit the write end and hold this pipe open.
  int Fds[2] = {-1, -1};
  if (Stdout && ::pipe2(Fds, O_CLOEXEC) != 0)
    return false;
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  if (Stdout) {
    posix_spawn_file_actions_adddup2(&Actions, Fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&Actions, Fds[0]);
    posix_spawn_file_actions_addclose(&Actions, Fds[1]);
  }
  pid_t Pid;
  const bool Spawned =
      posix_spawn(&Pid, Self, &Actions, nullptr, Argv.data(), environ) == 0;
  posix_spawn_file_actions_destroy(&Actions);
  if (Stdout) {
    ::close(Fds[1]);
    char Buf[65536];
    for (ssize_t N; Spawned;) {
      N = ::read(Fds[0], Buf, sizeof Buf);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        break;
      Stdout->append(Buf, static_cast<size_t>(N));
    }
    ::close(Fds[0]);
  }
  if (!Spawned)
    return false;
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}

/// Runs paper program \p Index cold in a fresh process that has analysed
/// nothing and returns its document (empty when the child failed).
std::string runInChild(const char *Self, size_t Index, uint32_t OpBase) {
  std::string Doc;
  if (!runSelf(Self,
               {"--paper-child", std::to_string(Index), std::to_string(OpBase),
                perfbench::tracing() ? "1" : "0"},
               &Doc))
    return "";
  return Doc;
}

/// Seconds to start a fresh copy of this program and see it exit: the
/// process set-up a `pmaf file.pp` user pays before any analysis.
double timeFreshProcess(const char *Self) {
  int64_t Start = nowNs();
  if (!runSelf(Self, {"--noop"}, nullptr))
    return -1.0;
  return seconds(Start, nowNs());
}

/// Cold children run this many at a time. A child's warm repeats catch the
/// machine at one of its speeds (the same program's children differ by up
/// to 1.6x; NOTES.md, Noise), so the medians need more children than one
/// lane fits in a run: eg and eg-tail alone take 12 s of each pass.
constexpr unsigned PaperLanes = 2;

std::string runPaper(uint64_t Seed, double Budget, const char *Self,
                     std::string &Spans) {
  // One set-up sample before each cold child, so that the samples spread
  // over the run instead of catching one moment of the machine's load.
  std::vector<double> Setup;
  std::vector<PaperProgram> Programs = paperPrograms();
  const size_t N = Programs.size();
  std::string Runs;
  uint64_t Attempted = 0, ChildFailures = 0;
  const int64_t Start = nowNs();
  unsigned Passes = 0;
  std::mutex M;
  size_t NextJob = 0;
  std::vector<size_t> Order(N);
  // The lanes take the programs of a pass, in a seed-shuffled order, one
  // after another; a new pass starts only while the budget is not used up,
  // and a started pass is finished.
  auto Take = [&](size_t &Pass, size_t &Index) {
    std::lock_guard<std::mutex> Lock(M);
    if (NextJob % N == 0) {
      if (seconds(Start, nowNs()) >= Budget)
        return false;
      for (size_t I = 0; I != N; ++I)
        Order[I] = I;
      Rng R(Seed * 0x9e3779b97f4a7c15ull + Passes + 1);
      for (size_t I = N; I > 1; --I)
        std::swap(Order[I - 1], Order[R.below(I)]);
      ++Passes;
    }
    Pass = NextJob / N;
    Index = Order[NextJob % N];
    ++NextJob;
    return true;
  };
  auto Lane = [&] {
    for (size_t Pass, I; Take(Pass, I);) {
      const double SetupS = timeFreshProcess(Self);
      std::string Doc =
          runInChild(Self, I, static_cast<uint32_t>(2 * (Pass * N + I)));
      std::string GroupSpans;
      if (!Doc.empty()) {
        size_t Marker = Doc.find(SpansMarker);
        if (Marker != std::string::npos) {
          // One span group per child: its parent indices are local to it.
          GroupSpans =
              "#group\n" + Doc.substr(Marker + std::strlen(SpansMarker));
          Doc.resize(Marker);
        }
        Doc.insert(1, "\"pass\":" + std::to_string(Pass) + ",");
      }
      std::lock_guard<std::mutex> Lock(M);
      ++Attempted;
      Setup.push_back(SetupS);
      Spans += GroupSpans;
      if (Doc.empty()) {
        ++ChildFailures;
        Doc = "{\"name\":" + jstr(Programs[I].Name) + ",\"pass\":" +
              std::to_string(Pass) + ",\"child_failed\":true}";
      }
      Runs += (Runs.empty() ? "" : ",") + Doc;
    }
  };
  std::vector<std::thread> Lanes;
  for (unsigned L = 0; L != PaperLanes; ++L)
    Lanes.emplace_back(Lane);
  for (std::thread &T : Lanes)
    T.join();
  return "\"setup_s\":" + jlist(Setup) + ",\"passes\":" +
         std::to_string(Passes) + ",\"attempted\":" + jnum(Attempted) +
         ",\"child_failures\":" + jnum(ChildFailures) + ",\"wall_s\":" +
         jnum(seconds(Start, nowNs())) + ",\"runs\":[" + Runs + "]";
}

//===----------------------------------------------------------------------===//
// corpus: a seeded mixed corpus verified as `pmaf verify-corpus` does
//===----------------------------------------------------------------------===//

/// The corpus is `pmaf gen-corpus --seed=7 --count=300 --family=mixed`.
/// Its cost is dominated by the few files whose concrete runs hit the
/// step limit, so a corpus drawn per workload seed would change the cost
/// of a run by several times; the workload seed instead seeds the oracle,
/// as `pmaf verify-corpus --seed` does.
constexpr uint64_t CorpusGenSeed = 7;
constexpr unsigned CorpusFiles = 300;
constexpr unsigned CorpusWorkers = 4;
constexpr unsigned OracleRuns = 2000;
constexpr uint64_t CorpusMaxUpdates = 200000;

/// The `pmaf gen-corpus --family=mixed` construction, in memory.
std::vector<std::string> generateCorpus(uint64_t Seed, unsigned Count) {
  std::vector<std::string> Out;
  for (unsigned I = 0; I != Count; ++I) {
    Rng R(Seed + I * 0x9e3779b97f4a7c15ull + 1);
    const unsigned Kind = I % 3; // bi, mdp, leia
    std::unique_ptr<lang::Program> Prog;
    lang::Stmt::Ptr Assertion;
    if (Kind == 2) {
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
      if (Kind == 1) {
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
    std::vector<lang::Stmt::Ptr> Prologue;
    if (R.below(2) == 0)
      Prologue = checks::fuzz::randomInitPrologue(R, *Prog);
    checks::fuzz::plantAssertion(*Prog, std::move(Assertion),
                                 std::move(Prologue));
    Out.push_back(lang::toString(*Prog));
  }
  return Out;
}

bool containsKind(const lang::Stmt &S, lang::Stmt::Kind K) {
  if (S.kind() == K)
    return true;
  switch (S.kind()) {
  case lang::Stmt::Kind::Block:
    for (const lang::Stmt::Ptr &Child : S.stmts())
      if (containsKind(*Child, K))
        return true;
    return false;
  case lang::Stmt::Kind::If:
    return containsKind(S.thenStmt(), K) ||
           (S.elseStmt() && containsKind(*S.elseStmt(), K));
  case lang::Stmt::Kind::While:
    return containsKind(S.body(), K);
  default:
    return false;
  }
}

/// verify-corpus's domain choice: real variables → leia (on zones),
/// rewards → mdp, else bi.
Domain detectDomain(const std::string &Source) {
  lang::ParseResult Parsed = lang::parseProgram(Source);
  if (!Parsed)
    return Domain::Bi;
  for (const lang::VarInfo &V : Parsed.Prog->Vars)
    if (V.IsReal)
      return Domain::LeiaZones;
  for (const lang::Procedure &P : Parsed.Prog->Procs)
    if (P.Body && containsKind(*P.Body, lang::Stmt::Kind::Reward))
      return Domain::Mdp;
  return Domain::Bi;
}

const lang::Stmt *plantedAssertion(const lang::Program &Prog) {
  unsigned Main = mainProc(Prog);
  if (Prog.Procs.empty() || !Prog.Procs[Main].Body)
    return nullptr;
  const lang::Stmt *Body = Prog.Procs[Main].Body.get();
  while (Body->kind() == lang::Stmt::Kind::Block && !Body->stmts().empty())
    Body = Body->stmts().front().get();
  return Body->kind() == lang::Stmt::Kind::Assert ? Body : nullptr;
}

/// verify-corpus's sampling tolerance for the soundness oracle.
double soundnessTol(const lang::Stmt &A, unsigned Runs) {
  double Base = 4.0 / std::sqrt(static_cast<double>(Runs ? Runs : 1));
  switch (A.assertKind()) {
  case lang::AssertKind::Prob:
    return 0.5 * Base + 0.01;
  case lang::AssertKind::Reward:
    return Base * (1.0 + std::fabs(A.assertBound().toDouble())) + 0.05;
  case lang::AssertKind::Interval: {
    double Scale = std::max(std::fabs(A.assertLo().toDouble()),
                            std::fabs(A.assertHi().toDouble()));
    return Base * (1.0 + Scale) + 0.05;
  }
  }
  return 0.05;
}

struct FileOutcome {
  double Seconds = 0.0; ///< Parse through the oracle.
  bool Ok = false;
  bool Converged = false;
  std::string Violation; ///< Nonempty when the oracle refuted a verdict.
  Verdicts Checks;
  uint64_t NodeUpdates = 0, Widenings = 0, InterpretCalls = 0;
};

FileOutcome verifyFile(const std::string &Source, Domain Dom,
                       uint64_t FileSeed) {
  FileOutcome Out;
  PipelineResult R =
      runPipeline("corpus", Source, Dom, "corpus.file", CorpusMaxUpdates);
  if (!R.Ok)
    return Out;
  Out.Ok = true;
  Out.Converged = R.Converged;
  Out.Checks = R.Checks;
  Out.NodeUpdates = R.NodeUpdates;
  Out.Widenings = R.Widenings;
  Out.InterpretCalls = R.InterpretCalls;
  if (!R.Converged)
    return Out;
  // The soundness spot-check of the planted assertion.
  const lang::Stmt *Planted = plantedAssertion(*R.Prog);
  if (!Planted)
    return Out;
  auto Asserts = checks::collectAssertions(*R.Graph);
  for (size_t I = 0; I != Asserts.size() && I != R.Db.records().size(); ++I) {
    if (Asserts[I].second != Planted)
      continue;
    checks::fuzz::GroundTruth GT = checks::fuzz::estimateGroundTruth(
        *R.Prog, *Planted, FileSeed, OracleRuns);
    Out.Violation = checks::fuzz::soundnessViolation(
        *Planted, R.Db.records()[I].TheVerdict, GT,
        soundnessTol(*Planted, OracleRuns));
    break;
  }
  return Out;
}

std::string runCorpus(uint64_t Seed, double Budget) {
  const bool Trace = perfbench::tracing();
  // The corpus is generated again before every pass, which gives set-up
  // samples spread over the run, and must come out the same every time.
  // Set-up is not traced.
  std::vector<double> Setup;
  std::vector<std::string> Corpus;
  std::vector<Domain> Domains;
  bool Deterministic = true;
  auto Generate = [&] {
    perfbench::setTracing(false);
    int64_t T0 = nowNs();
    std::vector<std::string> Generated =
        generateCorpus(CorpusGenSeed, CorpusFiles);
    std::vector<Domain> Detected;
    for (const std::string &S : Generated)
      Detected.push_back(detectDomain(S));
    Setup.push_back(seconds(T0, nowNs()));
    perfbench::setTracing(Trace);
    if (!Corpus.empty() && Generated != Corpus)
      Deterministic = false;
    Corpus = std::move(Generated);
    Domains = std::move(Detected);
  };
  Generate();

  support::ThreadPool Pool(CorpusWorkers);
  std::string Counters = "[";
  std::vector<double> PassSeconds, BusyFrac;
  uint64_t Attempted = 0, Failed = 0, NotConverged = 0;
  std::vector<std::string> Violations;
  Verdicts First;
  bool VerdictsRepeat = true;
  std::string FileSeconds = "[";
  const int64_t Start = nowNs();
  while (PassSeconds.empty() || seconds(Start, nowNs()) < Budget) {
    const unsigned Pass = static_cast<unsigned>(PassSeconds.size());
    if (Pass)
      Generate();
    std::vector<FileOutcome> Outcomes(Corpus.size());
    std::vector<double> BusyBefore = Pool.workerBusySeconds();
    const NumericSnapshot NumericBefore = NumericSnapshot::now();
    const int64_t T0 = nowNs();
    Pool.parallelFor(size_t(0), Corpus.size(), [&](size_t I) {
      perfbench::setOperation(static_cast<uint32_t>(Pass * Corpus.size() + I));
      const int64_t FileStart = nowNs();
      try {
        Outcomes[I] = verifyFile(Corpus[I], Domains[I],
                                 Seed + I * 0x9e3779b97f4a7c15ull);
      } catch (const std::exception &) {
        Outcomes[I] = FileOutcome();
      }
      Outcomes[I].Seconds = seconds(FileStart, nowNs());
    });
    const double Wall = seconds(T0, nowNs());
    const NumericSnapshot Numeric = NumericSnapshot::now() - NumericBefore;
    std::vector<double> BusyAfter = Pool.workerBusySeconds();
    double Busy = 0.0;
    for (size_t W = 0; W != BusyAfter.size(); ++W)
      Busy += BusyAfter[W] - (W < BusyBefore.size() ? BusyBefore[W] : 0.0);
    PassSeconds.push_back(Wall);
    BusyFrac.push_back(Busy / (Pool.size() * Wall));
    Verdicts PassVerdicts;
    std::vector<double> Times;
    uint64_t NodeUpdates = 0, Widenings = 0, InterpretCalls = 0;
    for (size_t I = 0; I != Outcomes.size(); ++I) {
      const FileOutcome &O = Outcomes[I];
      Times.push_back(O.Seconds);
      NodeUpdates += O.NodeUpdates;
      Widenings += O.Widenings;
      InterpretCalls += O.InterpretCalls;
      ++Attempted;
      PassVerdicts.add(O.Checks);
      if (!O.Ok || !O.Converged || !O.Violation.empty())
        ++Failed;
      NotConverged += O.Ok && !O.Converged;
      if (!O.Violation.empty() && Violations.size() < 20)
        Violations.push_back("file " + std::to_string(I) + ": " + O.Violation);
    }
    if (Pass == 0)
      First = PassVerdicts;
    else if (!(PassVerdicts == First))
      VerdictsRepeat = false;
    FileSeconds += (FileSeconds.size() > 1 ? "," : "") + jlist(Times);
    Counters += std::string(Pass ? "," : "") + "{\"node_updates\":" +
                jnum(NodeUpdates) + ",\"widenings\":" + jnum(Widenings) +
                ",\"interpret_calls\":" + jnum(InterpretCalls) +
                ",\"chernikova\":" + jnum(Numeric.Chernikova) +
                ",\"escalations\":" + jnum(Numeric.Escalations) +
                ",\"conv_hits\":" + jnum(Numeric.ConvHits) +
                ",\"conv_misses\":" + jnum(Numeric.ConvMisses) + "}";
  }
  FileSeconds += "]";
  Counters += "]";
  std::string V = "[";
  for (size_t I = 0; I != Violations.size(); ++I)
    V += (I ? "," : "") + jstr(Violations[I]);
  V += "]";
  return "\"setup_s\":" + jlist(Setup) + ",\"files\":" +
         jnum(uint64_t(Corpus.size())) + ",\"workers\":" +
         jnum(uint64_t(Pool.size())) + ",\"deterministic\":" +
         (Deterministic ? "true" : "false") + ",\"pass_s\":" +
         jlist(PassSeconds) + ",\"file_s\":" + FileSeconds +
         ",\"pass_counters\":" + Counters +
         ",\"busy_frac\":" + jlist(BusyFrac) +
         ",\"attempted\":" + jnum(Attempted) + ",\"failed\":" + jnum(Failed) +
         ",\"not_converged\":" + jnum(NotConverged) +
         ",\"soundness_violations\":" + V + ",\"verdicts_pass\":" +
         First.json() + ",\"verdicts_repeat\":" +
         (VerdictsRepeat ? "true" : "false");
}

//===----------------------------------------------------------------------===//
// served: an in-process daemon driven by two closed-loop clients
//===----------------------------------------------------------------------===//

/// The SERVED bench's programs (bench/bench_server_throughput.cpp), as it
/// builds them: the unmodified callHeavy and mixed presets, each resident
/// program with an edit of its helper procedure 1. They are fixed; the
/// workload seed draws the traffic.
struct ServedProgram {
  bool Mixed;
  uint64_t SeedA, SeedB;
};
constexpr ServedProgram ServedPrograms[] = {
    {false, 1001, 9001}, // callheavy-a
    {false, 2002, 9002}, // callheavy-b
    {true, 3003, 9003},  // mixed-a
    {true, 4004, 9004},  // mixed-b
};
constexpr unsigned ServedClients = 2;
/// Each client keeps one session of each SERVED program.
constexpr unsigned SessionsPerClient = std::size(ServedPrograms);
/// k: every k-th analyze is cold. The SERVED throughput family runs as
/// many cold analyzes as incremental ones.
constexpr unsigned ColdEvery = 2;
/// Each client replaces its connection this often (an assumption; no
/// request log records it). A time, not a cycle count, so the number of
/// connections a run opens does not grow when requests get faster.
constexpr int64_t ReconnectMs = 50;
constexpr double ReuseFloor = 0.5;

class Client {
public:
  explicit Client(uint16_t Port) { connect(Port); }
  ~Client() { close(); }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  bool connect(uint16_t Port) {
    close();
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) != 0)
      close();
    return Fd >= 0;
  }
  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }

  /// One round trip; a null Json when the transport failed.
  server::Json request(const server::Json &Req) {
    std::string Payload, Error;
    if (Fd < 0 || !server::writeFrame(Fd, Req.dump()) ||
        !server::readFrame(Fd, Payload, Error))
      return server::Json::null();
    std::optional<server::Json> Reply = server::Json::parse(Payload);
    return Reply ? std::move(*Reply) : server::Json::null();
  }

private:
  int Fd = -1;
};

bool replyOk(const server::Json &Reply) {
  const server::Json *Ok = Reply.get("ok");
  return Ok && Ok->asBool();
}

server::Json request(const char *Cmd, const std::string &Session) {
  server::Json R = server::Json::object();
  R.set("cmd", server::Json::string(Cmd));
  R.set("session", server::Json::string(Session));
  return R;
}

server::Json withSource(server::Json R, const std::string &Source) {
  R.set("source", server::Json::string(Source));
  return R;
}

double number(const server::Json &Obj, const char *Outer, const char *Inner) {
  const server::Json *O = Outer ? Obj.get(Outer) : &Obj;
  const server::Json *I = O ? O->get(Inner) : nullptr;
  return I ? I->asDouble() : 0.0;
}

std::string text(const server::Json &Obj, const char *Key) {
  const server::Json *V = Obj.get(Key);
  return V && V->isString() ? V->asString() : std::string();
}

/// One resident program, its single-procedure edit, and the fingerprints
/// a from-scratch solve gives each (index 0: the source, 1: the edit).
struct ServedInput {
  std::string Source[2];
  std::string ColdFingerprint[2];
};

/// SERVED program \p P and its helper edit, with the fingerprint of a
/// from-scratch solve of each; std::nullopt when one does not converge.
std::optional<ServedInput> servedInput(const ServedProgram &P) {
  const testgen::BoolGenConfig Config =
      P.Mixed ? testgen::BoolGenConfig::mixed()
              : testgen::BoolGenConfig::callHeavy();
  Rng RA(P.SeedA), RB(P.SeedB);
  auto A = testgen::randomBoolProgram(RA, Config);
  auto B = testgen::randomBoolProgram(RB, Config);
  ServedInput In;
  In.Source[0] = lang::toString(*A);
  A->Procs[1 % A->Procs.size()].Body =
      std::move(B->Procs[1 % B->Procs.size()].Body);
  In.Source[1] = lang::toString(*A);
  server::AnalyzeRequest Cold;
  Cold.Cold = true;
  for (int To = 0; To != 2; ++To) {
    server::Session S;
    if (!S.load(In.Source[To], "bi", core::NumericBackend::Ladder).Ok)
      return std::nullopt;
    server::AnalyzeReply R = S.analyze(Cold);
    if (!R.Ok || !R.Converged || R.Exit)
      return std::nullopt;
    In.ColdFingerprint[To] = R.Fingerprint;
  }
  return In;
}

std::string sessionName(unsigned Client, unsigned Session) {
  return "c" + std::to_string(Client) + "s" + std::to_string(Session);
}

struct ServedSetup {
  std::unique_ptr<server::Daemon> Daemon;
  /// Inputs[session]: every client has one session of each.
  std::vector<ServedInput> Inputs;
  std::vector<std::unique_ptr<Client>> Clients;
  bool Ok = false;
};

/// Builds the inputs, starts the daemon, connects the clients and loads
/// and first analyzes every session.
ServedSetup setUpServed() {
  ServedSetup S;
  for (const ServedProgram &P : ServedPrograms) {
    std::optional<ServedInput> In = servedInput(P);
    if (!In)
      return S;
    S.Inputs.push_back(std::move(*In));
  }
  S.Daemon = std::make_unique<server::Daemon>();
  std::string Error;
  if (!S.Daemon->start(Error))
    return S;
  S.Ok = true;
  for (unsigned C = 0; C != ServedClients; ++C) {
    S.Clients.push_back(std::make_unique<Client>(S.Daemon->port()));
    for (unsigned I = 0; I != SessionsPerClient; ++I) {
      server::Json Load = withSource(request("load", sessionName(C, I)),
                                     S.Inputs[I].Source[0]);
      Load.set("domain", server::Json::string("bi"));
      S.Ok &= replyOk(S.Clients[C]->request(Load)) &&
              replyOk(S.Clients[C]->request(
                  request("analyze", sessionName(C, I))));
    }
  }
  return S;
}

void tearDownServed(ServedSetup &S) {
  S.Clients.clear();
  if (S.Daemon) {
    S.Daemon->requestStop();
    S.Daemon->wait();
  }
  S.Daemon.reset();
}

struct ClientLog {
  /// Round trips in ms by session and resident program: edit + warm
  /// analyze, and the cold:true analyze alone; and when each started, in
  /// seconds from the start of the run.
  std::vector<std::vector<double>> EditMs[2], FullMs[2], EditAt[2], FullAt[2];
  /// Per session: the program of its last warm analyze and its fingerprint.
  std::vector<int> LastWarmState;
  std::vector<std::string> LastWarmFingerprint;
  uint64_t Requests = 0, Failed = 0, Cycles = 0, Reconnects = 0;
  uint64_t FingerprintMismatches = 0, BelowFloor = 0, WarmAnalyzes = 0;
  double SolveSeconds = 0.0;
  double TransformersReused = 0, TransformersTotal = 0;
  double NodesReused = 0, NodesTotal = 0;
  double NodeUpdates = 0, Widenings = 0, InterpretCalls = 0;
  std::vector<std::string> Errors;

  ClientLog()
      : LastWarmState(SessionsPerClient, -1),
        LastWarmFingerprint(SessionsPerClient) {
    for (int P = 0; P != 2; ++P) {
      EditMs[P].resize(SessionsPerClient);
      FullMs[P].resize(SessionsPerClient);
      EditAt[P].resize(SessionsPerClient);
      FullAt[P].resize(SessionsPerClient);
    }
  }
};

/// One client's closed loop: each cycle edits one of its sessions, drawn
/// from the seed (toggling it between its two programs), and analyzes it,
/// cold:true every ColdEvery-th cycle; the connection is replaced every
/// ReconnectMs. A cycle fails at most once.
void runServedClient(unsigned Index, uint64_t Seed, uint16_t Port, Client &C,
                     const std::vector<ServedInput> &Inputs,
                     int64_t StartNs, int64_t DeadlineNs, ClientLog &Log) {
  Rng Traffic(Seed * 0x9e3779b97f4a7c15ull + Index + 1);
  std::vector<int> State(SessionsPerClient, 0); // All start as Source[0].
  auto Fail = [&](const std::string &Why) {
    ++Log.Failed;
    if (Log.Errors.size() < 10)
      Log.Errors.push_back(Why);
  };
  int64_t NextReconnect = nowNs() + ReconnectMs * 1'000'000;
  for (uint64_t Cycle = 0; nowNs() < DeadlineNs; ++Cycle) {
    perfbench::setOperation(
        static_cast<uint32_t>(Cycle * ServedClients + Index));
    ++Log.Cycles;
    if (nowNs() >= NextReconnect) {
      ScopedSpan S("server.reconnect");
      ++Log.Reconnects;
      NextReconnect += ReconnectMs * 1'000'000;
      if (!C.connect(Port)) {
        Fail("reconnect failed");
        return;
      }
    }
    const unsigned Sess = static_cast<unsigned>(Traffic.below(SessionsPerClient));
    const std::string Name = sessionName(Index, Sess);
    const ServedInput &In = Inputs[Sess];
    const int Now = State[Sess] = 1 - State[Sess];
    const bool Cold = Cycle % ColdEvery == ColdEvery - 1;
    const int64_t T0 = nowNs();
    server::Json EditReply;
    {
      ScopedSpan S("server.request.edit");
      EditReply = C.request(withSource(request("edit", Name), In.Source[Now]));
    }
    const int64_t T1 = nowNs();
    server::Json Analyze = request("analyze", Name);
    if (Cold)
      Analyze.set("cold", server::Json::boolean(true));
    server::Json Reply;
    {
      ScopedSpan S("server.request.analyze");
      Reply = C.request(Analyze);
    }
    const int64_t T2 = nowNs();
    Log.Requests += 2;
    if (!replyOk(EditReply)) {
      Fail("edit failed: " + EditReply.dump());
      continue;
    }
    if (!replyOk(Reply)) {
      Fail("analyze failed: " + Reply.dump());
      continue;
    }
    const server::Json *Converged = Reply.get("converged");
    if (!Converged || !Converged->asBool() || number(Reply, nullptr, "exit")) {
      Fail("analyze did not converge cleanly");
      continue;
    }
    const std::string Fingerprint = text(Reply, "fingerprint");
    if (Fingerprint != In.ColdFingerprint[Now]) {
      ++Log.FingerprintMismatches;
      Fail("fingerprint differs from the from-scratch solve");
      continue;
    }
    Log.SolveSeconds += number(Reply, nullptr, "solve_seconds");
    Log.NodeUpdates += number(Reply, "stats", "node_updates");
    Log.Widenings += number(Reply, "stats", "widenings");
    Log.InterpretCalls += number(Reply, "stats", "interpret_calls");
    if (Cold) {
      Log.FullMs[Now][Sess].push_back(seconds(T1, T2) * 1e3);
      Log.FullAt[Now][Sess].push_back(seconds(StartNs, T1));
      continue;
    }
    Log.EditMs[Now][Sess].push_back(seconds(T0, T2) * 1e3);
    Log.EditAt[Now][Sess].push_back(seconds(StartNs, T0));
    ++Log.WarmAnalyzes;
    const double Reused = number(Reply, "reuse", "transformers_reused");
    const double Total = number(Reply, "reuse", "transformers_total");
    Log.TransformersReused += Reused;
    Log.TransformersTotal += Total;
    Log.NodesReused += number(Reply, "reuse", "nodes_reused");
    Log.NodesTotal += number(Reply, "reuse", "nodes_total");
    if (Total <= 0 || Reused < ReuseFloor * Total) {
      ++Log.BelowFloor;
      Fail("transformer reuse below the floor");
    }
    Log.LastWarmState[Sess] = Now;
    Log.LastWarmFingerprint[Sess] = Fingerprint;
  }
}

std::string jlists(const std::vector<std::vector<double>> &Lists) {
  std::string Out = "[";
  for (size_t I = 0; I != Lists.size(); ++I)
    Out += (I ? "," : "") + jlist(Lists[I]);
  return Out + "]";
}

std::string runServed(uint64_t Seed, double Budget) {
  // Set up several times before the run, keeping the last, and again
  // after it, so that the set-up samples do not all catch one moment of
  // the machine's load; the median is the reported set-up time. Set-up is
  // not traced.
  const bool Trace = perfbench::tracing();
  perfbench::setTracing(false);
  std::vector<double> Setup;
  ServedSetup S;
  auto SetUp = [&](int Times) {
    for (int I = 0; I != Times && (I == 0 || S.Ok); ++I) {
      tearDownServed(S);
      int64_t T0 = nowNs();
      S = setUpServed();
      Setup.push_back(seconds(T0, nowNs()));
    }
    return S.Ok;
  };
  if (!SetUp(11)) {
    tearDownServed(S);
    return "\"error\":\"served set-up failed\"";
  }
  perfbench::setTracing(Trace);

  std::vector<ClientLog> Logs(ServedClients);
  const int64_t Start = nowNs();
  const int64_t Deadline = Start + static_cast<int64_t>(Budget * 1e9);
  {
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C != ServedClients; ++C)
      Threads.emplace_back([&, C] {
        runServedClient(C, Seed, S.Daemon->port(), *S.Clients[C],
                        S.Inputs, Start, Deadline, Logs[C]);
      });
    for (std::thread &T : Threads)
      T.join();
  }
  const double Wall = seconds(Start, nowNs());
  const unsigned ThreadsEnd = liveThreads();
  perfbench::setTracing(false);

  // Each session's last warm fingerprint must equal a from-scratch solve
  // of the same program.
  uint64_t FinalChecks = 0, FinalMismatches = 0;
  for (unsigned C = 0; C != ServedClients; ++C) {
    Client &Conn = *S.Clients[C];
    if (!Conn.connect(S.Daemon->port())) {
      FinalChecks += SessionsPerClient;
      FinalMismatches += SessionsPerClient;
      continue;
    }
    for (unsigned I = 0; I != SessionsPerClient; ++I) {
      const int Last = Logs[C].LastWarmState[I];
      if (Last < 0)
        continue; // Never analyzed warm in this run.
      ++FinalChecks;
      server::Json Cold = request("analyze", sessionName(C, I));
      Cold.set("cold", server::Json::boolean(true));
      server::Json Reply;
      if (replyOk(Conn.request(withSource(request("edit", sessionName(C, I)),
                                          S.Inputs[I].Source[Last]))))
        Reply = Conn.request(Cold);
      if (!replyOk(Reply) ||
          text(Reply, "fingerprint") != Logs[C].LastWarmFingerprint[I])
        ++FinalMismatches;
    }
  }
  const bool SetUpAgain = SetUp(10);
  tearDownServed(S);
  if (!SetUpAgain)
    return "\"error\":\"served set-up failed\"";

  ClientLog All;
  std::string Errors = "[", EditMs = "[", FullMs = "[", EditAt = "[",
              FullAt = "[";
  for (const ClientLog &L : Logs) {
    for (int P = 0; P != 2; ++P) {
      EditMs += (EditMs.size() > 1 ? "," : "") + jlists(L.EditMs[P]);
      FullMs += (FullMs.size() > 1 ? "," : "") + jlists(L.FullMs[P]);
      EditAt += (EditAt.size() > 1 ? "," : "") + jlists(L.EditAt[P]);
      FullAt += (FullAt.size() > 1 ? "," : "") + jlists(L.FullAt[P]);
    }
    All.Requests += L.Requests;
    All.Failed += L.Failed;
    All.Cycles += L.Cycles;
    All.Reconnects += L.Reconnects;
    All.FingerprintMismatches += L.FingerprintMismatches;
    All.BelowFloor += L.BelowFloor;
    All.WarmAnalyzes += L.WarmAnalyzes;
    All.SolveSeconds += L.SolveSeconds;
    All.TransformersReused += L.TransformersReused;
    All.TransformersTotal += L.TransformersTotal;
    All.NodesReused += L.NodesReused;
    All.NodesTotal += L.NodesTotal;
    All.NodeUpdates += L.NodeUpdates;
    All.Widenings += L.Widenings;
    All.InterpretCalls += L.InterpretCalls;
    for (const std::string &E : L.Errors)
      Errors += (Errors.size() > 1 ? "," : "") + jstr(E);
  }
  Errors += "]";
  EditMs += "]";
  FullMs += "]";
  EditAt += "]";
  FullAt += "]";
  return "\"setup_s\":" + jlist(Setup) + ",\"clients\":" +
         jnum(uint64_t(ServedClients)) + ",\"sessions_per_client\":" +
         jnum(uint64_t(SessionsPerClient)) + ",\"cold_every\":" +
         jnum(uint64_t(ColdEvery)) + ",\"reconnect_ms\":" +
         jnum(uint64_t(ReconnectMs)) + ",\"wall_s\":" + jnum(Wall) +
         ",\"edit_ms\":" + EditMs + ",\"full_ms\":" + FullMs +
         ",\"edit_at\":" + EditAt + ",\"full_at\":" + FullAt +
         ",\"requests\":" + jnum(All.Requests) +
         ",\"cycles\":" + jnum(All.Cycles) + ",\"reconnects\":" +
         jnum(All.Reconnects) + ",\"failed\":" + jnum(All.Failed) +
         ",\"fingerprint_mismatches\":" + jnum(All.FingerprintMismatches) +
         ",\"final_checks\":" + jnum(FinalChecks) +
         ",\"final_mismatches\":" + jnum(FinalMismatches) +
         ",\"below_reuse_floor\":" + jnum(All.BelowFloor) +
         ",\"warm_analyzes\":" + jnum(All.WarmAnalyzes) +
         ",\"solve_s\":" + jnum(All.SolveSeconds) +
         ",\"transformers_reused\":" + jnum(All.TransformersReused) +
         ",\"transformers_total\":" + jnum(All.TransformersTotal) +
         ",\"nodes_reused\":" + jnum(All.NodesReused) +
         ",\"nodes_total\":" + jnum(All.NodesTotal) +
         ",\"node_updates\":" + jnum(All.NodeUpdates) +
         ",\"widenings\":" + jnum(All.Widenings) +
         ",\"interpret_calls\":" + jnum(All.InterpretCalls) +
         ",\"threads_end\":" + jnum(uint64_t(ThreadsEnd)) +
         ",\"errors\":" + Errors;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload paper|corpus|served "
               "--seed <n> --seconds <s> --trace 0|1 --out <file>\n"
               "       perfbench_driver --noop\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  if (argc == 2 && std::strcmp(argv[1], "--noop") == 0)
    return 0;
  if (argc == 5 && std::strcmp(argv[1], "--paper-child") == 0) {
    // One cold paper program; the parent reads the document on stdout.
    std::vector<PaperProgram> Programs = paperPrograms();
    size_t Index = std::strtoull(argv[2], nullptr, 10);
    if (Index >= Programs.size())
      return usage();
    perfbench::setTracing(std::strcmp(argv[4], "1") == 0);
    std::string Doc;
    try {
      Doc = paperChild(Programs[Index],
                       static_cast<uint32_t>(std::strtoul(argv[3], nullptr, 10)));
    } catch (const std::exception &E) {
      std::fprintf(stderr, "perfbench: %s: %s\n",
                   Programs[Index].Name.c_str(), E.what());
      return 1;
    }
    std::fwrite(Doc.data(), 1, Doc.size(), stdout);
    return std::fflush(stdout) == 0 ? 0 : 1;
  }
  std::string Workload, OutPath;
  uint64_t Seed = 0;
  double Budget = 0.0;
  bool Trace = false;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], Value = argv[I + 1];
    try {
      if (Flag == "--workload")
        Workload = Value;
      else if (Flag == "--seed")
        Seed = std::stoull(Value);
      else if (Flag == "--seconds")
        Budget = std::stod(Value);
      else if (Flag == "--trace")
        Trace = Value == "1";
      else if (Flag == "--out")
        OutPath = Value;
      else
        return usage();
    } catch (const std::exception &) {
      return usage();
    }
  }
  if (OutPath.empty() || Budget <= 0.0)
    return usage();
  perfbench::setTracing(Trace);

  std::string Body, Spans;
  if (Workload == "paper")
    Body = runPaper(Seed, Budget, argv[0], Spans);
  else if (Workload == "corpus")
    Body = runCorpus(Seed, Budget);
  else if (Workload == "served")
    Body = runServed(Seed, Budget);
  else
    return usage();

  std::ofstream Out(OutPath);
  Out << "{\"workload\":" << jstr(Workload) << ",\"seed\":" << Seed
      << ",\"trace\":" << (Trace ? "true" : "false") << "," << Body
      << ",\"peak_rss_mb\":" << jnum(peakRssMb()) << "}\n";
  // The span file: groups of lines, each group with its own indices.
  std::ofstream SpanOut(OutPath + ".spans");
  SpanOut << Spans << "#group\n" << spanLines(perfbench::takeSpans());
  return Out.good() && SpanOut.good() ? 0 : 1;
}
