//===- perfbench/trace.cpp - Span store and layer-boundary wrappers -------===//
//
// Besides the span store, this file defines the spans around calls that
// cross from one library into another. The link step passes
// `--wrap=<symbol>` for each symbol in wrapped_symbols.cmake, so every
// call to, say, lang::parseProgram — from the driver or from inside a
// daemon session — lands in the wrapper below, which opens a span and
// calls the original (`__real_<symbol>`).
//
//===----------------------------------------------------------------------===//

#include "trace.h"

#include "analysis/Lint.h"
#include "cfg/HyperGraph.h"
#include "cfg/Wto.h"
#include "checks/Checker.h"
#include "checks/Fuzz.h"
#include "lang/Parser.h"
#include "server/Session.h"

#include <atomic>
#include <chrono>
#include <mutex>

namespace perfbench {
namespace {

std::atomic<bool> Enabled{false};
std::mutex StoreMu;
std::vector<Span> Store; // Guarded by StoreMu.
thread_local std::vector<int32_t> OpenStack;
thread_local uint32_t CurrentOp = 0;

} // namespace

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void setTracing(bool On) { Enabled.store(On, std::memory_order_relaxed); }
bool tracing() { return Enabled.load(std::memory_order_relaxed); }
void setOperation(uint32_t Op) { CurrentOp = Op; }

ScopedSpan::ScopedSpan(const char *Name) {
  if (!tracing())
    return;
  Span S;
  S.Name = Name;
  S.Parent = OpenStack.empty() ? -1 : OpenStack.back();
  S.Op = CurrentOp;
  std::lock_guard<std::mutex> Lock(StoreMu);
  Id = static_cast<int32_t>(Store.size());
  OpenStack.push_back(Id);
  S.Start = nowNs();
  Store.push_back(S);
}

ScopedSpan::~ScopedSpan() {
  if (Id < 0)
    return;
  int64_t End = nowNs();
  OpenStack.pop_back();
  std::lock_guard<std::mutex> Lock(StoreMu);
  Store[Id].End = End;
}

std::vector<Span> takeSpans() {
  std::lock_guard<std::mutex> Lock(StoreMu);
  return std::move(Store);
}

} // namespace perfbench

//===----------------------------------------------------------------------===//
// Wrappers. Member functions are declared as free functions taking the
// object pointer first, which is how the Itanium C++ ABI passes `this`.
//===----------------------------------------------------------------------===//

using namespace pmaf;
using perfbench::ScopedSpan;

// The mangled names come from wrapped_symbols.cmake as PB_SYM_<key>.
#ifndef PB_SYM_PARSE
#error "build trace.cpp with perfbench/CMakeLists.txt (PB_SYM_* undefined)"
#endif
#define PB_STR_(X) #X
#define PB_STR(X) PB_STR_(X)
#define PB_WRAP(Ret, Name, Sym, Params)                                      \
  Ret real_##Name Params __asm__("__real_" PB_STR(Sym));                    \
  Ret wrap_##Name Params __asm__("__wrap_" PB_STR(Sym));

PB_WRAP(lang::ParseResult, parse, PB_SYM_PARSE,
        (const std::string &, DiagnosticEngine &))
PB_WRAP(unsigned, lint, PB_SYM_LINT,
        (const lang::Program &, DiagnosticEngine &,
         const analysis::LintOptions &))
PB_WRAP(cfg::ProgramGraph, lower, PB_SYM_LOWER, (const lang::Program &))
PB_WRAP(cfg::Wto, wto, PB_SYM_WTO,
        (const std::vector<std::vector<unsigned>> &,
         const std::vector<unsigned> &))
PB_WRAP(checks::ChecksDb, checkBi, PB_SYM_CHECK_BI,
        (const domains::BoolStateSpace &, const cfg::ProgramGraph &,
         const std::function<Matrix(unsigned)> &,
         const checks::CheckerOptions &))
PB_WRAP(checks::ChecksDb, checkMdp, PB_SYM_CHECK_MDP,
        (const cfg::ProgramGraph &, const std::vector<double> &,
         const checks::CheckerOptions &))
PB_WRAP(checks::fuzz::GroundTruth, oracle, PB_SYM_ORACLE,
        (const lang::Program &, const lang::Stmt &, uint64_t, unsigned,
         unsigned))
PB_WRAP(server::EditReply, edit, PB_SYM_EDIT,
        (server::Session *, const std::string &))
PB_WRAP(server::AnalyzeReply, analyze, PB_SYM_ANALYZE,
        (server::Session *, const server::AnalyzeRequest &))

lang::ParseResult wrap_parse(const std::string &Source,
                             DiagnosticEngine &Diags) {
  ScopedSpan S("lang.parse");
  return real_parse(Source, Diags);
}

unsigned wrap_lint(const lang::Program &Prog, DiagnosticEngine &Diags,
                   const analysis::LintOptions &Opts) {
  ScopedSpan S("analysis.lint");
  return real_lint(Prog, Diags, Opts);
}

cfg::ProgramGraph wrap_lower(const lang::Program &Prog) {
  ScopedSpan S("cfg.lower");
  return real_lower(Prog);
}

cfg::Wto wrap_wto(const std::vector<std::vector<unsigned>> &Successors,
                  const std::vector<unsigned> &Roots) {
  ScopedSpan S("cfg.wto");
  return real_wto(Successors, Roots);
}

checks::ChecksDb
wrap_checkBi(const domains::BoolStateSpace &Space,
             const cfg::ProgramGraph &Graph,
             const std::function<Matrix(unsigned)> &SummaryAt,
             const checks::CheckerOptions &Opts) {
  ScopedSpan S("checks.check");
  return real_checkBi(Space, Graph, SummaryAt, Opts);
}

checks::ChecksDb wrap_checkMdp(const cfg::ProgramGraph &Graph,
                               const std::vector<double> &Values,
                               const checks::CheckerOptions &Opts) {
  ScopedSpan S("checks.check");
  return real_checkMdp(Graph, Values, Opts);
}

checks::fuzz::GroundTruth wrap_oracle(const lang::Program &Prog,
                                      const lang::Stmt &Assertion,
                                      uint64_t Seed, unsigned Runs,
                                      unsigned MaxSteps) {
  ScopedSpan S("concrete.oracle");
  return real_oracle(Prog, Assertion, Seed, Runs, MaxSteps);
}

server::EditReply wrap_edit(server::Session *This,
                            const std::string &Source) {
  ScopedSpan S("server.session.edit");
  return real_edit(This, Source);
}

server::AnalyzeReply wrap_analyze(server::Session *This,
                                  const server::AnalyzeRequest &Req) {
  ScopedSpan S("server.session.analyze");
  return real_analyze(This, Req);
}
