//===- tests/ServerTest.cpp - Daemon, sessions, incremental solving -------===//
//
// Part of the PMAF reproduction. MIT license.
//
// Three layers of coverage for the pmafd stack:
//
//  1. Solver warm-starts (core::WarmStart): for every procedure of
//     multi-procedure programs — the paper benchmarks and the random
//     program families — re-solving with that procedure's dependence
//     closure dirty must reproduce the cold fixpoint bit-for-bit.
//
//  2. Sessions: editing each procedure body in turn, the incremental
//     analyze must report the same fingerprint and the same checker
//     verdicts as a from-scratch session over the edited source.
//
//  3. The wire protocol: JSON value semantics (strict unsigned reads,
//     escaping, round-trips) and a live socket conversation against an
//     in-process Daemon, including the stable error codes.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "cfg/Wto.h"
#include "core/CompiledProgram.h"
#include "core/Solver.h"
#include "domains/BiDomain.h"
#include "domains/LeiaDomain.h"
#include "domains/MdpDomain.h"
#include "lang/Ast.h"
#include "lang/Parser.h"
#include "server/Daemon.h"
#include "server/Protocol.h"
#include "server/Session.h"
#include "support/Diagnostics.h"

#include "NestedPrograms.h"
#include "RandomProgramGen.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace pmaf;
using namespace pmaf::testgen;

namespace {

std::unique_ptr<lang::Program> parseOrDie(const std::string &Source) {
  DiagnosticEngine Diags;
  lang::ParseResult Parsed = lang::parseProgram(Source, Diags);
  EXPECT_TRUE(Parsed) << Diags.renderAll();
  return std::move(Parsed.Prog);
}

/// Nodes of procedure \p P — the seed set of an edit to its body.
std::vector<unsigned> nodesOfProc(const cfg::ProgramGraph &Graph,
                                  unsigned P) {
  std::vector<unsigned> Nodes;
  for (unsigned V = 0; V != Graph.numNodes(); ++V)
    if (Graph.procOf(V) == P)
      Nodes.push_back(V);
  return Nodes;
}

/// Cold-solves \p Graph, then for every procedure re-solves warm with that
/// procedure's dependence closure dirty and demands value-identical
/// fixpoints. \p Configure applies the domain's solver preset.
template <typename D, typename ConfigureFn>
void expectWarmMatchesCold(D &Dom, const cfg::ProgramGraph &Graph,
                           ConfigureFn Configure) {
  core::CompiledProgram<D> Compiled(Graph, Dom);
  core::SolverOptions Opts;
  Configure(Opts);
  auto Cold = core::solve(Compiled, Opts);
  ASSERT_TRUE(Cold.Stats.Converged);
  for (unsigned P = 0; P != Graph.numProcs(); ++P) {
    core::WarmStart<typename D::Value> Warm;
    Warm.Values = Cold.Values;
    Warm.Dirty =
        cfg::reachableFrom(Compiled.dependents(), nodesOfProc(Graph, P));
    auto WarmRes = core::solve(Compiled, Opts, &Warm);
    ASSERT_TRUE(WarmRes.Stats.Converged);
    ASSERT_EQ(WarmRes.Values.size(), Cold.Values.size());
    for (unsigned V = 0; V != Graph.numNodes(); ++V)
      EXPECT_TRUE(Dom.equal(WarmRes.Values[V], Cold.Values[V]))
          << "proc " << P << " node " << V;
    uint64_t CleanNodes = 0;
    for (char Dirty : Warm.Dirty)
      CleanNodes += Dirty == 0;
    EXPECT_EQ(WarmRes.Stats.NodesReused, CleanNodes);
  }
}

void expectBiWarmMatchesCold(const lang::Program &Prog) {
  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(Prog);
  domains::BoolStateSpace Space(Prog);
  domains::BiDomain Dom(Space);
  expectWarmMatchesCold(Dom, Graph, [](core::SolverOptions &O) {
    O.UseWidening = false;
  });
}

} // namespace

//===----------------------------------------------------------------------===//
// 1. Solver warm-starts
//===----------------------------------------------------------------------===//

TEST(ServerSolverTest, BiWarmStartBitIdenticalOnBenchmarks) {
  for (const benchmarks::BenchProgram &BP : benchmarks::biPrograms()) {
    auto Prog = parseOrDie(BP.Source);
    ASSERT_TRUE(Prog) << BP.Name;
    expectBiWarmMatchesCold(*Prog);
  }
}

TEST(ServerSolverTest, BiWarmStartBitIdenticalOnRandomFamilies) {
  for (const BoolGenConfig &Config :
       {BoolGenConfig::callHeavy(), BoolGenConfig::mixed()}) {
    for (uint64_t Seed : {11u, 23u, 47u}) {
      Rng R(Seed);
      auto Prog = randomBoolProgram(R, Config);
      ASSERT_GT(Prog->Procs.size(), 1u);
      expectBiWarmMatchesCold(*Prog);
    }
  }
}

TEST(ServerSolverTest, MdpWarmStartBitIdenticalOnBenchmarks) {
  for (const benchmarks::BenchProgram &BP : benchmarks::mdpPrograms()) {
    auto Prog = parseOrDie(BP.Source);
    ASSERT_TRUE(Prog) << BP.Name;
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    domains::MdpDomain Dom;
    expectWarmMatchesCold(Dom, Graph, [](core::SolverOptions &O) {
      O.WideningDelay = 10000;
    });
  }
}

TEST(ServerSolverTest, LeiaWarmStartBitIdenticalOnRandomPrograms) {
  for (uint64_t Seed : {5u, 19u}) {
    Rng R(Seed);
    auto Prog = randomRealProgram(R, 3, 4);
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    domains::LeiaDomainT<poly::LadderValue> Dom(*Prog);
    expectWarmMatchesCold(Dom, Graph, [](core::SolverOptions &) {});
  }
}

//===----------------------------------------------------------------------===//
// 2. Sessions: incremental edits vs from-scratch
//===----------------------------------------------------------------------===//

namespace {

/// Edits procedure \p P of the seeded program \p SeedA by splicing in the
/// same procedure's body from the differently-seeded sibling \p SeedB
/// (same generator config, so the variable table and procedure skeleton
/// are unchanged and the edit stays body-only).
std::string splicedEdit(const BoolGenConfig &Config, uint64_t SeedA,
                        uint64_t SeedB, unsigned P) {
  Rng RA(SeedA);
  auto A = randomBoolProgram(RA, Config);
  Rng RB(SeedB);
  auto B = randomBoolProgram(RB, Config);
  A->Procs[P].Body = std::move(B->Procs[P].Body);
  return lang::toString(*A);
}

void expectSessionEditBitIdentical(const BoolGenConfig &Config,
                                   uint64_t SeedA, uint64_t SeedB) {
  Rng RA(SeedA);
  auto A = randomBoolProgram(RA, Config);
  const std::string SourceA = lang::toString(*A);
  const unsigned NumProcs = static_cast<unsigned>(A->Procs.size());
  for (unsigned P = 0; P != NumProcs; ++P) {
    const std::string Edited = splicedEdit(Config, SeedA, SeedB, P);

    server::Session Warm;
    server::LoadReply LR =
        Warm.load(SourceA, "bi", core::NumericBackend::Ladder);
    ASSERT_TRUE(LR.Ok) << LR.Error;
    server::AnalyzeRequest Req;
    server::AnalyzeReply First = Warm.analyze(Req);
    ASSERT_TRUE(First.Ok) << First.Error;
    ASSERT_TRUE(First.Converged);
    server::EditReply ER = Warm.edit(Edited);
    ASSERT_TRUE(ER.Ok) << ER.Error;
    EXPECT_FALSE(ER.FullRebuild);
    server::AnalyzeReply Incremental = Warm.analyze(Req);
    ASSERT_TRUE(Incremental.Ok) << Incremental.Error;
    ASSERT_TRUE(Incremental.Converged);

    server::Session Cold;
    ASSERT_TRUE(Cold.load(Edited, "bi", core::NumericBackend::Ladder).Ok);
    server::AnalyzeReply FromScratch = Cold.analyze(Req);
    ASSERT_TRUE(FromScratch.Ok) << FromScratch.Error;
    ASSERT_TRUE(FromScratch.Converged);

    // The incremental fixpoint, its checker verdicts, and the exit code
    // must be indistinguishable from a from-scratch solve.
    EXPECT_EQ(Incremental.Fingerprint, FromScratch.Fingerprint)
        << "config proc " << P;
    EXPECT_EQ(Incremental.ChecksJson, FromScratch.ChecksJson);
    EXPECT_EQ(Incremental.Exit, FromScratch.Exit);
    if (!ER.ChangedProcs.empty()) {
      EXPECT_TRUE(Incremental.Reuse.Incremental);
      if (ER.DirtyNodes < ER.TotalNodes) {
        EXPECT_GT(Incremental.Reuse.NodesReused, 0u);
      }
    }
  }
}

} // namespace

TEST(ServerSessionTest, EditEachProcedureBitIdenticalCallHeavy) {
  expectSessionEditBitIdentical(BoolGenConfig::callHeavy(), 101, 202);
}

TEST(ServerSessionTest, EditEachProcedureBitIdenticalMixed) {
  expectSessionEditBitIdentical(BoolGenConfig::mixed(), 303, 404);
}

TEST(ServerSessionTest, HelperEditReusesMostTransformerSlots) {
  // A small helper next to a large main: editing the helper must keep at
  // least half the transformer slots (the ISSUE's SERVED acceptance bar).
  const std::string Source = R"(
    bool a, b, c;
    proc helper() { c ~ bernoulli(1/4); }
    proc main() {
      a ~ bernoulli(1/2);
      b ~ bernoulli(1/3);
      helper();
      a := b;
      b := c;
      c := a;
      a := b;
    }
  )";
  const std::string Edited = R"(
    bool a, b, c;
    proc helper() { c ~ bernoulli(3/4); }
    proc main() {
      a ~ bernoulli(1/2);
      b ~ bernoulli(1/3);
      helper();
      a := b;
      b := c;
      c := a;
      a := b;
    }
  )";
  server::Session S;
  ASSERT_TRUE(S.load(Source, "bi", core::NumericBackend::Ladder).Ok);
  ASSERT_TRUE(S.analyze({}).Ok);
  server::EditReply ER = S.edit(Edited);
  ASSERT_TRUE(ER.Ok) << ER.Error;
  ASSERT_EQ(ER.ChangedProcs, std::vector<std::string>{"helper"});
  server::AnalyzeReply AR = S.analyze({});
  ASSERT_TRUE(AR.Ok);
  EXPECT_TRUE(AR.Reuse.Incremental);
  ASSERT_GT(AR.Reuse.TransformersTotal, 0u);
  EXPECT_GE(AR.Reuse.TransformersReused * 2, AR.Reuse.TransformersTotal)
      << AR.Reuse.TransformersReused << "/" << AR.Reuse.TransformersTotal;
}

TEST(ServerSessionTest, ShapeChangesFallBackToFullRebuild) {
  server::Session S;
  ASSERT_TRUE(S.load("bool a; proc main() { a := true; }", "bi",
                     core::NumericBackend::Ladder)
                  .Ok);
  ASSERT_TRUE(S.analyze({}).Ok);
  // New variable: the state space changed, values cannot map across.
  server::EditReply ER =
      S.edit("bool a, b; proc main() { a := true; b := a; }");
  ASSERT_TRUE(ER.Ok) << ER.Error;
  EXPECT_TRUE(ER.FullRebuild);
  server::AnalyzeReply AR = S.analyze({});
  ASSERT_TRUE(AR.Ok);
  EXPECT_FALSE(AR.Reuse.Incremental);
  EXPECT_EQ(S.counters().FullRebuilds, 1u);
}

TEST(ServerSessionTest, BadEditsKeepThePriorProgramResident) {
  server::Session S;
  ASSERT_TRUE(S.load("bool a; proc main() { a := true; }", "bi",
                     core::NumericBackend::Ladder)
                  .Ok);
  server::AnalyzeReply Before = S.analyze({});
  ASSERT_TRUE(Before.Ok);
  server::EditReply Broken = S.edit("bool a; proc main() { a := }");
  EXPECT_FALSE(Broken.Ok);
  EXPECT_EQ(Broken.ErrorCode, "parse-error");
  // The session still answers with the old program, bit-identically.
  server::AnalyzeReply After = S.analyze({});
  ASSERT_TRUE(After.Ok);
  EXPECT_EQ(After.Fingerprint, Before.Fingerprint);
}

TEST(ServerSessionTest, FingerprintSeesBelowSixDigits) {
  // Each pair's fixpoints agree to six significant digits, which is all a
  // rendering with %.6g or std::to_string keeps; the fingerprint hashes
  // the values' bits, so it must tell every pair apart.
  struct Pair {
    const char *Domain;
    const char *A;
    const char *B;
  };
  const Pair Pairs[] = {
      {"bi", "bool b; proc main() { b ~ bernoulli(1/3); }",
       "bool b; proc main() { b ~ bernoulli(0.3333334); }"},
      {"mdp", "bool b; proc main() { reward(0.0000001); }",
       "bool b; proc main() { reward(0.0000002); }"},
      {"termination",
       "bool b; proc main() { if prob(1/3) { while (true) { b := true; } } }",
       "bool b; proc main() { if prob(0.3333334) "
       "{ while (true) { b := true; } } }"},
  };
  const auto Fingerprint = [](const char *Domain, const char *Source) {
    server::Session S;
    server::LoadReply LR = S.load(Source, Domain, core::NumericBackend::Ladder);
    EXPECT_TRUE(LR.Ok) << LR.Error;
    server::AnalyzeReply AR = S.analyze({});
    EXPECT_TRUE(AR.Ok) << AR.Error;
    EXPECT_TRUE(AR.Converged);
    EXPECT_EQ(AR.Fingerprint.size(), 16u);
    return AR.Fingerprint;
  };
  for (const Pair &P : Pairs)
    EXPECT_NE(Fingerprint(P.Domain, P.A), Fingerprint(P.Domain, P.B))
        << P.Domain;
}

TEST(ServerSessionTest, ProgramsNestedToTheBoundAnalyze) {
  for (testgen::Nesting Shape : testgen::AllNestings) {
    SCOPED_TRACE(testgen::toString(Shape));
    server::Session S;
    server::LoadReply LR =
        S.load(testgen::nestedProgram(Shape, lang::MaxNestingDepth), "auto",
               core::NumericBackend::Ladder);
    ASSERT_TRUE(LR.Ok) << LR.Error;
    server::AnalyzeReply AR = S.analyze({});
    ASSERT_TRUE(AR.Ok) << AR.Error;
    EXPECT_TRUE(AR.Converged);
    EXPECT_EQ(AR.Exit, 0);
  }
}

TEST(ServerSessionTest, AnalyzeBeforeLoadFails) {
  server::Session S;
  server::AnalyzeReply AR = S.analyze({});
  EXPECT_FALSE(AR.Ok);
  EXPECT_EQ(AR.ErrorCode, "no-program");
}

//===----------------------------------------------------------------------===//
// 3. Protocol: JSON semantics and the live daemon
//===----------------------------------------------------------------------===//

TEST(ProtocolJsonTest, RoundTripAndStrictUnsigned) {
  std::string Error;
  auto J = server::Json::parse(
      R"({"a": 7, "b": [1, 2.5, "x"], "c": {"d": true, "e": null}})",
      &Error);
  ASSERT_TRUE(J) << Error;
  ASSERT_TRUE(J->isObject());
  ASSERT_NE(J->get("a"), nullptr);
  EXPECT_EQ(J->get("a")->asUnsigned(), std::optional<uint64_t>(7));
  EXPECT_EQ(J->get("b")->items().size(), 3u);
  // Strictness: fractions, signs, and overflow never coerce.
  EXPECT_FALSE(server::Json::parse("1.5")->asUnsigned().has_value());
  EXPECT_FALSE(server::Json::parse("-2")->asUnsigned().has_value());
  EXPECT_FALSE(
      server::Json::parse("18446744073709551616")->asUnsigned().has_value());
  EXPECT_EQ(server::Json::parse("18446744073709551615")->asUnsigned(),
            std::optional<uint64_t>(UINT64_MAX));
  // Dump/parse round trip preserves structure and escapes.
  server::Json Obj = server::Json::object();
  Obj.set("s", server::Json::string("a\"b\\c\n\t"));
  Obj.set("n", server::Json::number(uint64_t(123456789012345ull)));
  auto Back = server::Json::parse(Obj.dump(), &Error);
  ASSERT_TRUE(Back) << Error;
  EXPECT_EQ(Back->get("s")->asString(), "a\"b\\c\n\t");
  EXPECT_EQ(Back->get("n")->asUnsigned(),
            std::optional<uint64_t>(123456789012345ull));
}

TEST(ProtocolJsonTest, ParseErrorsAreReported) {
  std::string Error;
  EXPECT_FALSE(server::Json::parse("{\"a\":}", &Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(server::Json::parse("[1, 2", &Error));
  EXPECT_FALSE(server::Json::parse("{} trailing", &Error));
}

namespace {

/// A blocking protocol client for the in-process daemon.
class TestClient {
public:
  explicit TestClient(uint16_t Port) { open(Port); }
  ~TestClient() {
    if (Fd >= 0)
      ::close(Fd);
  }

  server::Json request(const std::string &Payload) {
    EXPECT_TRUE(server::writeFrame(Fd, Payload));
    std::string Reply, Error;
    EXPECT_TRUE(server::readFrame(Fd, Reply, Error)) << Error;
    std::string ParseError;
    auto J = server::Json::parse(Reply, &ParseError);
    EXPECT_TRUE(J) << ParseError;
    return J ? *J : server::Json();
  }

private:
  void open(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(Fd, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(Port);
    ASSERT_EQ(
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr), 0)
        << std::strerror(errno);
  }

  int Fd = -1;
};

std::string fieldString(const server::Json &J, const char *Key) {
  const server::Json *F = J.get(Key);
  return F ? F->asString() : std::string();
}

} // namespace

TEST(DaemonTest, LoadAnalyzeEditAnalyzeOverTheWire) {
  server::Daemon D;
  std::string Error;
  ASSERT_TRUE(D.start(Error)) << Error;
  {
    TestClient C(D.port());
    server::Json Load = C.request(
        R"({"cmd":"load","source":"bool x; proc helper() { x ~ bernoulli(3/4); } proc main() { assert_prob(x) >= 1/2; helper(); }"})");
    EXPECT_TRUE(Load.get("ok") && Load.get("ok")->asBool());
    server::Json First = C.request(R"({"cmd":"analyze"})");
    ASSERT_TRUE(First.get("ok") && First.get("ok")->asBool());
    const std::string FirstFp = fieldString(First, "fingerprint");
    EXPECT_FALSE(FirstFp.empty());

    server::Json Edit = C.request(
        R"({"cmd":"edit","source":"bool x; proc helper() { x ~ bernoulli(7/8); } proc main() { assert_prob(x) >= 1/2; helper(); }"})");
    ASSERT_TRUE(Edit.get("ok") && Edit.get("ok")->asBool());
    server::Json Incr = C.request(R"({"cmd":"analyze"})");
    ASSERT_TRUE(Incr.get("ok") && Incr.get("ok")->asBool());
    const server::Json *Reuse = Incr.get("reuse");
    ASSERT_NE(Reuse, nullptr);
    EXPECT_TRUE(Reuse->get("incremental")->asBool());

    server::Json ColdAgain = C.request(R"({"cmd":"analyze","cold":true})");
    ASSERT_TRUE(ColdAgain.get("ok") && ColdAgain.get("ok")->asBool());
    EXPECT_EQ(fieldString(Incr, "fingerprint"),
              fieldString(ColdAgain, "fingerprint"));
    EXPECT_NE(fieldString(Incr, "fingerprint"), FirstFp);

    server::Json Stats = C.request(R"({"cmd":"stats"})");
    EXPECT_TRUE(Stats.get("ok") && Stats.get("ok")->asBool());
    EXPECT_EQ(Stats.get("solves")->asUnsigned(),
              std::optional<uint64_t>(3));
  }
  D.requestStop();
  D.wait();
}

TEST(DaemonTest, StableErrorCodes) {
  server::Daemon D;
  std::string Error;
  ASSERT_TRUE(D.start(Error)) << Error;
  {
    TestClient C(D.port());
    EXPECT_EQ(fieldString(C.request("{\"cmd\":\"frobnicate\"}"), "code"),
              "unknown-command");
    EXPECT_EQ(fieldString(C.request("not json"), "code"), "protocol-error");
    EXPECT_EQ(fieldString(C.request("{\"cmd\":\"analyze\"}"), "code"),
              "unknown-session");
    EXPECT_EQ(
        fieldString(C.request("{\"cmd\":\"load\",\"source\":\"bool\"}"),
                    "code"),
        "parse-error");
    EXPECT_EQ(fieldString(C.request("{\"cmd\":\"load\"}"), "code"),
              "protocol-error");
    // Out-of-range numeric literals are parse errors of the load; they
    // once aborted the whole daemon (an uncaught std::out_of_range) or
    // held it for a minute (1e300000). The daemon keeps serving.
    for (const char *Literal : {"1e99999999999999999999", "1e300000"}) {
      server::Json Huge = C.request(
          std::string(R"({"cmd":"load","session":"huge","source":)") +
          R"("real x; proc main() { x := )" + Literal + R"(; }"})");
      EXPECT_EQ(fieldString(Huge, "code"), "parse-error") << Literal;
      ASSERT_TRUE(Huge.get("diagnostics")) << Literal;
      EXPECT_NE(Huge.get("diagnostics")->dump().find("number-out-of-range"),
                std::string::npos)
          << Literal;
    }
    server::Json Reload = C.request(
        R"({"cmd":"load","session":"huge","domain":"leia",)"
        R"("source":"real x; proc main() { x := 1e3; }"})");
    EXPECT_TRUE(Reload.get("ok") && Reload.get("ok")->asBool());
    server::Json Served = C.request(R"({"cmd":"analyze","session":"huge"})");
    EXPECT_TRUE(Served.get("ok") && Served.get("ok")->asBool());
    C.request(
        R"({"cmd":"load","source":"bool x; proc main() { x := true; }"})");
    EXPECT_EQ(
        fieldString(C.request(R"({"cmd":"analyze","max_updates":1.5})"),
                    "code"),
        "invalid-flag-value");
    EXPECT_EQ(fieldString(C.request(R"({"cmd":"configure","jobs":4})"),
                          "code"),
              "unknown-command");
  }
  D.requestStop();
  D.wait();
}

TEST(DaemonTest, LoadsEveryDomainOfTheTable) {
  server::Daemon D;
  std::string Error;
  ASSERT_TRUE(D.start(Error)) << Error;
  {
    TestClient C(D.port());
    // A reward assertion alone is enough to pick the MDP domain.
    server::Json Auto = C.request(
        R"({"cmd":"load","session":"auto","domain":"auto","source":)"
        R"("bool a; proc main() { assert_reward <= 1; )"
        R"(a ~ bernoulli(1/2); }"})");
    ASSERT_TRUE(Auto.get("ok") && Auto.get("ok")->asBool());
    EXPECT_EQ(fieldString(Auto, "domain"), "mdp");
    server::Json Proved = C.request(R"({"cmd":"analyze","session":"auto"})");
    ASSERT_TRUE(Proved.get("checks"));
    EXPECT_EQ(Proved.get("checks")->get("safe")->asUnsigned(),
              std::optional<uint64_t>(1));

    server::Json Term = C.request(
        R"({"cmd":"load","session":"term","domain":"termination","source":)"
        R"("bool a; proc main() { assert_prob(a) >= 1/2; )"
        R"(a ~ bernoulli(1/2); }"})");
    ASSERT_TRUE(Term.get("ok") && Term.get("ok")->asBool());
    EXPECT_EQ(fieldString(Term, "domain"), "termination");
    server::Json Skipped = C.request(R"({"cmd":"analyze","session":"term"})");
    ASSERT_TRUE(Skipped.get("ok") && Skipped.get("ok")->asBool());
    ASSERT_TRUE(Skipped.get("checks"));
    EXPECT_EQ(Skipped.get("checks")->get("skipped")->asUnsigned(),
              std::optional<uint64_t>(1));

    EXPECT_EQ(fieldString(
                  C.request(R"({"cmd":"load","domain":"typo","source":)"
                            R"("bool a; proc main() { a := true; }"})"),
                  "code"),
              "unknown-domain");
  }
  D.requestStop();
  D.wait();
}

TEST(DaemonTest, LeiaRepliesCarryTheCertificate) {
  server::Daemon D;
  std::string Error;
  ASSERT_TRUE(D.start(Error)) << Error;
  {
    TestClient C(D.port());
    C.request(R"({"cmd":"load","session":"leia","source":)"
              R"("real x; proc main() { while prob(1/2) { x := x + 1; } }"})");
    server::Json Leia = C.request(R"({"cmd":"analyze","session":"leia"})");
    ASSERT_TRUE(Leia.get("ok") && Leia.get("ok")->asBool());
    ASSERT_TRUE(Leia.get("post_fixpoint_checked"));
    EXPECT_TRUE(Leia.get("post_fixpoint_checked")->asBool());
    const server::Json *Stats = Leia.get("stats");
    ASSERT_TRUE(Stats && Stats->get("extrapolations") &&
                Stats->get("extrapolations_accepted"));
    EXPECT_EQ(Stats->get("extrapolations")->asUnsigned(),
              std::optional<uint64_t>(1));
    EXPECT_EQ(Stats->get("extrapolations_accepted")->asUnsigned(),
              std::optional<uint64_t>(1));

    // Domains that do not extrapolate reply as they always did.
    C.request(R"({"cmd":"load","session":"bi","source":)"
              R"("bool a; proc main() { a ~ bernoulli(1/2); }"})");
    server::Json Bi = C.request(R"({"cmd":"analyze","session":"bi"})");
    ASSERT_TRUE(Bi.get("ok") && Bi.get("ok")->asBool());
    EXPECT_FALSE(Bi.get("post_fixpoint_checked"));
    ASSERT_TRUE(Bi.get("stats"));
    EXPECT_FALSE(Bi.get("stats")->get("extrapolations"));
  }
  D.requestStop();
  D.wait();
}

TEST(DaemonTest, InputsPastTheBoundsAreRejectedAndTheDaemonServesOn) {
  server::Daemon D;
  std::string Error;
  ASSERT_TRUE(D.start(Error)) << Error;
  {
    TestClient C(D.port());
    // One dense BI value over 13 Booleans would be 512 MiB.
    std::string Bools = "bool b0";
    for (int I = 1; I != 13; ++I)
      Bools += ", b" + std::to_string(I);
    server::Json Wide = C.request(
        R"({"cmd":"load","session":"s","domain":"bi","source":")" + Bools +
        R"(; proc main() { b0 := true; }"})");
    EXPECT_EQ(fieldString(Wide, "code"), "lint-error");
    ASSERT_TRUE(Wide.get("diagnostics"));
    EXPECT_NE(Wide.get("diagnostics")->dump().find("domain-mismatch"),
              std::string::npos);

    // A 20,000-deep expression once overflowed the connection's stack.
    server::Json Deep = C.request(
        R"({"cmd":"load","session":"s","source":")" +
        testgen::nestedProgram(testgen::Nesting::Parens, 20000) + R"("})");
    EXPECT_EQ(fieldString(Deep, "code"), "parse-error");
    ASSERT_TRUE(Deep.get("diagnostics"));
    EXPECT_NE(Deep.get("diagnostics")->dump().find("nesting-too-deep"),
              std::string::npos);

    server::Json Reload = C.request(
        R"({"cmd":"load","session":"s","source":")" +
        testgen::nestedProgram(testgen::Nesting::Parens,
                               lang::MaxNestingDepth) +
        R"("})");
    ASSERT_TRUE(Reload.get("ok") && Reload.get("ok")->asBool());
    server::Json Served = C.request(R"({"cmd":"analyze","session":"s"})");
    EXPECT_TRUE(Served.get("ok") && Served.get("ok")->asBool());
  }
  D.requestStop();
  D.wait();
}

TEST(DaemonTest, ConcurrentClientsOnDistinctSessions) {
  server::Daemon D;
  std::string Error;
  ASSERT_TRUE(D.start(Error)) << Error;
  std::vector<std::thread> Clients;
  std::atomic<unsigned> Failures{0};
  for (int I = 0; I != 4; ++I)
    Clients.emplace_back([&D, &Failures, I] {
      TestClient C(D.port());
      const std::string Session = "s" + std::to_string(I);
      server::Json Load = C.request(
          "{\"cmd\":\"load\",\"session\":\"" + Session +
          "\",\"source\":\"bool a, b; proc main() { a ~ bernoulli(1/2); "
          "b := a; }\"}");
      if (!Load.get("ok") || !Load.get("ok")->asBool())
        Failures.fetch_add(1);
      for (int Round = 0; Round != 5; ++Round) {
        server::Json R = C.request("{\"cmd\":\"analyze\",\"session\":\"" +
                                   Session + "\"}");
        if (!R.get("ok") || !R.get("ok")->asBool())
          Failures.fetch_add(1);
      }
    });
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  D.requestStop();
  D.wait();
}

TEST(DaemonTest, ClosedConnectionThreadsAreJoined) {
  server::Daemon D;
  std::string Error;
  ASSERT_TRUE(D.start(Error)) << Error;
  {
    TestClient C(D.port());
    C.request(R"({"cmd":"load","source":"bool x; proc main() { x := true; }"})");
  }
  // Churn: every connection is served once and closed. The acceptor joins
  // the threads of closed connections as new ones arrive, so the daemon
  // must not hold one thread per past connection.
  for (int I = 0; I != 100; ++I) {
    TestClient C(D.port());
    server::Json R = C.request(R"({"cmd":"analyze"})");
    EXPECT_TRUE(R.get("ok") && R.get("ok")->asBool());
  }
  {
    TestClient C(D.port());
    server::Json Stats = C.request(R"({"cmd":"stats"})");
    ASSERT_TRUE(Stats.get("ok") && Stats.get("ok")->asBool());
    ASSERT_NE(Stats.get("connections"), nullptr);
    std::optional<uint64_t> Held = Stats.get("connections")->asUnsigned();
    ASSERT_TRUE(Held.has_value());
    EXPECT_GE(*Held, 1u); // This connection.
    EXPECT_LT(*Held, 10u);
  }
  D.requestStop();
  D.wait();
}
