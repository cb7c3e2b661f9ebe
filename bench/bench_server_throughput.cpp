//===- bench/bench_server_throughput.cpp - Resident-session serving -------===//
//
// Measures pmafd's resident-session serving path end to end — framing,
// JSON, session lookup, and the incremental re-solve — over a real
// loopback socket against an in-process Daemon:
//
//  (i)  SERVED cold vs warm: per multi-procedure program, the solve time
//       of a forced-cold analyze vs an analyze after a single-procedure
//       edit. The warm row is *asserted*: the edit must leave at least
//       50% of the Seq-edge transformer slots adopted from the previous
//       compilation (the whole point of keeping sessions resident), and
//       a reuse below the floor exits nonzero so CI can gate on it.
//  (ii) SERVED throughput: 4 concurrent clients on distinct sessions,
//       each driving edit->analyze round trips; sustained solves/sec is
//       the record of merit (the JSON stores seconds *per solve* so the
//       trajectory stays comparable with the per-analysis benches).
//
// Programs come from the test suite's seeded generators (callHeavy and
// mixed presets: main + helpers with DAG calls), the same families
// ServerTest proves bit-identical under warm re-solve — this bench adds
// the wall-clock and the reuse floor on top of that correctness result.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "RandomProgramGen.h"
#include "lang/Ast.h"
#include "server/Daemon.h"
#include "server/Protocol.h"

#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

using namespace pmaf;
using namespace pmaf::testgen;

namespace {

/// The warm-edit floor of family (i): after editing one procedure, at
/// least this fraction of Seq-edge transformer slots must be adopted
/// from the previous compilation.
constexpr double MinTransformerReuse = 0.5;

/// Edit->analyze round trips per client in the throughput family.
constexpr unsigned SolvesPerClient = 8;
constexpr unsigned NumClients = 4;

/// A blocking frame-protocol client on a plain loopback socket.
class Client {
public:
  explicit Client(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return;
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;
  ~Client() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool connected() const { return Fd >= 0; }

  /// One request/reply round trip; ok() must be checked by the caller.
  server::Json request(const server::Json &Req) {
    std::string Payload, Error;
    if (!server::writeFrame(Fd, Req.dump()) ||
        !server::readFrame(Fd, Payload, Error))
      return server::Json::null();
    std::optional<server::Json> Reply = server::Json::parse(Payload);
    return Reply ? std::move(*Reply) : server::Json::null();
  }

private:
  int Fd = -1;
};

bool ok(const server::Json &Reply) {
  const server::Json *Ok = Reply.get("ok");
  return Ok && Ok->asBool();
}

server::Json makeReq(const char *Cmd, const std::string &Session) {
  server::Json R = server::Json::object();
  R.set("cmd", server::Json::string(Cmd));
  R.set("session", server::Json::string(Session));
  return R;
}

server::Json loadReq(const std::string &Session, const std::string &Source) {
  server::Json R = makeReq("load", Session);
  R.set("source", server::Json::string(Source));
  R.set("domain", server::Json::string("bi"));
  return R;
}

server::Json editReq(const std::string &Session, const std::string &Source) {
  server::Json R = makeReq("edit", Session);
  R.set("source", server::Json::string(Source));
  return R;
}

uint64_t field(const server::Json &Obj, const char *Outer,
               const char *Inner) {
  const server::Json *O = Obj.get(Outer);
  const server::Json *I = O ? O->get(Inner) : nullptr;
  return I ? I->asUnsigned().value_or(0) : 0;
}

/// A BenchRecord filled from an analyze reply's "stats" object.
bench::BenchRecord record(std::string Name, double Seconds,
                          const server::Json &Reply) {
  bench::BenchRecord R;
  R.Name = std::move(Name);
  R.Seconds = Seconds;
  R.NodeUpdates = field(Reply, "stats", "node_updates");
  R.Widenings = field(Reply, "stats", "widenings");
  R.InterpretCalls = field(Reply, "stats", "interpret_calls");
  R.InterpretCacheHits = field(Reply, "stats", "interpret_cache_hits");
  return R;
}

/// The program of seed \p SeedA with procedure \p P's body spliced in
/// from seed \p SeedB — a single-procedure edit of known extent, the same
/// construction ServerTest proves bit-identical under warm re-solve.
std::string splicedSource(const BoolGenConfig &Config, uint64_t SeedA,
                          uint64_t SeedB, unsigned P) {
  Rng RA(SeedA);
  auto A = randomBoolProgram(RA, Config);
  Rng RB(SeedB);
  auto B = randomBoolProgram(RB, Config);
  A->Procs[P % A->Procs.size()].Body =
      std::move(B->Procs[P % B->Procs.size()].Body);
  return lang::toString(*A);
}

struct ServedProgram {
  std::string Name;
  std::string Source; ///< The resident program.
  std::string Edited; ///< Source with one procedure body replaced.
};

std::vector<ServedProgram> servedPrograms() {
  std::vector<ServedProgram> Out;
  const struct {
    const char *Name;
    BoolGenConfig Config;
    uint64_t SeedA, SeedB;
  } Families[] = {
      {"callheavy-a", BoolGenConfig::callHeavy(), 1001, 9001},
      {"callheavy-b", BoolGenConfig::callHeavy(), 2002, 9002},
      {"mixed-a", BoolGenConfig::mixed(), 3003, 9003},
      {"mixed-b", BoolGenConfig::mixed(), 4004, 9004},
  };
  for (const auto &F : Families) {
    Rng R(F.SeedA);
    auto Prog = randomBoolProgram(R, F.Config);
    // Edit a helper (procedure 1), never main: the interesting reuse case
    // is "a leaf changed, the rest of the call DAG did not".
    Out.push_back({F.Name, lang::toString(*Prog),
                   splicedSource(F.Config, F.SeedA, F.SeedB, 1)});
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = bench::extractStringFlag(argc, argv, "--json=");
  bench::JsonEmitter Json;
  unsigned Failures = 0;

  server::DaemonOptions Opts;
  Opts.Port = 0; // Ephemeral.
  server::Daemon Daemon(Opts);
  std::string Error;
  if (!Daemon.start(Error)) {
    std::fprintf(stderr, "error: cannot start daemon: %s\n", Error.c_str());
    return 1;
  }
  const uint16_t Port = Daemon.port();

  std::vector<ServedProgram> Programs = servedPrograms();

  // (i) Cold vs warm-after-edit solve time, with the transformer-slot
  // reuse floor.
  std::printf("Served sessions: cold vs warm-after-single-procedure-edit "
              "(loopback, 1 client)\n");
  bench::printRule(78);
  std::printf("%-14s %10s %10s %8s %18s\n", "program", "cold(s)", "warm(s)",
              "speedup", "transformer reuse");
  bench::printRule(78);
  for (const ServedProgram &P : Programs) {
    Client C(Port);
    if (!C.connected()) {
      std::fprintf(stderr, "error: cannot connect to 127.0.0.1:%u\n", Port);
      return 1;
    }
    const std::string Session = "bench-" + P.Name;
    if (!ok(C.request(loadReq(Session, P.Source)))) {
      std::fprintf(stderr, "error: load failed for %s\n", P.Name.c_str());
      ++Failures;
      continue;
    }
    // Cold rows re-analyze from scratch each time (cold:true drops the
    // resident fixpoint and transformer cache).
    server::Json ColdReply;
    server::Json Cold = makeReq("analyze", Session);
    Cold.set("cold", server::Json::boolean(true));
    double ColdSeconds = bench::timedTrimmedMean(
        [&] { ColdReply = C.request(Cold); }, 5);
    if (!ok(ColdReply)) {
      std::fprintf(stderr, "error: cold analyze failed for %s\n",
                   P.Name.c_str());
      ++Failures;
      continue;
    }
    // Warm rows alternate edit(Edited)/edit(Source) — every round trip
    // changes exactly one procedure body and re-solves incrementally.
    server::Json WarmReply;
    bool Toggle = true;
    auto WarmRound = [&] {
      const std::string &Next = Toggle ? P.Edited : P.Source;
      Toggle = !Toggle;
      if (!ok(C.request(editReq(Session, Next))))
        return;
      WarmReply = C.request(makeReq("analyze", Session));
    };
    WarmRound(); // Prime: the first edit after the cold runs.
    double WarmSeconds = bench::timedTrimmedMean(WarmRound, 5);
    if (!ok(WarmReply)) {
      std::fprintf(stderr, "error: warm analyze failed for %s\n",
                   P.Name.c_str());
      ++Failures;
      continue;
    }
    uint64_t Reused = field(WarmReply, "reuse", "transformers_reused");
    uint64_t Total = field(WarmReply, "reuse", "transformers_total");
    double Fraction = Total ? double(Reused) / double(Total) : 0.0;
    std::printf("%-14s %10.5f %10.5f %7.2fx %9llu/%-4llu %.0f%%\n",
                P.Name.c_str(), ColdSeconds, WarmSeconds,
                WarmSeconds > 0 ? ColdSeconds / WarmSeconds : 0.0,
                static_cast<unsigned long long>(Reused),
                static_cast<unsigned long long>(Total), Fraction * 100.0);
    if (Fraction < MinTransformerReuse) {
      std::fprintf(stderr,
                   "FAIL: SERVED/%s reuses only %llu/%llu transformer "
                   "slots (%.0f%%) after a single-procedure edit "
                   "(floor %.0f%%)\n",
                   P.Name.c_str(), static_cast<unsigned long long>(Reused),
                   static_cast<unsigned long long>(Total), Fraction * 100.0,
                   MinTransformerReuse * 100.0);
      ++Failures;
    }
    Json.add(record("SERVED/cold/" + P.Name, ColdSeconds, ColdReply));
    Json.add(record("SERVED/warm-edit/" + P.Name, WarmSeconds, WarmReply));
  }
  bench::printRule(78);

  // (ii) Sustained multi-client throughput: 4 clients, distinct sessions,
  // each looping edit->analyze; wall clock covers the full protocol round
  // trips, so this is solves/sec as an editor or CI bot would see them.
  std::printf("\nSustained throughput: %u clients x %u edit->analyze round "
              "trips each\n",
              NumClients, SolvesPerClient);
  bench::printRule(78);
  for (bool Incremental : {false, true}) {
    std::atomic<unsigned> ThreadFailures{0};
    std::vector<std::thread> Threads;
    auto Start = std::chrono::steady_clock::now();
    for (unsigned T = 0; T != NumClients; ++T) {
      Threads.emplace_back([&, T] {
        const ServedProgram &P = Programs[T % Programs.size()];
        Client C(Port);
        std::string Session = "thrpt-" + std::to_string(T) +
                              (Incremental ? "-inc" : "-cold");
        if (!C.connected() ||
            !ok(C.request(loadReq(Session, P.Source)))) {
          ThreadFailures.fetch_add(1);
          return;
        }
        bool Toggle = true;
        for (unsigned I = 0; I != SolvesPerClient; ++I) {
          server::Json Req = makeReq("analyze", Session);
          if (Incremental) {
            const std::string &Next = Toggle ? P.Edited : P.Source;
            Toggle = !Toggle;
            if (!ok(C.request(editReq(Session, Next)))) {
              ThreadFailures.fetch_add(1);
              return;
            }
          } else {
            Req.set("cold", server::Json::boolean(true));
          }
          if (!ok(C.request(Req))) {
            ThreadFailures.fetch_add(1);
            return;
          }
        }
      });
    }
    for (std::thread &T : Threads)
      T.join();
    double Wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
    if (ThreadFailures.load()) {
      std::fprintf(stderr, "error: %u throughput client(s) failed\n",
                   ThreadFailures.load());
      Failures += ThreadFailures.load();
      continue;
    }
    const unsigned Solves = NumClients * SolvesPerClient;
    double PerSolve = Wall / Solves;
    std::printf("%-12s %4u solves in %8.4fs  -> %8.1f solves/sec\n",
                Incremental ? "incremental" : "cold", Solves, Wall,
                Solves / Wall);
    Json.add(record(std::string("SERVED/throughput/clients=4/") +
                        (Incremental ? "incremental" : "cold"),
                    PerSolve, server::Json::null()));
  }
  bench::printRule(78);
  std::printf("\n");

  {
    Client C(Port);
    if (C.connected())
      C.request(makeReq("shutdown", ""));
  }
  Daemon.wait();

  if (!Json.writeTo(JsonPath))
    std::fprintf(stderr, "warning: cannot write %s\n", JsonPath.c_str());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (Failures) {
    std::fprintf(stderr, "%u SERVED failure(s)\n", Failures);
    return 1;
  }
  return 0;
}
