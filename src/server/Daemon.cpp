//===- server/Daemon.cpp - The pmafd analysis daemon ----------------------===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/Daemon.h"

#include "driver/Domains.h"
#include "server/Protocol.h"

#include <csignal>
#include <cstdio>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace pmaf;
using namespace pmaf::server;

namespace {

Json errorReply(const char *Code, std::string Message) {
  Json R = Json::object();
  R.set("ok", Json::boolean(false));
  R.set("code", Json::string(Code));
  R.set("error", Json::string(std::move(Message)));
  return R;
}

std::string getString(const Json &Req, const char *Key,
                      const char *Default) {
  const Json *J = Req.get(Key);
  return J && J->isString() ? J->asString() : std::string(Default);
}

bool getBool(const Json &Req, const char *Key, bool Default) {
  const Json *J = Req.get(Key);
  return J ? J->asBool(Default) : Default;
}

/// Strictly reads an optional unsigned field; distinguishes "absent"
/// (Ok, no value) from "present but not an unsigned integer" (!Ok).
struct OptUnsigned {
  bool Ok = true;
  std::optional<uint64_t> Value;
};

OptUnsigned getUnsigned(const Json &Req, const char *Key) {
  OptUnsigned Out;
  const Json *J = Req.get(Key);
  if (!J)
    return Out;
  Out.Value = J->asUnsigned();
  Out.Ok = Out.Value.has_value();
  return Out;
}

Json reuseToJson(const IncrementalReuse &Reuse) {
  Json R = Json::object();
  R.set("incremental", Json::boolean(Reuse.Incremental));
  R.set("transformers_reused", Json::number(Reuse.TransformersReused));
  R.set("transformers_total", Json::number(Reuse.TransformersTotal));
  R.set("sccs_skipped", Json::number(Reuse.SccsSkipped));
  R.set("sccs_resolved", Json::number(Reuse.SccsResolved));
  R.set("nodes_reused", Json::number(Reuse.NodesReused));
  R.set("nodes_total", Json::number(Reuse.NodesTotal));
  return R;
}

/// \p Extrapolating adds the counters only domains that extrapolate keep.
Json statsToJson(const core::SolverStats &S, bool Extrapolating) {
  Json R = Json::object();
  R.set("node_updates", Json::number(S.NodeUpdates));
  R.set("widenings", Json::number(S.WideningApplications));
  if (Extrapolating) {
    R.set("extrapolations", Json::number(S.Extrapolations));
    R.set("extrapolations_accepted", Json::number(S.ExtrapolationsAccepted));
  }
  R.set("interpret_calls", Json::number(S.InterpretCalls));
  R.set("interpret_cache_hits", Json::number(S.InterpretCacheHits));
  Json Numeric = Json::object();
  Numeric.set("minimization_calls", Json::number(S.Numeric.MinimizationCalls));
  Numeric.set("conversion_cache_hits",
              Json::number(S.Numeric.ConversionCacheHits));
  Numeric.set("conversion_cache_misses",
              Json::number(S.Numeric.ConversionCacheMisses));
  R.set("numeric", Numeric);
  return R;
}

} // namespace

Daemon::Daemon(DaemonOptions InitOpts) : Opts(InitOpts) {}

Daemon::~Daemon() {
  requestStop();
  wait();
}

bool Daemon::start(std::string &Error) {
  // A client that disconnects mid-reply must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Error = std::strerror(errno);
    return false;
  }
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof One);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Opts.Port);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) < 0 ||
      ::listen(ListenFd, 64) < 0) {
    Error = std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  socklen_t Len = sizeof Addr;
  if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len) < 0) {
    Error = std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  BoundPort = ntohs(Addr.sin_port);
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void Daemon::acceptLoop() {
  for (;;) {
    int Client = ::accept(ListenFd, nullptr, nullptr);
    if (Client < 0) {
      if (errno == EINTR)
        continue;
      return; // Listener closed (shutdown) or fatal: stop accepting.
    }
    if (Stopping.load(std::memory_order_relaxed)) {
      ::close(Client);
      return;
    }
    std::vector<std::thread> Done;
    {
      std::lock_guard<std::mutex> Lock(ConnMu);
      for (uint64_t Id : Finished) {
        auto It = Connections.find(Id);
        Done.push_back(std::move(It->second));
        Connections.erase(It);
      }
      Finished.clear();
      ActiveFds.push_back(Client);
      const uint64_t Id = NextConnection++;
      Connections.emplace(
          Id, std::thread([this, Id, Client] { serveConnection(Id, Client); }));
    }
    // Each finished thread has already left ConnMu for the last time, so
    // these joins return as soon as its stack unwinds.
    for (std::thread &T : Done)
      T.join();
  }
}

void Daemon::serveConnection(uint64_t Id, int ClientFd) {
  std::string Payload;
  for (;;) {
    std::string Error;
    if (!readFrame(ClientFd, Payload, Error))
      break; // Clean EOF or framing error either way ends the connection.
    bool Shutdown = false;
    const std::string Reply = handle(Payload, Shutdown);
    const bool Wrote = writeFrame(ClientFd, Reply);
    if (Shutdown) {
      requestStop();
      break;
    }
    if (!Wrote)
      break;
  }
  // Forget the fd before closing it: once closed, its number can be
  // reused by a newer connection whose entry this must not erase.
  std::lock_guard<std::mutex> Lock(ConnMu);
  for (size_t I = 0; I != ActiveFds.size(); ++I)
    if (ActiveFds[I] == ClientFd) {
      ActiveFds.erase(ActiveFds.begin() + I);
      break;
    }
  ::close(ClientFd);
  Finished.push_back(Id);
}

void Daemon::requestStop() {
  bool Expected = false;
  if (!Stopping.compare_exchange_strong(Expected, true))
    return;
  // Closing the listener unblocks accept(); shutting active sockets down
  // unblocks any connection thread parked in readFrame.
  if (ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (int Fd : ActiveFds)
      ::shutdown(Fd, SHUT_RDWR);
  }
  StopCv.notify_all();
}

void Daemon::wait() {
  {
    std::unique_lock<std::mutex> Lock(StopMu);
    StopCv.wait(Lock, [this] {
      return Stopping.load(std::memory_order_relaxed);
    });
  }
  if (Acceptor.joinable())
    Acceptor.join();
  // The acceptor is gone, so no connection can be added any more.
  std::map<uint64_t, std::thread> Remaining;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    Remaining.swap(Connections);
    Finished.clear();
  }
  for (auto &[Id, Conn] : Remaining)
    Conn.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
}

std::shared_ptr<Session> Daemon::sessionFor(const std::string &Name,
                                            bool Create) {
  std::lock_guard<std::mutex> Lock(SessionsMu);
  auto It = Sessions.find(Name);
  if (It != Sessions.end())
    return It->second;
  if (!Create)
    return nullptr;
  auto S = std::make_shared<Session>();
  Sessions.emplace(Name, S);
  return S;
}

std::string Daemon::handle(const std::string &Payload, bool &Shutdown) {
  Requests.fetch_add(1, std::memory_order_relaxed);
  std::string ParseError;
  std::optional<Json> Req = Json::parse(Payload, &ParseError);
  if (!Req || !Req->isObject())
    return errorReply("protocol-error",
                      "request is not a JSON object: " + ParseError)
        .dump();
  const Json *Cmd = Req->get("cmd");
  if (!Cmd || !Cmd->isString())
    return errorReply("protocol-error", "request has no string \"cmd\" field")
        .dump();
  const std::string &Name = Cmd->asString();
  const std::string SessionName = getString(*Req, "session", "default");

  if (Name == "shutdown") {
    Shutdown = true;
    Json R = Json::object();
    R.set("ok", Json::boolean(true));
    R.set("stopping", Json::boolean(true));
    return R.dump();
  }

  if (Name == "load") {
    const Json *Source = Req->get("source");
    if (!Source || !Source->isString())
      return errorReply("protocol-error",
                        "load requires a string \"source\" field")
          .dump();
    const std::string DomainName = getString(*Req, "domain", "auto");
    const std::string NumericName = getString(
        *Req, "numeric", core::toString(driver::defaultNumeric()));
    std::optional<core::NumericBackend> Backend =
        core::parseNumericBackend(NumericName);
    if (!Backend)
      return errorReply("invalid-flag-value",
                        "unknown numeric backend '" + NumericName +
                            "' (expected " + core::NumericBackendNames +
                            ")")
          .dump();
    std::shared_ptr<Session> S = sessionFor(SessionName, /*Create=*/true);
    LoadReply LR = S->load(Source->asString(), DomainName, *Backend);
    Json R = Json::object();
    R.set("ok", Json::boolean(LR.Ok));
    if (!LR.Ok) {
      R.set("code", Json::string(LR.ErrorCode));
      R.set("error", Json::string(LR.Error));
    } else {
      R.set("session", Json::string(SessionName));
      R.set("domain", Json::string(LR.Domain));
      R.set("procs", Json::number(uint64_t(LR.Procs)));
      R.set("nodes", Json::number(uint64_t(LR.Nodes)));
    }
    if (!LR.DiagnosticsJson.empty())
      R.set("diagnostics", Json::raw(LR.DiagnosticsJson));
    return R.dump();
  }

  if (Name == "analyze" || Name == "edit" || Name == "stats") {
    std::shared_ptr<Session> S = sessionFor(SessionName, /*Create=*/false);
    if (!S)
      return errorReply("unknown-session",
                        "no session named '" + SessionName +
                            "' (load a program first)")
          .dump();

    if (Name == "edit") {
      const Json *Source = Req->get("source");
      if (!Source || !Source->isString())
        return errorReply("protocol-error",
                          "edit requires a string \"source\" field")
            .dump();
      EditReply ER = S->edit(Source->asString());
      Json R = Json::object();
      R.set("ok", Json::boolean(ER.Ok));
      if (!ER.Ok) {
        R.set("code", Json::string(ER.ErrorCode));
        R.set("error", Json::string(ER.Error));
        return R.dump();
      }
      R.set("full_rebuild", Json::boolean(ER.FullRebuild));
      Json Procs = Json::array();
      for (const std::string &P : ER.ChangedProcs)
        Procs.push(Json::string(P));
      R.set("changed_procs", Procs);
      R.set("dirty_nodes", Json::number(ER.DirtyNodes));
      R.set("total_nodes", Json::number(ER.TotalNodes));
      return R.dump();
    }

    if (Name == "stats") {
      Session::Counters C = S->counters();
      Json R = Json::object();
      R.set("ok", Json::boolean(true));
      R.set("session", Json::string(SessionName));
      R.set("domain", Json::string(S->domainName()));
      R.set("loads", Json::number(C.Loads));
      R.set("edits", Json::number(C.Edits));
      R.set("full_rebuilds", Json::number(C.FullRebuilds));
      R.set("solves", Json::number(C.Solves));
      R.set("incremental_solves", Json::number(C.IncrementalSolves));
      {
        std::lock_guard<std::mutex> Lock(SessionsMu);
        R.set("sessions", Json::number(uint64_t(Sessions.size())));
      }
      R.set("requests",
            Json::number(Requests.load(std::memory_order_relaxed)));
      {
        std::lock_guard<std::mutex> Lock(ConnMu);
        R.set("connections", Json::number(uint64_t(Connections.size())));
      }
      return R.dump();
    }

    // analyze
    AnalyzeRequest AReq;
    AReq.Cold = getBool(*Req, "cold", false);
    AReq.Werror = getBool(*Req, "werror", false);
    OptUnsigned Delay = getUnsigned(*Req, "widening_delay");
    OptUnsigned MaxUpdates = getUnsigned(*Req, "max_updates");
    if (!Delay.Ok || (Delay.Value && *Delay.Value > 0xffffffffull))
      return errorReply("invalid-flag-value",
                        "\"widening_delay\" must be an unsigned integer")
          .dump();
    if (!MaxUpdates.Ok)
      return errorReply("invalid-flag-value",
                        "\"max_updates\" must be an unsigned integer")
          .dump();
    if (Delay.Value)
      AReq.WideningDelay = static_cast<unsigned>(*Delay.Value);
    if (MaxUpdates.Value)
      AReq.MaxUpdates = *MaxUpdates.Value;

    AnalyzeReply AR = S->analyze(AReq);
    Json R = Json::object();
    R.set("ok", Json::boolean(AR.Ok));
    if (!AR.Ok) {
      R.set("code", Json::string(AR.ErrorCode));
      R.set("error", Json::string(AR.Error));
      return R.dump();
    }
    R.set("session", Json::string(SessionName));
    R.set("domain", Json::string(AR.Domain));
    R.set("exit", Json::number(uint64_t(AR.Exit)));
    R.set("converged", Json::boolean(AR.Converged));
    R.set("fingerprint", Json::string(AR.Fingerprint));
    R.set("solve_seconds", Json::number(AR.SolveSeconds));
    R.set("reuse", reuseToJson(AR.Reuse));
    if (AR.PostFixpointChecked)
      R.set("post_fixpoint_checked", Json::boolean(*AR.PostFixpointChecked));
    R.set("stats",
          statsToJson(AR.Stats, AR.PostFixpointChecked.has_value()));
    if (!AR.ChecksJson.empty())
      R.set("checks", Json::raw(AR.ChecksJson));
    if (!AR.DiagnosticsJson.empty())
      R.set("diagnostics", Json::raw(AR.DiagnosticsJson));
    return R.dump();
  }

  return errorReply("unknown-command", "unknown command '" + Name + "'")
      .dump();
}

int pmaf::server::runDaemon(const DaemonOptions &Opts) {
  Daemon D(Opts);
  std::string Error;
  if (!D.start(Error)) {
    std::fprintf(stderr, "error: pmafd cannot listen on 127.0.0.1:%u: %s "
                         "[bind-error]\n",
                 Opts.Port, Error.c_str());
    return 1;
  }
  std::printf("pmafd: listening on 127.0.0.1:%u\n", unsigned(D.port()));
  std::fflush(stdout);
  D.wait();
  std::printf("pmafd: shutdown\n");
  return 0;
}
