//===- server/Daemon.h - The pmafd analysis daemon --------------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pmafd daemon: a loopback TCP listener speaking the length-prefixed
/// JSON protocol of server/Protocol.h, one thread per connection, with a
/// shared registry of named resident Sessions. Connections are
/// independent — two clients analyzing two sessions solve concurrently,
/// each on its own connection thread — while requests against the *same*
/// session serialize on the session lock. The acceptor joins the threads
/// of closed connections as new ones arrive, so the daemon holds one
/// thread per open connection plus at most a few finishing ones.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_SERVER_DAEMON_H
#define PMAF_SERVER_DAEMON_H

#include "server/Session.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pmaf {
namespace server {

struct DaemonOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back via
  /// Daemon::port(), printed by runDaemon).
  uint16_t Port = 0;
};

/// The daemon: bind/listen/accept plus the request dispatcher. Embeddable
/// (ServerTest and the SERVED benchmarks run it in-process on an
/// ephemeral port) as well as the heart of `pmafd`.
class Daemon {
public:
  explicit Daemon(DaemonOptions Opts = {});
  ~Daemon();

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Binds 127.0.0.1 and starts the acceptor thread. False + \p Error on
  /// failure (port in use, out of fds, ...).
  bool start(std::string &Error);

  /// The bound port (valid after start()).
  uint16_t port() const { return BoundPort; }

  /// Initiates shutdown: stops accepting, unblocks every connection.
  /// Returns immediately; pair with wait().
  void requestStop();

  /// Blocks until a `shutdown` request (or requestStop()) arrives, then
  /// joins the acceptor and all connection threads.
  void wait();

private:
  void acceptLoop();
  void serveConnection(uint64_t Id, int ClientFd);
  /// Dispatches one request payload to a reply payload; sets
  /// \p Shutdown when the request was a `shutdown`.
  std::string handle(const std::string &Payload, bool &Shutdown);

  std::shared_ptr<Session> sessionFor(const std::string &Name, bool Create);

  DaemonOptions Opts;
  int ListenFd = -1;
  uint16_t BoundPort = 0;
  std::thread Acceptor;

  /// Connection threads by connection id, the ids whose threads have
  /// finished serving (joined by the acceptor or by wait()), and the
  /// sockets of open connections (shut down by requestStop()).
  std::mutex ConnMu;
  std::map<uint64_t, std::thread> Connections;
  std::vector<uint64_t> Finished;
  std::vector<int> ActiveFds;
  uint64_t NextConnection = 0;

  std::mutex StopMu;
  std::condition_variable StopCv;
  std::atomic<bool> Stopping{false};

  mutable std::mutex SessionsMu;
  std::map<std::string, std::shared_ptr<Session>> Sessions;
  std::atomic<uint64_t> Requests{0};
};

/// `pmafd`: run a daemon in the foreground. Prints
/// "pmafd: listening on 127.0.0.1:PORT" once ready; returns 0 after a
/// clean `shutdown` request, 1 when the listener cannot start.
int runDaemon(const DaemonOptions &Opts);

} // namespace server
} // namespace pmaf

#endif // PMAF_SERVER_DAEMON_H
