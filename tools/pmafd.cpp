//===- tools/pmafd.cpp - The PMAF analysis daemon -------------------------===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// pmafd: the standalone analysis daemon. Listens on 127.0.0.1 and
/// serves the length-prefixed JSON protocol of server/Protocol.h.
///
///   pmafd [--port=N]
///
/// --port=0 (the default) binds an ephemeral port; the chosen port is
/// printed as "pmafd: listening on 127.0.0.1:PORT" once the daemon is
/// ready, so scripts can parse it. Exit codes: 0 after a clean
/// `shutdown` request, 1 when the listener cannot start, 2 on bad usage.
///
//===----------------------------------------------------------------------===//

#include "server/Daemon.h"
#include "support/NumParse.h"

#include <cstdio>
#include <string>

using namespace pmaf;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--port=N]\n"
               "  --port=N       TCP port on 127.0.0.1 (0 = ephemeral; "
               "default 0)\n",
               Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  server::DaemonOptions Opts;
  for (int I = 1; I != argc; ++I) {
    const std::string Arg = argv[I];
    if (Arg.rfind("--port=", 0) == 0) {
      if (!support::parseFlag(Arg, "--port", Opts.Port))
        return 2;
    } else if (Arg == "--help" || Arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", Arg.c_str());
      return usage(argv[0]);
    }
  }
  return server::runDaemon(Opts);
}
