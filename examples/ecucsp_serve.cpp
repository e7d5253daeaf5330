// ecucsp_serve: the long-running verification daemon.
//
//   $ ./ecucsp_serve --sock /tmp/ecucsp.sock --jobs 8
//         --cache-dir /var/cache/ecucsp --shards 16      (one command line)
//   $ ./ecucsp_serve --tcp 7777 --jobs 4
//
// Accepts CheckRequests (length-prefixed binary frames or JSON lines — see
// src/serve/protocol.hpp) over a Unix or loopback TCP socket, coalesces
// identical concurrent requests into single engine sweeps, answers from
// the response memo / verification store when it can, and sheds load with
// Overloaded + Retry-After once jobs + queue capacity is full. SIGINT or
// SIGTERM starts a graceful drain bounded by --drain-timeout; exit code 0
// means every in-flight check finished (nothing was cancelled).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "serve/server.hpp"
#include "serve/service.hpp"

using namespace ecucsp;

namespace {

serve::Server* g_server = nullptr;

/// Async-signal-safe: request_stop is an atomic store plus one pipe write.
void on_signal(int) {
  if (g_server) g_server->request_stop();
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--sock PATH | --tcp PORT) [options]\n"
      "Long-running CSPm verification daemon with request coalescing.\n"
      "  --sock PATH        listen on a Unix-domain socket at PATH\n"
      "  --tcp PORT         listen on 127.0.0.1:PORT\n"
      "  --jobs N           scheduler workers (0 = all cores; default 0)\n"
      "  --cache-dir D      persistent verification store directory\n"
      "  --shards N         store shards (default 1; see ecucsp_check)\n"
      "  --max-queue N      flights allowed to queue behind the running\n"
      "                     ones before load is shed (default 8 x jobs)\n"
      "  --memo N           response-memo entries (default 4096; 0 = off)\n"
      "  --timeout MS       default per-check deadline for requests that\n"
      "                     carry none (default: none)\n"
      "  --max-states N     server-side ceiling on request state budgets\n"
      "  --drain-timeout MS grace for in-flight checks on SIGINT/SIGTERM\n"
      "                     before they are cancelled (default 10000)\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServiceOptions service_opts;
  serve::ServerOptions server_opts;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sock") == 0 && i + 1 < argc) {
      server_opts.unix_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tcp") == 0 && i + 1 < argc) {
      server_opts.tcp_port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      service_opts.jobs = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--cache-dir") == 0 && i + 1 < argc) {
      service_opts.cache_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      service_opts.cache_shards = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--max-queue") == 0 && i + 1 < argc) {
      service_opts.max_queue = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--memo") == 0 && i + 1 < argc) {
      service_opts.memo_capacity =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--timeout") == 0 && i + 1 < argc) {
      service_opts.default_timeout_ms =
          static_cast<std::uint32_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--max-states") == 0 && i + 1 < argc) {
      service_opts.max_states_limit =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--drain-timeout") == 0 && i + 1 < argc) {
      server_opts.drain_timeout = std::chrono::milliseconds(std::atol(argv[++i]));
    } else {
      return usage(argv[0]);
    }
  }
  if (!server_opts.unix_path && !server_opts.tcp_port) return usage(argv[0]);

  // A client that disconnects mid-write must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  try {
    serve::VerifyService service(service_opts);
    serve::Server server(service, server_opts);
    server.listen();
    g_server = &server;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    std::printf(
        "ecucsp_serve: listening on %s (%u worker(s), capacity %zu, "
        "%u shard(s))\n",
        server.bound_description().c_str(), service.jobs(), service.capacity(),
        service.cache().shard_count());
    std::fflush(stdout);

    const bool clean = server.run();
    g_server = nullptr;
    std::printf("ecucsp_serve: drained %s\n",
                clean ? "cleanly" : "with cancellations");
    return clean ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
