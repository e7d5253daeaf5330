// ecucsp_serve: the long-running verification daemon.
//
//   $ ./ecucsp_serve --sock /tmp/ecucsp.sock --jobs 8
//         --cache-dir /var/cache/ecucsp                  (one command line)
//   $ ./ecucsp_serve --tcp 7777 --jobs 4
//
// Accepts CheckRequests (length-prefixed binary frames, see
// src/serve/protocol.hpp) over a Unix or loopback TCP socket, coalesces
// identical concurrent requests into single engine sweeps, answers from
// the response memo / verification store when it can, and sheds load with
// Overloaded + Retry-After once jobs + queue capacity is full. SIGINT or
// SIGTERM starts a graceful drain bounded by --drain-timeout; exit code 0
// means every in-flight check finished (nothing was cancelled).
#include <csignal>
#include <cstdio>
#include <optional>
#include <string>

#include "core/cli.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

using namespace ecucsp;

namespace {

serve::Server* g_server = nullptr;

/// Async-signal-safe: request_stop is an atomic store plus one pipe write.
void on_signal(int) {
  if (g_server) g_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServiceOptions service_opts;
  serve::ServerOptions server_opts;

  const cli::Tool tool{
      .synopsis = {"(--sock PATH | --tcp PORT) [options]"},
      .about = "Long-running CSPm verification daemon with request "
               "coalescing.",
      .options =
          {cli::value("--sock", "PATH",
                      "listen on a Unix-domain socket at PATH",
                      [&](std::string_view p) { server_opts.unix_path = p; }),
           cli::number("--tcp", "PORT", "listen on 127.0.0.1:PORT",
                       [&](std::uint64_t port) {
                         server_opts.tcp_port =
                             static_cast<std::uint16_t>(port);
                       },
                       0, cli::kMaxPort),
           cli::number("--jobs", "N",
                       "scheduler workers (0 = all cores; default 0)",
                       service_opts.jobs, 0, cli::kMaxJobs),
           cli::value("--cache-dir", "D",
                      "persistent verification store directory",
                      [&](std::string_view d) { service_opts.cache_dir = d; }),
           cli::number("--max-queue", "N",
                       "flights allowed to queue behind the running ones "
                       "before load is shed (default 8 x jobs)",
                       service_opts.max_queue, 0, std::uint64_t{1} << 20),
           cli::number("--memo", "N",
                       "response-memo entries (default 4096; 0 = off)",
                       service_opts.memo_capacity),
           cli::number("--timeout", "MS",
                       "default per-check deadline for requests that carry "
                       "none (default 0 = none)",
                       service_opts.default_timeout_ms, 0,
                       cli::kMaxTimeoutMs),
           cli::number("--max-states", "N",
                       "server-side ceiling on request state budgets",
                       service_opts.max_states_limit),
           cli::number("--drain-timeout", "MS",
                       "grace for in-flight checks on SIGINT/SIGTERM before "
                       "they are cancelled (default 10000)",
                       [&](std::uint64_t ms) {
                         server_opts.drain_timeout =
                             std::chrono::milliseconds(ms);
                       },
                       0, cli::kMaxTimeoutMs)},
  };

  return cli::run(argc, argv, tool, [&] {
    if (!server_opts.unix_path && !server_opts.tcp_port) {
      throw cli::UsageError("give --sock PATH or --tcp PORT");
    }

    // A client that disconnects mid-write must not kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);

    serve::VerifyService service(service_opts);
    serve::Server server(service, server_opts);
    server.listen();
    g_server = &server;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    std::printf("ecucsp_serve: listening on %s (%u worker(s), capacity %zu)\n",
                server.bound_description().c_str(), service.jobs(),
                service.capacity());
    std::fflush(stdout);

    const bool clean = server.run();
    g_server = nullptr;
    std::printf("ecucsp_serve: drained %s\n",
                clean ? "cleanly" : "with cancellations");
    return clean ? 0 : 1;
  });
}
