// ecucsp_client: command-line client for the ecucsp_serve daemon.
//
//   $ ./ecucsp_client --sock /tmp/ecucsp.sock model.csp          # assert #1
//   $ ./ecucsp_client --sock S --asserts 3 model.csp             # #1..#3
//   $ ./ecucsp_client --sock S --fanout 32 model.csp             # 32 identical
//   $ ./ecucsp_client --sock S --each a.csp b.csp c.csp          # 3 distinct
//   $ ./ecucsp_client --sock S --stats                           # /stats JSON
//
// Verdict lines are printed in the same shape as `ecucsp_check`'s batch
// report ("check assert #N <status>  (S states, T ms)"), so a served
// verdict can be byte-compared against the standalone checker once timings
// and transport annotations ((cached)/(coalesced)/(memo)) are stripped.
// Fan-out modes pipeline every request before reading any response —
// that is what drives the daemon's single-flight coalescing from outside.
//
// Exit codes: 0 all checks passed; 1 a check failed (or errored/timed
// out); 2 usage or connection error; 3 the daemon rejected a request
// (overloaded / shutting down / bad request).
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "serve/client.hpp"

using namespace ecucsp;

namespace {

/// ecucsp_check-compatible verdict line plus transport annotations.
void print_response(const std::string& name, const serve::CheckResponse& r) {
  if (serve::is_rejection(r.status)) {
    std::printf("check %-58.58s %s  (retry after %u ms)\n  %s\n", name.c_str(),
                std::string(serve::to_string(r.status)).c_str(),
                r.retry_after_ms, r.error.c_str());
    return;
  }
  std::printf("check %-58.58s %s  (%zu states, %.1f ms)%s%s%s\n", name.c_str(),
              std::string(serve::to_string(r.status)).c_str(),
              static_cast<std::size_t>(r.states), r.wall_ns / 1e6,
              r.from_cache ? "  (cached)" : "",
              r.coalesced ? "  (coalesced)" : "", r.vacuous ? "  VACUOUS" : "");
  if (r.vacuous) {
    std::printf(
        "  warning: vacuous pass — the implementation never reaches any "
        "event this spec constrains\n");
  }
  if (!r.counterexample.empty()) std::printf("  %s\n", r.counterexample.c_str());
  if (!r.error.empty()) std::printf("  %s\n", r.error.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<std::string> sock;
  std::optional<std::uint16_t> tcp;
  std::uint32_t assert_index = 0;  // 0-based on the wire
  std::uint32_t asserts = 0;
  std::size_t fanout = 1;
  bool each = false;
  bool want_stats = false;
  bool want_ping = false;
  std::uint32_t timeout_ms = 0;
  std::uint64_t max_states = 1ull << 22;
  std::vector<std::string> paths;

  const cli::Tool tool{
      .synopsis = {"(--sock PATH | --tcp PORT) [options] [script.csp ...]"},
      .about = "Sends CSPm checks to an ecucsp_serve daemon and prints "
               "ecucsp_check-style verdict lines.",
      .options =
          {cli::value("--sock", "PATH", "connect to a Unix-domain socket",
                      [&](std::string_view p) { sock = p; }),
           cli::number("--tcp", "PORT", "connect to 127.0.0.1:PORT",
                       [&](std::uint64_t port) {
                         tcp = static_cast<std::uint16_t>(port);
                       },
                       1, cli::kMaxPort),
           cli::number("--assert", "N",
                       "check assertion #N (1-based; default 1)",
                       [&](std::uint64_t n) {
                         assert_index = static_cast<std::uint32_t>(n - 1);
                       },
                       1, std::uint64_t{1} << 32),
           cli::number("--asserts", "N",
                       "check assertions #1..#N as pipelined requests",
                       asserts, 0, 65536),
           cli::number("--fanout", "K",
                       "send K identical copies of the request, all before "
                       "reading any response (coalescing driver)",
                       fanout, 1, 65536),
           cli::flag("--each", "one request per script file (distinct load)",
                     each),
           cli::number("--timeout", "MS",
                       "per-request deadline (0 = the daemon's default)",
                       timeout_ms, 0, cli::kMaxTimeoutMs),
           cli::number("--max-states", "N", "per-request state budget",
                       max_states),
           cli::flag("--stats", "fetch and print the daemon's /stats JSON",
                     want_stats),
           cli::flag("--ping", "liveness probe", want_ping)},
      .positional = [&](std::string_view p) { paths.emplace_back(p); },
  };

  return cli::run(argc, argv, tool, [&]() -> int {
    if (!sock && !tcp) throw cli::UsageError("give --sock PATH or --tcp PORT");
    if (paths.empty() && !want_stats && !want_ping) {
      throw cli::UsageError("nothing to do: give scripts, --stats or --ping");
    }

    serve::Client client = sock ? serve::Client::connect_unix(*sock)
                                : serve::Client::connect_tcp("127.0.0.1", *tcp);

    if (want_ping && !client.ping()) {
      std::fprintf(stderr, "error: daemon did not answer ping\n");
      return 2;
    }

    int exit_code = 0;
    if (!paths.empty()) {
      // Build the request list: one per assertion of the combined scripts,
      // one per script (--each), and/or K identical copies (--fanout).
      struct Pending {
        std::string name;
        serve::CheckRequest req;
      };
      std::vector<Pending> pending;
      std::uint64_t next_id = 1;
      auto add = [&](std::vector<std::string> sources, std::uint32_t index,
                     const std::string& name) {
        for (std::size_t k = 0; k < fanout; ++k) {
          Pending p;
          p.name = name;
          p.req.id = next_id++;
          p.req.assertion_index = index;
          p.req.max_states = max_states;
          p.req.timeout_ms = timeout_ms;
          p.req.sources = sources;
          pending.push_back(std::move(p));
        }
      };
      if (each) {
        for (const std::string& path : paths) {
          add({cli::read_file(path)}, assert_index,
              "assert #" + std::to_string(assert_index + 1) + " " +
                  std::filesystem::path(path).filename().string());
        }
      } else {
        std::vector<std::string> sources;
        for (const std::string& path : paths) {
          sources.push_back(cli::read_file(path));
        }
        const std::uint32_t first = asserts != 0 ? 0 : assert_index;
        const std::uint32_t last = asserts != 0 ? asserts - 1 : assert_index;
        for (std::uint32_t a = first; a <= last; ++a) {
          add(sources, a, "assert #" + std::to_string(a + 1));
        }
      }

      // Pipeline: every request hits the daemon before any response is
      // read, so identical ones overlap and coalesce server-side.
      for (const Pending& p : pending) {
        client.send(serve::encode(p.req));
      }
      std::map<std::uint64_t, serve::CheckResponse> responses;
      while (responses.size() < pending.size()) {
        serve::Msg msg = client.recv();
        if (msg.type != serve::MsgType::CheckResponse) continue;
        responses.emplace(msg.response.id, std::move(msg.response));
      }
      // Print in request order regardless of completion order.
      std::size_t rejected = 0, not_passed = 0;
      for (const Pending& p : pending) {
        const serve::CheckResponse& r = responses.at(p.req.id);
        print_response(p.name, r);
        if (serve::is_rejection(r.status)) {
          ++rejected;
        } else if (r.status != serve::ServeStatus::Passed) {
          ++not_passed;
        }
      }
      std::fprintf(stderr, "%zu request(s): %zu answered, %zu rejected\n",
                   pending.size(), pending.size() - rejected, rejected);
      if (rejected > 0) {
        exit_code = 3;
      } else if (not_passed > 0) {
        exit_code = 1;
      }
    }

    if (want_stats) std::printf("%s\n", client.stats().c_str());
    return exit_code;
  });
}
