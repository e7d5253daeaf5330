// End-to-end daemon contract over a real Unix-domain socket: a check echoes
// its id and digest, the /stats surface is live JSON, a disconnecting or
// malformed client never takes down the daemon or the shared flight,
// pipelined identical requests coalesce, and request_stop() drains run()
// to a clean exit.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <string>
#include <thread>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

using namespace ecucsp;
using namespace ecucsp::serve;

namespace {

constexpr const char* kScript =
    "channel a, b\n"
    "P = a -> b -> P\n"
    "SPEC = a -> b -> SPEC\n"
    "assert SPEC [T= P\n"
    "assert P :[deadlock free [F]]\n";

constexpr const char* kFailingScript =
    "channel a, b\n"
    "P = a -> b -> P\n"
    "SPEC = a -> SPEC\n"
    "assert SPEC [T= P\n";

/// One daemon on a unique socket path, served from a background thread.
class ServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // As in ecucsp_serve: a peer that hangs up mid-write is an error on that
    // connection, not a signal that ends the process.
    std::signal(SIGPIPE, SIG_IGN);
    path_ = "/tmp/ecucsp-serve-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter_++) + ".sock";
    ServiceOptions sopts;
    sopts.jobs = 2;
    service_ = std::make_unique<VerifyService>(sopts);
    ServerOptions opts;
    opts.unix_path = path_;
    opts.drain_timeout = std::chrono::milliseconds(5000);
    server_ = std::make_unique<Server>(*service_, opts);
    server_->listen();
    thread_ = std::thread([this] { clean_ = server_->run(); });
  }

  void TearDown() override {
    if (thread_.joinable()) {
      server_->request_stop();
      thread_.join();
    }
    server_.reset();
    service_.reset();
  }

  CheckRequest request(const char* script, std::uint64_t id,
                       std::uint32_t index = 0) {
    CheckRequest req;
    req.id = id;
    req.assertion_index = index;
    req.sources = {script};
    return req;
  }

  static inline int counter_ = 0;
  std::string path_;
  std::unique_ptr<VerifyService> service_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
  bool clean_ = false;
};

TEST_F(ServerFixture, PassingCheckEchoesIdAndCarriesDigest) {
  Client c = Client::connect_unix(path_);
  const CheckResponse r = c.check(request(kScript, 1));
  EXPECT_EQ(r.status, ServeStatus::Passed);
  EXPECT_EQ(r.id, 1u);
  EXPECT_FALSE(r.digest_hex.empty());
}

TEST_F(ServerFixture, FailedCheckCarriesCounterexampleBytes) {
  Client c = Client::connect_unix(path_);
  const CheckResponse r = c.check(request(kFailingScript, 5));
  EXPECT_EQ(r.status, ServeStatus::Failed);
  EXPECT_FALSE(r.counterexample.empty());

  // A second identical request (memo path) returns identical bytes.
  Client c2 = Client::connect_unix(path_);
  const CheckResponse again = c2.check(request(kFailingScript, 6));
  EXPECT_EQ(again.verdict_block(), r.verdict_block());
  EXPECT_EQ(again.counterexample, r.counterexample);
  EXPECT_TRUE(again.from_cache);
}

TEST_F(ServerFixture, StatsSurfaceIsLiveJson) {
  Client c = Client::connect_unix(path_);
  ASSERT_TRUE(c.ping());
  (void)c.check(request(kScript, 1));
  const std::string stats = c.stats();
  EXPECT_NE(stats.find("\"serve_format\":3"), std::string::npos);
  EXPECT_NE(stats.find("\"received\":"), std::string::npos);
  EXPECT_NE(stats.find("\"coalesced\":"), std::string::npos);
  EXPECT_NE(stats.find("\"latency_ms\":"), std::string::npos);
}

TEST_F(ServerFixture, PipelinedIdenticalRequestsCoalesce) {
  // All requests written before any response is read — they overlap inside
  // the daemon and share one flight (or hit the memo once one lands; both
  // paths must agree byte-for-byte).
  Client c = Client::connect_unix(path_);
  constexpr int K = 8;
  for (int i = 1; i <= K; ++i) {
    c.send(encode(request(kScript, i)));
  }
  std::string block;
  for (int i = 0; i < K; ++i) {
    Msg msg = c.recv();
    ASSERT_EQ(msg.type, MsgType::CheckResponse);
    EXPECT_EQ(msg.response.status, ServeStatus::Passed);
    if (block.empty()) {
      block = msg.response.verdict_block();
    } else {
      EXPECT_EQ(msg.response.verdict_block(), block);
    }
  }
  EXPECT_LT(service_->stats().engine_runs.load(), static_cast<std::uint64_t>(K));
  EXPECT_GE(service_->stats().coalesced.load() +
                service_->stats().memo_hits.load(),
            static_cast<std::uint64_t>(K - 1));
}

TEST_F(ServerFixture, DisconnectedClientNeverTakesDownDaemonOrFlight) {
  {
    // Fire a request and vanish before the verdict can be delivered.
    Client ghost = Client::connect_unix(path_);
    ghost.send(encode(request(kScript, 9)));
  }  // socket closed here, flight possibly still running

  // The daemon must still answer everyone else, including the same digest.
  Client c = Client::connect_unix(path_);
  const CheckResponse r = c.check(request(kScript, 10));
  EXPECT_EQ(r.status, ServeStatus::Passed);
  ASSERT_TRUE(c.ping());
}

TEST_F(ServerFixture, MalformedStreamClosesOnlyThatConnection) {
  const std::string newlines(65536, '\n');
  const std::string json_ping = "{\"op\":\"ping\"}\n";
  const std::vector<std::vector<std::uint8_t>> inputs = {
      {0x00, 0xFF, 0x13, 0x37},
      {newlines.begin(), newlines.end()},
      {json_ping.begin(), json_ping.end()},
  };
  for (const std::vector<std::uint8_t>& input : inputs) {
    Client bad = Client::connect_unix(path_);
    // The daemon hangs up: the read sees EOF or a reset, or the write a
    // broken pipe.
    EXPECT_THROW(
        {
          bad.send(input);
          (void)bad.recv();
        },
        std::runtime_error)
        << input.size() << " bytes";

    Client good = Client::connect_unix(path_);
    EXPECT_TRUE(good.ping());
    EXPECT_NE(good.stats().find("\"serve_format\":3"), std::string::npos);
  }
}

TEST_F(ServerFixture, RequestStopDrainsCleanly) {
  Client c = Client::connect_unix(path_);
  (void)c.check(request(kScript, 1));
  server_->request_stop();
  thread_.join();
  EXPECT_TRUE(clean_) << "an idle daemon must drain without cancellations";
}

}  // namespace
