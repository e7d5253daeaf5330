// Blocking client for the verification daemon.
//
// A thin synchronous wrapper over one connected socket: encode → write →
// read → decode, one FrameBuffer for reassembly. Request/response helpers
// (check(), stats(), ping()) are what tests and the CLI use for one-at-a-
// time traffic; pipelined fan-out (send many, then collect) uses the raw
// send()/recv() pair — the daemon replies in completion order, so callers
// correlate by CheckRequest::id.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace ecucsp::serve {

class Client {
 public:
  /// Both throw std::runtime_error when the daemon is not reachable.
  static Client connect_unix(const std::string& path);
  static Client connect_tcp(const std::string& host, std::uint16_t port);

  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Write raw encoded bytes (one or more frames) to the socket.
  void send(const std::vector<std::uint8_t>& bytes);

  /// Block until one complete message arrives. Throws on EOF or a
  /// malformed stream.
  Msg recv();

  // One-shot request/response helpers.
  CheckResponse check(const CheckRequest& req);
  std::string stats();
  bool ping();

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_ = -1;
  FrameBuffer frames_;
};

}  // namespace ecucsp::serve
