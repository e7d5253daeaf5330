#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace ecucsp::serve {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("client: " + what + ": " +
                           errno_text(errno));
}

}  // namespace

Client Client::connect_unix(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw std::runtime_error("client: socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail("socket(AF_UNIX)");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("connect " + path);
  }
  return Client(fd);
}

Client Client::connect_tcp(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket(AF_INET)");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("client: bad IPv4 address: " + host);
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("connect " + host + ":" + std::to_string(port));
  }
  return Client(fd);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), frames_(std::move(other.frames_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    frames_ = std::move(other.frames_);
    other.fd_ = -1;
  }
  return *this;
}

void Client::send(const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write");
    }
    off += static_cast<std::size_t>(n);
  }
}

Msg Client::recv() {
  while (true) {
    if (auto msg = frames_.next()) return std::move(*msg);
    std::uint8_t buf[1 << 16];
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("read");
    }
    if (n == 0) {
      throw std::runtime_error("client: connection closed by daemon");
    }
    frames_.feed(buf, static_cast<std::size_t>(n));
  }
}

CheckResponse Client::check(const CheckRequest& req) {
  send(encode(req));
  while (true) {
    Msg msg = recv();
    if (msg.type == MsgType::CheckResponse && msg.response.id == req.id) {
      return std::move(msg.response);
    }
  }
}

std::string Client::stats() {
  send(encode_stats_request());
  while (true) {
    Msg msg = recv();
    if (msg.type == MsgType::StatsResponse) return std::move(msg.stats_json);
  }
}

bool Client::ping() {
  send(encode_ping());
  Msg msg = recv();
  return msg.type == MsgType::Pong;
}

}  // namespace ecucsp::serve
