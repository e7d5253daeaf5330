#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace ecucsp::serve {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void close_retry(int fd) {
  while (::close(fd) != 0 && errno == EINTR) {
  }
}

}  // namespace

Server::Server(VerifyService& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    throw std::runtime_error("serve: pipe() failed: " +
                             errno_text(errno));
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  set_nonblocking(wake_rd_);
  set_nonblocking(wake_wr_);
}

Server::~Server() {
  for (int fd : listeners_) close_retry(fd);
  for (auto& [id, conn] : conns_) close_retry(conn.fd);
  if (options_.unix_path) ::unlink(options_.unix_path->c_str());
  close_retry(wake_rd_);
  close_retry(wake_wr_);
}

void Server::listen() {
  if (options_.unix_path) {
    const std::string& path = *options_.unix_path;
    if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw std::runtime_error("serve: socket path too long: " + path);
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw std::runtime_error("serve: socket(AF_UNIX) failed: " +
                               errno_text(errno));
    }
    ::unlink(path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, options_.backlog) != 0) {
      const std::string err = errno_text(errno);
      close_retry(fd);
      throw std::runtime_error("serve: bind/listen " + path + ": " + err);
    }
    set_nonblocking(fd);
    listeners_.push_back(fd);
    bound_ += (bound_.empty() ? "" : ", ") + ("unix:" + path);
  }
  if (options_.tcp_port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      throw std::runtime_error("serve: socket(AF_INET) failed: " +
                               errno_text(errno));
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(*options_.tcp_port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, options_.backlog) != 0) {
      const std::string err = errno_text(errno);
      close_retry(fd);
      throw std::runtime_error("serve: bind/listen tcp:" +
                               std::to_string(*options_.tcp_port) + ": " + err);
    }
    set_nonblocking(fd);
    listeners_.push_back(fd);
    bound_ += (bound_.empty() ? "" : ", ") +
              ("tcp:127.0.0.1:" + std::to_string(*options_.tcp_port));
  }
  if (listeners_.empty()) {
    throw std::runtime_error("serve: no listener configured (--sock/--tcp)");
  }
}

void Server::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  // Async-signal-safe wakeup; a full pipe already guarantees a wakeup.
  const char b = 's';
  [[maybe_unused]] ssize_t n = ::write(wake_wr_, &b, 1);
}

void Server::wake() {
  const char b = 'w';
  [[maybe_unused]] ssize_t n = ::write(wake_wr_, &b, 1);
}

void Server::enqueue(std::uint64_t conn_id, std::vector<std::uint8_t> bytes) {
  {
    std::lock_guard lk(done_mu_);
    done_.emplace_back(conn_id, std::move(bytes));
  }
  wake();
}

void Server::drain_completions() {
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> batch;
  {
    std::lock_guard lk(done_mu_);
    batch.swap(done_);
  }
  for (auto& [conn_id, bytes] : batch) {
    auto it = conns_.find(conn_id);
    // A vanished connection simply drops its copy of the verdict — the
    // flight completed for every other waiter regardless.
    if (it == conns_.end()) continue;
    it->second.outbox.push_back(std::move(bytes));
  }
}

void Server::accept_on(int listen_fd) {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient error; poll again
    }
    set_nonblocking(fd);
    const std::uint64_t id = next_conn_id_++;
    auto [it, inserted] = conns_.emplace(id, Connection(options_.max_frame));
    it->second.fd = fd;
  }
}

bool Server::read_from(std::uint64_t conn_id, Connection& conn) {
  std::uint8_t buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(conn.fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    if (n == 0) return false;  // peer closed
    try {
      conn.frames.feed(buf, static_cast<std::size_t>(n));
      while (auto msg = conn.frames.next()) {
        handle(conn_id, conn, std::move(*msg));
      }
    } catch (const ProtocolError&) {
      return false;  // malformed stream: close, never guess
    }
    if (static_cast<std::size_t>(n) < sizeof buf) break;
  }
  return true;
}

void Server::handle(std::uint64_t conn_id, Connection& conn, Msg msg) {
  switch (msg.type) {
    case MsgType::Ping:
      conn.outbox.push_back(encode_pong());
      return;
    case MsgType::StatsRequest:
      conn.outbox.push_back(encode_stats_response(service_.stats_json()));
      return;
    case MsgType::CheckRequest: {
      // The callback may run on this thread (memo hit, rejection) or a
      // scheduler worker; both paths go through the completion queue so
      // the loop alone touches connection state.
      service_.submit(std::move(msg.check),
                      [this, conn_id](CheckResponse resp) {
                        enqueue(conn_id, encode(resp));
                      });
      return;
    }
    default:
      // Server-to-client message types arriving here are a client bug;
      // ignore rather than kill a connection that may carry real work.
      return;
  }
}

bool Server::flush(Connection& conn) {
  while (!conn.outbox.empty()) {
    const std::vector<std::uint8_t>& front = conn.outbox.front();
    while (conn.front_written < front.size()) {
      const ssize_t n = ::write(conn.fd, front.data() + conn.front_written,
                                front.size() - conn.front_written);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        return false;  // EPIPE etc.: peer is gone
      }
      conn.front_written += static_cast<std::size_t>(n);
    }
    conn.outbox.pop_front();
    conn.front_written = 0;
  }
  return true;
}

void Server::close_conn(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  close_retry(it->second.fd);
  conns_.erase(it);
}

bool Server::run() {
  using Clock = std::chrono::steady_clock;
  bool draining = false;
  bool clean = true;
  bool cancelled_stragglers = false;
  Clock::time_point drain_deadline{};

  while (true) {
    if (stop_.load(std::memory_order_relaxed) && !draining) {
      draining = true;
      drain_deadline = Clock::now() + options_.drain_timeout;
      service_.begin_drain();
      for (int fd : listeners_) close_retry(fd);
      listeners_.clear();
    }

    if (draining && !cancelled_stragglers && service_.in_flight() > 0 &&
        Clock::now() >= drain_deadline) {
      // Timeout expired: cancel cooperatively and wait for the unwinding.
      // Completion callbacks only append to the queue, so blocking here
      // cannot deadlock; their bytes are flushed below.
      clean = false;
      cancelled_stragglers = true;
      service_.drain(std::chrono::milliseconds(0));
    }

    drain_completions();

    if (draining && service_.in_flight() == 0) {
      bool pending_out = false;
      {
        std::lock_guard lk(done_mu_);
        pending_out = !done_.empty();
      }
      for (auto& [id, conn] : conns_) {
        if (!conn.outbox.empty()) pending_out = true;
      }
      if (!pending_out) break;
    }

    std::vector<pollfd> fds;
    fds.push_back({wake_rd_, POLLIN, 0});
    for (int fd : listeners_) fds.push_back({fd, POLLIN, 0});
    std::vector<std::uint64_t> ids;  // parallel to fds from this index on
    const std::size_t conn_base = fds.size();
    for (auto& [id, conn] : conns_) {
      short events = POLLIN;
      if (!conn.outbox.empty()) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
      ids.push_back(id);
    }

    // Bounded poll while draining so the deadline fires without traffic.
    const int timeout_ms = draining ? 50 : 1000;
    int ready;
    do {
      ready = ::poll(fds.data(), fds.size(), timeout_ms);
    } while (ready < 0 && errno == EINTR);
    if (ready < 0) break;  // unrecoverable

    if (fds[0].revents & POLLIN) {
      char sink[256];
      while (::read(wake_rd_, sink, sizeof sink) > 0) {
      }
    }
    for (std::size_t i = 1; i < conn_base; ++i) {
      if (fds[i].revents & POLLIN) accept_on(fds[i].fd);
    }
    std::vector<std::uint64_t> to_close;
    for (std::size_t i = conn_base; i < fds.size(); ++i) {
      const std::uint64_t id = ids[i - conn_base];
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Connection& conn = it->second;
      bool ok = true;
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) ok = false;
      if (ok && (fds[i].revents & POLLIN)) ok = read_from(id, conn);
      if (ok && !conn.outbox.empty()) ok = flush(conn);
      if (!ok) to_close.push_back(id);
    }
    for (std::uint64_t id : to_close) close_conn(id);
  }

  // Final best-effort flush of everything still queued (bounded).
  drain_completions();
  const Clock::time_point flush_deadline =
      Clock::now() + std::chrono::seconds(2);
  while (Clock::now() < flush_deadline) {
    bool pending = false;
    std::vector<std::uint64_t> to_close;
    for (auto& [id, conn] : conns_) {
      if (conn.outbox.empty()) continue;
      if (!flush(conn)) {
        to_close.push_back(id);
      } else if (!conn.outbox.empty()) {
        pending = true;
      }
    }
    for (std::uint64_t id : to_close) close_conn(id);
    if (!pending) break;
    ::poll(nullptr, 0, 10);
  }
  return clean;
}

}  // namespace ecucsp::serve
