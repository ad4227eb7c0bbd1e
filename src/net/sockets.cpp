#include "net/sockets.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>

namespace opprentice::net {
namespace {

// opprentice-check: allow(unguarded-static) volatile sig_atomic_t is the one type async-signal-safe to write from a handler; a single flag with no cross-read invariant needs no guard
volatile std::sig_atomic_t g_stop = 0;

extern "C" void stop_signal_handler(int) { g_stop = 1; }

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

Endpoint parse_endpoint(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("uds:", 0) == 0) {
    ep.is_unix = true;
    ep.path = spec.substr(4);
    if (ep.path.empty()) {
      throw std::invalid_argument("endpoint '" + spec + "' has no path");
    }
    if (ep.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw std::invalid_argument("unix socket path too long: " + ep.path);
    }
    return ep;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      throw std::invalid_argument("endpoint '" + spec +
                                  "' is not tcp:HOST:PORT");
    }
    ep.host = rest.substr(0, colon);
    if (ep.host == "localhost") ep.host = "127.0.0.1";
    const std::string port_text = rest.substr(colon + 1);
    std::size_t pos = 0;
    unsigned long port = 0;
    try {
      port = std::stoul(port_text, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (pos != port_text.size() || port > 65535) {
      throw std::invalid_argument("bad port in endpoint '" + spec + "'");
    }
    ep.port = static_cast<std::uint16_t>(port);
    return ep;
  }
  throw std::invalid_argument("endpoint '" + spec +
                              "' must start with tcp: or uds:");
}

void install_stop_handlers() {
  std::signal(SIGINT, stop_signal_handler);
  std::signal(SIGTERM, stop_signal_handler);
}

bool stop_requested() { return g_stop != 0; }
void request_stop() { g_stop = 1; }
void clear_stop() { g_stop = 0; }

void sleep_ms(std::uint64_t ms) {
  ::poll(nullptr, 0, static_cast<int>(ms));
}

SocketServer::SocketServer(IngestServer& core, const Endpoint& endpoint,
                           std::uint64_t tick_interval_ms)
    : core_(core), tick_interval_ms_(tick_interval_ms) {
  if (endpoint.is_unix) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) fail("socket(AF_UNIX)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, endpoint.path.c_str(),
                endpoint.path.size() + 1);
    ::unlink(endpoint.path.c_str());  // stale socket file from a crash
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      fail("bind(" + endpoint.path + ")");
    }
    unlink_path_ = endpoint.path;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) fail("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(endpoint.port);
    if (endpoint.host.empty() || endpoint.host == "0.0.0.0") {
      addr.sin_addr.s_addr = htonl(INADDR_ANY);
    } else if (::inet_pton(AF_INET, endpoint.host.c_str(),
                           &addr.sin_addr) != 1) {
      throw std::invalid_argument("cannot parse IPv4 host '" +
                                  endpoint.host + "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      fail("bind(tcp " + endpoint.host + ")");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      bound_port_ = ntohs(bound.sin_port);
    }
  }
  if (::listen(listen_fd_, 64) != 0) fail("listen");
  set_nonblocking(listen_fd_);
}

SocketServer::~SocketServer() {
  for (const auto& [fd, conn] : conns_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
}

void SocketServer::accept_ready() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: try next round
    const std::uint64_t id = next_conn_id_++;
    if (!core_.on_connect(id)) {
      ::close(fd);  // net.accept_fail fired: refuse deterministically
      continue;
    }
    set_nonblocking(fd);
    Conn conn;
    conn.id = id;
    conns_.emplace(fd, std::move(conn));
  }
}

bool SocketServer::read_ready(int fd, Conn& conn) {
  std::uint8_t buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      std::vector<std::uint8_t> responses;
      const bool keep = core_.on_bytes(
          conn.id,
          std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)),
          responses);
      conn.outbuf.insert(conn.outbuf.end(), responses.begin(),
                         responses.end());
      flush(fd, conn);
      if (!keep) return false;
      continue;
    }
    if (n == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;
  }
}

bool SocketServer::flush(int fd, Conn& conn) {
  std::size_t sent = 0;
  while (sent < conn.outbuf.size()) {
    const ssize_t n = ::send(fd, conn.outbuf.data() + sent,
                             conn.outbuf.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn.outbuf.clear();
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  conn.outbuf.erase(conn.outbuf.begin(),
                    conn.outbuf.begin() + static_cast<std::ptrdiff_t>(sent));
  return true;
}

void SocketServer::close_conn(int fd, bool notify_core) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (notify_core) core_.on_disconnect(it->second.id);
  ::close(fd);
  conns_.erase(it);
}

bool SocketServer::run_once(int timeout_ms) {
  if (stop_requested()) return false;
  std::vector<pollfd> fds;
  fds.reserve(conns_.size() + 1);
  fds.push_back(pollfd{listen_fd_, static_cast<short>(POLLIN), 0});
  for (const auto& [fd, conn] : conns_) {
    short events = static_cast<short>(POLLIN);
    if (!conn.outbuf.empty()) {
      events = static_cast<short>(events | POLLOUT);
    }
    fds.push_back(pollfd{fd, events, 0});
  }
  const int rc =
      ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
  if (stop_requested()) return false;
  if (rc > 0) {
    if ((fds[0].revents & POLLIN) != 0) accept_ready();
    std::vector<int> finished;
    for (std::size_t i = 1; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      bool keep = true;
      if ((fds[i].revents & POLLOUT) != 0) keep = flush(fd, it->second);
      if (keep && (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        keep = read_ready(fd, it->second);
      }
      if (!keep) finished.push_back(fd);
    }
    for (const int fd : finished) close_conn(fd, true);
  }
  // Tick pacing: accumulate wall-time between rounds and fire one
  // logical tick per full interval. Wall time only paces — every
  // deterministic decision keys off the logical tick counter.
  const std::int64_t now = steady_now_ms();
  if (last_poll_ms_ >= 0 && tick_interval_ms_ > 0) {
    tick_carry_ms_ += static_cast<std::uint64_t>(now - last_poll_ms_);
    while (tick_carry_ms_ >= tick_interval_ms_) {
      tick_carry_ms_ -= tick_interval_ms_;
      core_.tick();
    }
  }
  last_poll_ms_ = now;
  return true;
}

void SocketServer::run() {
  const int wait =
      tick_interval_ms_ > 0
          ? static_cast<int>(std::min<std::uint64_t>(tick_interval_ms_, 200))
          : 50;
  while (run_once(wait)) {
  }
  core_.drain();
}

SocketClient::~SocketClient() { close_conn(); }

bool SocketClient::connect_to(const Endpoint& endpoint) {
  close_conn();
  if (endpoint.is_unix) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, endpoint.path.c_str(),
                endpoint.path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      close_conn();
      return false;
    }
    return true;
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  const std::string host =
      endpoint.host.empty() ? std::string("127.0.0.1") : endpoint.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close_conn();
    return false;
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    close_conn();
    return false;
  }
  return true;
}

bool SocketClient::send_bytes(std::span<const std::uint8_t> bytes) {
  if (fd_ < 0) return false;
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        sleep_ms(1);
        continue;
      }
      close_conn();
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool SocketClient::receive(std::vector<std::uint8_t>& out, int timeout_ms) {
  if (fd_ < 0) return false;
  pollfd pfd{fd_, static_cast<short>(POLLIN), 0};
  const int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc <= 0) return true;  // quiet timeout: caller decides
  std::uint8_t buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      out.insert(out.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    close_conn();
    return false;  // EOF or hard error
  }
}

void SocketClient::close_conn() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void SocketClient::abort_conn() {
  if (fd_ < 0) return;
  linger hard{};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  close_conn();
}

}  // namespace opprentice::net
