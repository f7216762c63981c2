#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/frame.hpp"

namespace ep::net {

bool Client::open(const std::string& host, std::uint16_t port,
                  const ClientOptions& options, std::string* error) {
  close();
  binary_ = options.binary;
  const auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = std::string(what) + " " + host + ":" + std::to_string(port) +
               ": " + std::strerror(errno);
    }
    close();
    return false;
  };
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "not an IPv4 address: " + host;
    return false;
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return fail("socket");
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    return fail("connect");
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (options.recvTimeoutMs > 0.0) {
    const auto us = static_cast<long>(options.recvTimeoutMs * 1000.0);
    timeval tv{};
    tv.tv_sec = us / 1000000;
    tv.tv_usec = us % 1000000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  if (options.binary && !send(std::string_view(kMagic, sizeof kMagic))) {
    return fail("send");
  }
  return true;
}

void Client::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
  head_ = 0;
}

bool Client::send(std::string_view bytes) {
  while (!bytes.empty()) {
    if (fd_ < 0) return false;
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool Client::fill() {
  if (fd_ < 0) return false;
  buf_.erase(0, head_);
  head_ = 0;
  char chunk[65536];
  for (;;) {
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got > 0) {
      buf_.append(chunk, static_cast<std::size_t>(got));
      return true;
    }
    if (got < 0 && errno == EINTR) continue;
    return false;
  }
}

bool Client::readLine(std::string* line, bool wait) {
  for (;;) {
    const std::size_t nl = buf_.find('\n', head_);
    if (nl != std::string::npos) {
      line->assign(buf_, head_, nl - head_);
      head_ = nl + 1;
      return true;
    }
    if (!wait || !fill()) return false;
  }
}

bool Client::readFrame(std::uint8_t* opcode, std::string* body, bool wait) {
  for (;;) {
    const char* p = buf_.data() + head_;
    const std::size_t avail = buf_.size() - head_;
    std::uint64_t len = 0;
    const int used = readVarint(p, avail, &len);
    if (used < 0 || (used > 0 && len == 0)) return false;
    const auto header = static_cast<std::size_t>(used);
    if (used > 0 && avail - header >= len) {
      if (opcode != nullptr) *opcode = static_cast<std::uint8_t>(p[header]);
      body->assign(p + header + 1, static_cast<std::size_t>(len) - 1);
      head_ += header + static_cast<std::size_t>(len);
      return true;
    }
    if (!wait || !fill()) return false;
  }
}

bool Client::roundTrip(std::string_view request, std::string* response) {
  std::string line;
  line.reserve(request.size() + 1);
  line.append(request);
  line += '\n';
  return send(line) && readLine(response);
}

}  // namespace ep::net
