#pragma once
// A minimal NDJSON client for the serve benches: one blocking Unix-domain
// socket connection, send_line / recv_line with an internal read buffer.
// Any socket failure is a contract violation (bench::fail).

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench_util.hpp"

namespace rtv::bench {

class LineClient {
 public:
  explicit LineClient(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    check(fd_ >= 0, "client socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    check(socket_path.size() < sizeof(addr.sun_path),
          "socket path too long for sockaddr_un");
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    // The server binds before clients start, but give the accept loop a
    // moment under load anyway.
    int rc = -1;
    for (int attempt = 0; attempt < 100; ++attempt) {
      rc = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
      if (rc == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    check(rc == 0,
          "client connect() failed: " + std::string(std::strerror(errno)));
  }

  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void send_line(const std::string& frame) {
    std::string wire = frame;
    wire.push_back('\n');
    std::size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n =
          ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
      check(n > 0, "client send() failed");
      off += static_cast<std::size_t>(n);
    }
  }

  std::string recv_line() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      check(n > 0, "client recv() failed (connection closed early?)");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A per-process socket path under $TMPDIR (default /tmp).
inline std::string unique_socket_path(const char* tag) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string((tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp") +
         "/rtv-bench-" + tag + "-" + std::to_string(::getpid()) + ".sock";
}

}  // namespace rtv::bench
