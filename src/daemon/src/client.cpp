#include "tafloc/daemon/client.h"

#include <errno.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

#include "tafloc/daemon/wire.h"

namespace tafloc::daemon {

Client::Client(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error(std::string("socket() failed: ") + std::strerror(errno));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    throw std::runtime_error("cannot connect to " + socket_path + ": " + why);
  }
}

Client::~Client() { ::close(fd_); }

void Client::send(std::string_view bytes) {
  while (!bytes.empty()) {
    // MSG_NOSIGNAL: a daemon that went away is an exception, not SIGPIPE.
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw std::runtime_error(std::string("write to daemon failed: ") + std::strerror(errno));
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

bool Client::recv(storage::Frame& out) {
  for (;;) {
    std::string error;
    const ExtractResult result = extract_packet(buffer_, out, &error);
    if (result == ExtractResult::kPacket) return true;
    if (result == ExtractResult::kCorrupt) {
      throw std::runtime_error("corrupt response from daemon: " + error);
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
    } else if (n == 0) {
      if (buffer_.empty()) return false;
      throw std::runtime_error("daemon closed the connection mid-frame");
    } else if (errno != EINTR) {
      throw std::runtime_error(std::string("read from daemon failed: ") + std::strerror(errno));
    }
  }
}

storage::Frame Client::round_trip(std::string_view request) {
  send(request);
  storage::Frame frame;
  if (!recv(frame)) throw std::runtime_error("daemon closed the connection");
  return frame;
}

}  // namespace tafloc::daemon
