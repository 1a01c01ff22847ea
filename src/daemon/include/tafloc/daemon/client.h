// taflocd client -- one blocking connection to the daemon's Unix socket.
//
// The one client behind taflocctl, taflocgen and the socket tests:
// connect, write whole packets, and read frames back through a buffer
// that persists across calls, so pipelined responses that arrive in one
// read() are all delivered in order.
#pragma once

#include <string>
#include <string_view>

#include "tafloc/storage/record.h"

namespace tafloc::daemon {

class Client {
 public:
  /// Connects to the daemon listening on `socket_path`; throws
  /// std::runtime_error when it cannot.
  explicit Client(const std::string& socket_path);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Writes every byte of `bytes` (one or more encoded packets).
  void send(std::string_view bytes);

  /// Blocks until the next complete frame and moves it into `out`.
  /// Returns false when the daemon closed the connection between
  /// frames; throws std::runtime_error on corrupt framing, a read
  /// error, or a close in the middle of a frame.
  bool recv(storage::Frame& out);

  /// send() then recv(); throws when the daemon closes instead of
  /// answering.
  storage::Frame round_trip(std::string_view request);

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes read but not yet returned as frames.
};

}  // namespace tafloc::daemon
