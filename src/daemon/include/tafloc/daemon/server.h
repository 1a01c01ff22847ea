// ZoneManager + ControlServer -- the supervised multi-zone core of
// taflocd.
//
// ZoneManager owns every Zone plus the shared JobQueue their update
// solves run on; ControlServer owns the Unix domain socket, speaks the
// wire protocol (wire.h), and dispatches packets to zones through the
// manager.  Both live on the event-loop (serving) thread.
//
// Fault containment, dinit-style: one connection's malformed or
// version-skewed packets kill only that connection (one kError reply,
// then close); a zone's failure surfaces as a wire status, never as a
// daemon crash; a zone mid-recalibration keeps serving every other
// packet because the solve runs on the JobQueue, off this thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tafloc/daemon/config.h"
#include "tafloc/daemon/event_loop.h"
#include "tafloc/daemon/wire.h"
#include "tafloc/daemon/zone.h"
#include "tafloc/exec/job_queue.h"

namespace tafloc::daemon {

class ZoneManager {
 public:
  explicit ZoneManager(const DaemonConfig& config);
  ~ZoneManager();

  ZoneManager(const ZoneManager&) = delete;
  ZoneManager& operator=(const ZoneManager&) = delete;

  /// start() every zone (recover-or-calibrate).  A zone that throws is
  /// drained and reported; the others keep going.  Returns the number
  /// of zones that reached serving.
  std::size_t start_all();

  Zone* find(const std::string& name);
  const std::vector<std::unique_ptr<Zone>>& zones() const noexcept { return zones_; }

  /// poll() every zone -- the event loop's idle hook.
  void poll_all();

  /// Graceful stop of every zone (finish in-flight, epilogue snapshot).
  void drain_all();

  /// Apply a re-parsed config: scheduler thresholds of matching zones
  /// change live; topology changes (added/removed zones) are refused.
  /// Returns a human-readable summary.  Throws std::invalid_argument,
  /// applying nothing, when any zone's scheduler config is one the
  /// UpdateScheduler constructor would reject.
  std::string reload(const DaemonConfig& fresh);

  /// Write each zone's labeled telemetry JSONL to `dir/<zone>.jsonl`,
  /// plus its retained traces to `dir/<zone>.trace.jsonl` and its
  /// slow-query log to `dir/<zone>.slow.jsonl` (trace files only when
  /// the zone recorded anything).  Returns the number of files written;
  /// throws on I/O failure.
  std::size_t export_telemetry(const std::string& dir) const;

  JobQueue& jobs() noexcept { return jobs_; }

 private:
  JobQueue jobs_;
  std::vector<std::unique_ptr<Zone>> zones_;
};

class ControlServer {
 public:
  /// Hard cap on one connection's receive buffer; beyond it the peer
  /// is not speaking the protocol and the connection is closed.
  static constexpr std::size_t kMaxConnectionBuffer = 16u << 20;

  ControlServer(ZoneManager& zones, EventLoop& loop, std::string socket_path);
  ~ControlServer();

  ControlServer(const ControlServer&) = delete;
  ControlServer& operator=(const ControlServer&) = delete;

  /// Bind + listen on the Unix socket (replacing a stale socket file)
  /// and register with the event loop.  Throws std::runtime_error on
  /// any socket failure.
  void open();
  /// Stop accepting new connections (drain mode); established
  /// connections keep being served.
  void stop_admissions();
  /// Close the listener and every connection; removes the socket file.
  void close();

  std::size_t connections() const noexcept { return conns_.size(); }
  bool listening() const noexcept { return listen_fd_ >= 0; }
  const std::string& socket_path() const noexcept { return socket_path_; }

  /// Invoked after a shutdown admin packet has been answered; taflocd
  /// wires this to "drain everything and stop the loop".
  void set_shutdown_handler(std::function<void()> handler) {
    shutdown_handler_ = std::move(handler);
  }
  /// Invoked for a reload admin packet; returns the summary sent back
  /// to the client (e.g. ZoneManager::reload of a re-parsed file).
  void set_reload_handler(std::function<std::string()> handler) {
    reload_handler_ = std::move(handler);
  }

  /// Packet dispatch, exposed for in-process tests: takes one decoded
  /// frame, returns the encoded response packet.  Never throws.
  /// `received_ns` is the steady-clock stamp of the socket read that
  /// delivered the frame (0 = unknown); localize traces report the gap
  /// to dispatch as queue wait.
  std::string dispatch(const storage::Frame& frame, std::uint64_t received_ns = 0);

 private:
  struct Connection {
    std::string buffer;
    std::uint64_t received_ns = 0;  ///< steady-clock stamp of the last read.
  };

  void handle_accept(short revents);
  void handle_connection(int fd, short revents);
  void close_connection(int fd);
  bool send_all(int fd, std::string_view bytes);

  ZoneManager& zones_;
  EventLoop& loop_;
  std::string socket_path_;
  int listen_fd_ = -1;
  std::map<int, Connection> conns_;
  std::function<void()> shutdown_handler_;
  std::function<std::string()> reload_handler_;
};

}  // namespace tafloc::daemon
