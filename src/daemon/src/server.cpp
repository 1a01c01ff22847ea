#include "tafloc/daemon/server.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "tafloc/util/check.h"
#include "tafloc/util/log.h"

namespace tafloc::daemon {

// -- ZoneManager --

ZoneManager::ZoneManager(const DaemonConfig& config) : jobs_("taflocd", 1) {
  TAFLOC_CHECK_ARG(!config.zones.empty(), "daemon needs at least one zone");
  zones_.reserve(config.zones.size());
  for (const ZoneConfig& zc : config.zones) {
    zones_.push_back(std::make_unique<Zone>(zc, &jobs_));
  }
}

ZoneManager::~ZoneManager() {
  // Zones reference jobs_; make sure no solve is in flight before the
  // members destruct (Zone's own dtor also waits, belt and braces).
  jobs_.shutdown();
}

std::size_t ZoneManager::start_all() {
  std::size_t serving = 0;
  for (auto& zone : zones_) {
    try {
      zone->start();
      ++serving;
    } catch (const std::exception& e) {
      TAFLOC_LOG_ERROR << "zone '" << zone->name() << "' failed to start: " << e.what();
      zone->drain();
    }
  }
  return serving;
}

Zone* ZoneManager::find(const std::string& name) {
  for (auto& zone : zones_) {
    if (zone->name() == name) return zone.get();
  }
  return nullptr;
}

void ZoneManager::poll_all() {
  for (auto& zone : zones_) zone->poll();
}

void ZoneManager::drain_all() {
  for (auto& zone : zones_) zone->drain();
}

std::string ZoneManager::reload(const DaemonConfig& fresh) {
  // All or nothing: a scheduler config that startup would refuse must
  // not go live, not even on the zones listed before the bad one.
  for (const ZoneConfig& zc : fresh.zones) {
    try {
      check_scheduler_config(zc.scheduler);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("reload: zone '" + zc.name + "': " + e.what());
    }
  }
  std::size_t applied = 0;
  std::string ignored;
  for (const ZoneConfig& zc : fresh.zones) {
    if (Zone* zone = find(zc.name)) {
      zone->apply_scheduler_config(zc.scheduler);
      ++applied;
    } else {
      ignored += (ignored.empty() ? "" : ", ") + zc.name;
    }
  }
  std::string summary = "reload: scheduler config applied to " + std::to_string(applied) +
                        " zone(s)";
  if (!ignored.empty()) summary += "; new zones ignored (restart required): " + ignored;
  for (const auto& zone : zones_) {
    if (fresh.find_zone(zone->name()) == nullptr) {
      summary += "; zone '" + zone->name() + "' no longer in config (kept until restart)";
    }
  }
  return summary;
}

namespace {

void write_text_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("telemetry export: cannot open " + path);
  out << body;
  if (!out) throw std::runtime_error("telemetry export: write failed for " + path);
}

}  // namespace

std::size_t ZoneManager::export_telemetry(const std::string& dir) const {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  std::size_t written = 0;
  for (const auto& zone : zones_) {
    write_text_file((fs::path(dir) / (zone->name() + ".jsonl")).string(),
                    zone->telemetry_json());
    ++written;
    // Trace artifacts only when the zone captured anything -- a zone
    // with tracing off leaves no empty files behind.
    const Tracer& tracer = zone->tracer();
    if (tracer.ring().pushed() > 0) {
      write_text_file((fs::path(dir) / (zone->name() + ".trace.jsonl")).string(),
                      tracer.ring_json());
      ++written;
    }
    if (tracer.slow_log().size() > 0) {
      write_text_file((fs::path(dir) / (zone->name() + ".slow.jsonl")).string(),
                      tracer.slow_json());
      ++written;
    }
  }
  return written;
}

// -- ControlServer --

namespace {

void set_nonblocking_fd(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::runtime_error("control server: fcntl(O_NONBLOCK) failed");
  }
}

}  // namespace

ControlServer::ControlServer(ZoneManager& zones, EventLoop& loop, std::string socket_path)
    : zones_(zones), loop_(loop), socket_path_(std::move(socket_path)) {
  TAFLOC_CHECK_ARG(!socket_path_.empty(), "control server needs a socket path");
}

ControlServer::~ControlServer() { close(); }

void ControlServer::open() {
  TAFLOC_CHECK_STATE(listen_fd_ < 0, "control server already open");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("control server: socket path too long: " + socket_path_);
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("control server: socket() failed: ") +
                             std::strerror(errno));
  }
  ::unlink(socket_path_.c_str());  // replace a stale socket from a dead daemon.
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("control server: bind(" + socket_path_ +
                             ") failed: " + std::strerror(err));
  }
  if (::listen(fd, 16) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("control server: listen() failed: ") +
                             std::strerror(err));
  }
  set_nonblocking_fd(fd);
  listen_fd_ = fd;
  loop_.add_fd(listen_fd_, POLLIN, [this](short revents) { handle_accept(revents); });
  TAFLOC_LOG_INFO << "taflocd listening on " << socket_path_;
}

void ControlServer::stop_admissions() {
  if (listen_fd_ < 0) return;
  loop_.remove_fd(listen_fd_);
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(socket_path_.c_str());
}

void ControlServer::close() {
  stop_admissions();
  while (!conns_.empty()) close_connection(conns_.begin()->first);
}

void ControlServer::handle_accept(short revents) {
  if ((revents & POLLIN) == 0) return;
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) return;
      TAFLOC_LOG_WARN << "control server: accept failed: " << std::strerror(errno);
      return;
    }
    try {
      set_nonblocking_fd(fd);
      conns_.emplace(fd, Connection{});
      loop_.add_fd(fd, POLLIN, [this, fd](short re) { handle_connection(fd, re); });
    } catch (const std::exception& e) {
      TAFLOC_LOG_WARN << "control server: dropping connection: " << e.what();
      conns_.erase(fd);
      ::close(fd);
    }
  }
}

void ControlServer::handle_connection(int fd, short revents) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 && (revents & POLLIN) == 0) {
    close_connection(fd);
    return;
  }

  char buf[4096];
  bool peer_gone = false;
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      it->second.buffer.append(buf, static_cast<std::size_t>(n));
      it->second.received_ns = trace_detail::steady_ns();
      if (it->second.buffer.size() > kMaxConnectionBuffer) {
        TAFLOC_LOG_WARN << "control server: connection exceeded buffer cap; closing";
        close_connection(fd);
        return;
      }
      continue;
    }
    if (n == 0) {  // peer closed; serve whatever is already buffered.
      peer_gone = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(fd);
    return;
  }

  // Serve every complete packet in the buffer.  The walk goes by offset
  // and the consumed prefix is erased once at the end, so k pipelined
  // frames move the buffer once, not k times.
  std::size_t pos = 0;
  storage::Frame frame;
  std::string error;
  for (;;) {
    const storage::FrameStatus status =
        storage::decode_frame(it->second.buffer, pos, frame, &error);
    if (status == storage::FrameStatus::kEof || status == storage::FrameStatus::kTorn) break;
    if (status == storage::FrameStatus::kCorrupt) {
      // Framing is lost on this byte stream: one error packet (best
      // effort -- the CRC already failed, the peer may be gone), then
      // close.  Other connections and every zone are unaffected.
      TAFLOC_LOG_WARN << "control server: corrupt packet (" << error << "); closing connection";
      ErrorResponse res;
      res.status = WireStatus::kBadRequest;
      res.message = "corrupt frame: " + error;
      (void)send_all(fd, res.encode(0));
      close_connection(fd);
      return;
    }
    const std::string response = dispatch(frame, it->second.received_ns);
    if (!send_all(fd, response)) {
      close_connection(fd);
      return;
    }
    // A shutdown packet's handler runs after its response is on the
    // wire; it may have closed every connection (including this one).
    it = conns_.find(fd);
    if (it == conns_.end()) return;
  }
  it->second.buffer.erase(0, pos);
  if (peer_gone) close_connection(fd);
}

void ControlServer::close_connection(int fd) {
  loop_.remove_fd(fd);
  conns_.erase(fd);
  ::close(fd);
}

bool ControlServer::send_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Responses are small; give the kernel a moment to drain.
      struct pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 1000) <= 0) return false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

std::string ControlServer::dispatch(const storage::Frame& frame, std::uint64_t received_ns) {
  const std::uint64_t seq = frame.seq;
  try {
    switch (static_cast<PacketType>(frame.type)) {
      case PacketType::kLocalizeRequest: {
        const LocalizeRequest req = LocalizeRequest::decode(frame);
        Zone* zone = zones_.find(req.zone);
        LocalizeResponse res;
        if (zone == nullptr) {
          res.status = WireStatus::kUnknownZone;
          res.message = "no zone '" + req.zone + "'";
        } else if (!zone->admissible()) {
          zone->note_shed();
          res.status = WireStatus::kNotServing;
          res.message = std::string("zone is ") + zone_state_name(zone->state());
        } else {
          const std::uint64_t queue_wait_ns =
              received_ns > 0 ? trace_detail::steady_ns() - received_ns : 0;
          const TraceContext trace{req.trace_id, req.trace_sampled};
          const TafLocSystem::DegradedResult r = zone->localize(req.rss, trace, queue_wait_ns);
          res.x = r.point.x;
          res.y = r.point.y;
          res.confidence = r.confidence;
          res.served = r.served;
          res.degraded = r.degraded;
          res.links_used = r.links_used;
        }
        return res.encode(seq);
      }
      case PacketType::kAmbientRequest: {
        const AmbientRequest req = AmbientRequest::decode(frame);
        Zone* zone = zones_.find(req.zone);
        AmbientResponse res;
        if (zone == nullptr) {
          res.status = WireStatus::kUnknownZone;
          res.message = "no zone '" + req.zone + "'";
        } else {
          const Zone::AmbientResult r = zone->observe_ambient(req.ambient, req.t_days);
          if (!r.accepted) {
            res.status = WireStatus::kNotServing;
            res.message = std::string("zone is ") + zone_state_name(zone->state());
          }
          res.accepted = r.accepted;
          res.sample_accepted = r.sample_accepted;
          res.triggered = r.triggered;
          res.staleness_db = r.staleness_db;
        }
        return res.encode(seq);
      }
      case PacketType::kBatchIngestRequest: {
        const BatchIngestRequest req = BatchIngestRequest::decode(frame);
        Zone* zone = zones_.find(req.zone);
        BatchIngestResponse res;
        if (zone == nullptr) {
          res.status = WireStatus::kUnknownZone;
          res.message = "no zone '" + req.zone + "'";
        } else if (!zone->admissible()) {
          zone->note_shed();
          res.status = WireStatus::kNotServing;
          res.message = std::string("zone is ") + zone_state_name(zone->state());
        } else {
          const Zone::IngestResult r = zone->ingest_batch(req.batch);
          res.readings = r.readings;
          res.dups_dropped = r.dups_dropped;
          res.stale_dropped = r.stale_dropped;
          res.bad_readings = r.bad_readings;
          res.rounds_completed = r.rounds_completed;
          res.gated_ambient = r.gated_ambient;
          res.admitted_queries = r.admitted_queries;
          res.last_motion_db = r.last_motion_db;
          res.queries.reserve(r.queries.size());
          for (const Zone::IngestResult::Query& q : r.queries) {
            IngestQuery wq;
            wq.t_days = q.t_days;
            wq.motion_db = q.motion_db;
            wq.x = q.result.point.x;
            wq.y = q.result.point.y;
            wq.confidence = q.result.confidence;
            wq.served = q.result.served;
            wq.degraded = q.result.degraded;
            wq.links_used = q.result.links_used;
            res.queries.push_back(wq);
          }
        }
        return res.encode(seq);
      }
      case PacketType::kResurveyRequest: {
        const ResurveyRequest req = ResurveyRequest::decode(frame);
        Zone* zone = zones_.find(req.zone);
        ResurveyResponse res;
        if (zone == nullptr) {
          res.status = WireStatus::kUnknownZone;
          res.message = "no zone '" + req.zone + "'";
        } else {
          res.accepted = zone->request_resurvey(req.t_days);
          if (!res.accepted) {
            res.message = zone->update_in_flight()
                              ? "an update is already in flight"
                              : std::string("zone is ") + zone_state_name(zone->state());
          }
        }
        return res.encode(seq);
      }
      case PacketType::kStatusRequest: {
        const StatusRequest req = StatusRequest::decode(frame);
        StatusResponse res;
        if (!req.zone.empty() && zones_.find(req.zone) == nullptr) {
          res.status = WireStatus::kUnknownZone;
          res.message = "no zone '" + req.zone + "'";
          return res.encode(seq);
        }
        for (const auto& zone : zones_.zones()) {
          if (!req.zone.empty() && zone->name() != req.zone) continue;
          const Zone::Status s = zone->status();
          ZoneStatus z;
          z.zone = zone->name();
          z.state = zone_state_name(s.state);
          z.queries = s.queries;
          z.updates_committed = s.updates_committed;
          z.updates_failed = s.updates_failed;
          z.update_in_flight = s.update_in_flight;
          z.staleness_db = s.staleness_db;
          z.clock_days = s.clock_days;
          z.wal_sequence = s.wal_sequence;
          z.kernel_backend = s.kernel_backend;
          z.quantized_tier = s.quantized_tier;
          z.slo_ok = s.slo_ok;
          z.slo_violated = s.slo_violated;
          z.slo_budget_remaining = s.slo_budget_remaining;
          z.slo_degraded = s.slo_degraded;
          z.last_error = s.last_error;
          res.zones.push_back(std::move(z));
        }
        return res.encode(seq);
      }
      case PacketType::kProbeRequest: {
        const ProbeRequest req = ProbeRequest::decode(frame);
        Zone* zone = zones_.find(req.zone);
        ProbeResponse res;
        if (zone == nullptr) {
          res.status = WireStatus::kUnknownZone;
          res.message = "no zone '" + req.zone + "'";
        } else if (!zone->admissible()) {
          zone->note_shed();
          res.status = WireStatus::kNotServing;
          res.message = std::string("zone is ") + zone_state_name(zone->state());
        } else {
          const Zone::ProbeResult r = zone->probe();
          res.truth_x = r.truth.x;
          res.truth_y = r.truth.y;
          res.estimate_x = r.estimate.x;
          res.estimate_y = r.estimate.y;
          res.error_m = r.error_m;
          res.degraded = r.degraded;
        }
        return res.encode(seq);
      }
      case PacketType::kMetricsRequest: {
        const MetricsRequest req = MetricsRequest::decode(frame);
        MetricsResponse res;
        if (!req.zone.empty() && zones_.find(req.zone) == nullptr) {
          res.status = WireStatus::kUnknownZone;
          res.message = "no zone '" + req.zone + "'";
          return res.encode(seq);
        }
        for (const auto& zone : zones_.zones()) {
          if (!req.zone.empty() && zone->name() != req.zone) continue;
          const MetricRegistry::Snapshot snap = zone->system().telemetry().snapshot();
          ZoneMetrics m;
          m.zone = zone->name();
          m.state = zone_state_name(zone->state());
          m.uptime_ns = snap.uptime_ns;
          m.spans_recorded = snap.spans_recorded;
          m.spans_dropped = snap.spans_dropped;
          m.counters = snap.counters;
          m.gauges = snap.gauges;
          m.histograms.reserve(snap.histograms.size());
          for (const MetricRegistry::HistogramSummary& h : snap.histograms) {
            m.histograms.push_back(
                WireHistogram{h.name, h.count, h.sum, h.min, h.max, h.p50, h.p95, h.p99});
          }
          res.zones.push_back(std::move(m));
        }
        return res.encode(seq);
      }
      case PacketType::kTraceRequest: {
        const TraceRequest req = TraceRequest::decode(frame);
        Zone* zone = zones_.find(req.zone);
        TraceResponse res;
        if (zone == nullptr) {
          res.status = WireStatus::kUnknownZone;
          res.message = "no zone '" + req.zone + "'";
          return res.encode(seq);
        }
        const Tracer& tracer = zone->tracer();
        if (req.slow) {
          res.jsonl = tracer.slow_json();
          res.total_recorded = tracer.slow_log().size();
          res.dropped = tracer.slow_log().dropped();
        } else {
          res.jsonl = tracer.ring_json(static_cast<std::size_t>(req.max));
          res.total_recorded = tracer.ring().pushed();
          res.dropped = tracer.ring().overwritten();
        }
        return res.encode(seq);
      }
      case PacketType::kAdminRequest: {
        const AdminRequest req = AdminRequest::decode(frame);
        AdminResponse res;
        switch (req.op) {
          case AdminOp::kDrain:
            if (req.zone.empty()) {
              zones_.drain_all();
              res.message = "all zones drained";
            } else if (Zone* zone = zones_.find(req.zone)) {
              zone->drain();
              res.message = "zone '" + req.zone + "' drained";
            } else {
              res.status = WireStatus::kUnknownZone;
              res.message = "no zone '" + req.zone + "'";
            }
            break;
          case AdminOp::kReload:
            if (reload_handler_) {
              res.message = reload_handler_();
            } else {
              res.status = WireStatus::kBadRequest;
              res.message = "reload not supported by this server";
            }
            break;
          case AdminOp::kShutdown: {
            res.message = "shutting down";
            std::string encoded = res.encode(seq);
            // Answer first, then tear down: the handler typically
            // drains every zone and stops the loop, closing this
            // connection with it.
            if (shutdown_handler_) {
              auto handler = shutdown_handler_;
              loop_.post([handler] { handler(); });
            }
            return encoded;
          }
        }
        return res.encode(seq);
      }
      default: {
        ErrorResponse res;
        res.status = WireStatus::kBadRequest;
        res.message = std::string("unexpected packet type ") +
                      packet_type_name(static_cast<PacketType>(frame.type)) + " (" +
                      std::to_string(frame.type) + ")";
        return res.encode(seq);
      }
    }
  } catch (const std::invalid_argument& e) {
    ErrorResponse res;
    res.status = WireStatus::kBadRequest;
    res.message = e.what();
    return res.encode(seq);
  } catch (const std::runtime_error& e) {
    // Version skew and malformed payloads land here via wire decode.
    ErrorResponse res;
    res.status = WireStatus::kBadRequest;
    res.message = e.what();
    return res.encode(seq);
  } catch (const std::exception& e) {
    ErrorResponse res;
    res.status = WireStatus::kInternalError;
    res.message = e.what();
    return res.encode(seq);
  }
}

}  // namespace tafloc::daemon
