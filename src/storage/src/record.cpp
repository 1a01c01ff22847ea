#include "tafloc/storage/record.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "tafloc/storage/codec.h"
#include "tafloc/storage/kill_point.h"
#include "tafloc/util/crc32c.h"

namespace tafloc::storage {

namespace {

void set_error(std::string* error, const char* what) {
  if (error != nullptr) *error = what;
}

[[noreturn]] void io_error(const std::string& what, const std::string& path) {
  throw std::runtime_error("storage io: " + what + " '" + path + "': " +
                           std::strerror(errno));
}

}  // namespace

const char* frame_status_name(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kEof: return "eof";
    case FrameStatus::kTorn: return "torn";
    case FrameStatus::kCorrupt: return "corrupt";
  }
  return "unknown";
}

std::string encode_frame(std::uint32_t type, std::uint64_t seq, std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.resize(kFrameHeaderBytes);
  frame.append(payload);
  return seal_frame(std::move(frame), type, seq);
}

std::string seal_frame(std::string frame, std::uint32_t type, std::uint64_t seq) {
  if (frame.size() < kFrameHeaderBytes)
    throw std::invalid_argument("frame: no room for the header");
  if (frame.size() - kFrameHeaderBytes > kMaxFrameBytes - 12)
    throw std::invalid_argument("frame: payload exceeds kMaxFrameBytes");
  char* header = frame.data();
  const auto len = static_cast<std::uint32_t>(frame.size() - 8);
  store_le(header, len);
  store_le(header + 8, type);
  store_le(header + 12, seq);
  store_le(header + 4, crc32c(header + 8, len));  // last: it covers type and seq.
  return frame;
}

FrameStatus decode_frame(std::string_view buf, std::size_t& pos, Frame& out,
                         std::string* error) {
  const std::size_t remaining = buf.size() - pos;
  if (remaining == 0) return FrameStatus::kEof;
  if (remaining < 8) {
    set_error(error, "truncated frame prefix");
    return FrameStatus::kTorn;
  }
  const auto len = load_le<std::uint32_t>(buf.data() + pos);
  const auto crc = load_le<std::uint32_t>(buf.data() + pos + 4);
  if (len < 12 || len > kMaxFrameBytes) {
    set_error(error, "absurd frame length");
    return FrameStatus::kCorrupt;
  }
  if (remaining - 8 < len) {
    set_error(error, "truncated frame body");
    return FrameStatus::kTorn;
  }
  const std::string_view body = buf.substr(pos + 8, len);
  if (crc32c(body.data(), body.size()) != crc) {
    set_error(error, "checksum mismatch");
    return FrameStatus::kCorrupt;
  }
  out.type = load_le<std::uint32_t>(body.data());
  out.seq = load_le<std::uint64_t>(body.data() + 4);
  out.payload.assign(body.substr(12));
  pos += 8 + len;
  return FrameStatus::kOk;
}

bool read_file_bytes(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) throw std::runtime_error("storage io: read of '" + path + "' failed");
  out = std::move(bytes);
  return true;
}

void atomic_write_file(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) io_error("cannot create", tmp);
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      io_error("write to", tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  maybe_kill(KillPoint::kSnapshotTempWritten);
  if (::fsync(fd) != 0) {
    ::close(fd);
    io_error("fsync of", tmp);
  }
  if (::close(fd) != 0) io_error("close of", tmp);
  maybe_kill(KillPoint::kSnapshotBeforeRename);
  if (::rename(tmp.c_str(), path.c_str()) != 0) io_error("rename to", path);
  maybe_kill(KillPoint::kSnapshotAfterRename);

  // The rename is only durable once the directory entry is: fsync the
  // parent so a power cut after commit cannot resurrect the old file.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd >= 0) {
    ::fsync(dirfd);  // best effort: some filesystems reject directory fsync.
    ::close(dirfd);
  }
}

}  // namespace tafloc::storage
