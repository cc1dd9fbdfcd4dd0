// Length-prefixed JSON framing shared by every socket protocol in the tree:
// the sandbox fork-server channels (src/sandbox/protocol.cpp) and the
// exploration-service daemon (src/service/daemon.cpp) speak the same wire
// format — a 4-byte little-endian payload length followed by the payload.
//
// All writes use send(MSG_NOSIGNAL) so a dead peer surfaces as an error
// return instead of SIGPIPE, and a frame goes out in one send, so it wakes
// its reader once; reads and polls retry EINTR internally.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace erpi::util {

/// Upper bound on a frame payload. Frames carry job specs, report deltas, or
/// replay outcomes — a length beyond this means a corrupted prefix from a
/// torn write, and treating it as an error beats a multi-gigabyte alloc.
inline constexpr uint32_t kMaxFrameBytes = 16u * 1024u * 1024u;

/// Append one frame (length prefix, then `payload`) to `out`, so several
/// frames can leave in one send.
void append_frame(std::string& out, std::string_view payload);

/// Send `bytes` whole: one send unless the socket buffer fills. False on any
/// error (peer gone, ...).
bool write_all(int fd, std::string_view bytes);

/// Write one length-prefixed frame in one send. False on any error (peer
/// gone, payload over kMaxFrameBytes, ...).
bool write_frame(int fd, std::string_view payload);

/// Read one complete frame; nullopt on EOF, error, oversized length, or a
/// torn frame (EOF mid-payload). Reads exactly one frame's bytes, so it
/// suits a peer that sends one frame and waits for the answer.
std::optional<std::string> read_frame(int fd);

/// Buffered frame reader for a peer that sends frames back to back: each
/// fill() keeps whatever one recv returned, and next() parses whole frames
/// out of the bytes read so far, keeping a torn tail for the next fill.
class FrameReader {
 public:
  enum class Fill { Data, Empty, Eof, Error };

  /// One recv into the buffer. `block` waits for at least one byte;
  /// otherwise Empty means nothing was queued.
  Fill fill(int fd, bool block);

  /// The next whole frame's payload, valid until the next fill() or
  /// clear(); nullopt while only part of a frame has arrived, or once a
  /// length over kMaxFrameBytes made the reader bad().
  std::optional<std::string_view> next();

  bool bad() const noexcept { return bad_; }

  /// Drop every buffered byte (the torn tail of a peer that died).
  void clear() noexcept;

 private:
  std::vector<char> buf_;
  size_t begin_ = 0;  // first unparsed byte
  size_t end_ = 0;    // one past the last byte read
  bool bad_ = false;
};

/// poll() for readability. Returns 1 when readable, 0 on timeout, -1 on
/// error. `timeout_ms` < 0 blocks indefinitely.
int wait_readable(int fd, int timeout_ms);

/// poll() two fds at once (a supervisor watching data + control together).
/// Sets the out-flags for whichever became readable; same return convention
/// as wait_readable. POLLHUP/POLLERR count as readable so the subsequent
/// read reports the condition instead of the poll loop spinning on it.
int wait_readable2(int fd_a, int fd_b, int timeout_ms, bool& a_ready, bool& b_ready);

/// Throw away any buffered bytes without blocking (partial frames a killed
/// peer left in the socket).
void drain_nonblocking(int fd);

}  // namespace erpi::util
