#include "util/frame.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstring>

namespace erpi::util {

namespace {

/// Free space a fill() guarantees before its recv: room for a window of
/// small frames in one call. Larger frames grow the buffer by doubling.
constexpr size_t kMinReadBytes = 4096;

void put_length(unsigned char (&header)[4], uint32_t len) {
  header[0] = static_cast<unsigned char>(len & 0xff);
  header[1] = static_cast<unsigned char>((len >> 8) & 0xff);
  header[2] = static_cast<unsigned char>((len >> 16) & 0xff);
  header[3] = static_cast<unsigned char>((len >> 24) & 0xff);
}

uint32_t get_length(const unsigned char* header) {
  return static_cast<uint32_t>(header[0]) | (static_cast<uint32_t>(header[1]) << 8) |
         (static_cast<uint32_t>(header[2]) << 16) | (static_cast<uint32_t>(header[3]) << 24);
}

bool recv_all(int fd, void* data, size_t len) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = ::recv(fd, p, len, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF mid-frame
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

void append_frame(std::string& out, std::string_view payload) {
  unsigned char header[4];
  put_length(header, static_cast<uint32_t>(payload.size()));
  out.append(reinterpret_cast<const char*>(header), sizeof(header));
  out.append(payload);
}

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

bool write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  std::string frame;
  frame.reserve(4 + payload.size());
  append_frame(frame, payload);
  return write_all(fd, frame);
}

std::optional<std::string> read_frame(int fd) {
  unsigned char header[4];
  if (!recv_all(fd, header, sizeof(header))) return std::nullopt;
  const uint32_t len = get_length(header);
  if (len > kMaxFrameBytes) return std::nullopt;
  std::string payload(len, '\0');
  if (len > 0 && !recv_all(fd, payload.data(), len)) return std::nullopt;
  return payload;
}

FrameReader::Fill FrameReader::fill(int fd, bool block) {
  if (begin_ == end_) begin_ = end_ = 0;
  if (buf_.size() - end_ < kMinReadBytes) {
    // Slide the unparsed tail to the front, then grow if that is not enough.
    if (begin_ > 0) {
      std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    if (buf_.size() - end_ < kMinReadBytes) {
      buf_.resize(std::max(buf_.size() * 2, end_ + kMinReadBytes));
    }
  }
  for (;;) {
    const ssize_t n = ::recv(fd, buf_.data() + end_, buf_.size() - end_, block ? 0 : MSG_DONTWAIT);
    if (n > 0) {
      end_ += static_cast<size_t>(n);
      return Fill::Data;
    }
    if (n == 0) return Fill::Eof;
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK ? Fill::Empty : Fill::Error;
  }
}

std::optional<std::string_view> FrameReader::next() {
  if (bad_ || end_ - begin_ < 4) return std::nullopt;
  const uint32_t len = get_length(reinterpret_cast<const unsigned char*>(buf_.data() + begin_));
  if (len > kMaxFrameBytes) {
    bad_ = true;
    return std::nullopt;
  }
  if (end_ - begin_ - 4 < len) return std::nullopt;
  const std::string_view payload(buf_.data() + begin_ + 4, len);
  begin_ += 4 + len;
  return payload;
}

void FrameReader::clear() noexcept {
  begin_ = end_ = 0;
  bad_ = false;
}

int wait_readable(int fd, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    return rc > 0 ? 1 : 0;
  }
}

int wait_readable2(int fd_a, int fd_b, int timeout_ms, bool& a_ready, bool& b_ready) {
  a_ready = false;
  b_ready = false;
  struct pollfd pfds[2];
  pfds[0].fd = fd_a;
  pfds[0].events = POLLIN;
  pfds[0].revents = 0;
  pfds[1].fd = fd_b;
  pfds[1].events = POLLIN;
  pfds[1].revents = 0;
  for (;;) {
    const int rc = ::poll(pfds, 2, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (rc == 0) return 0;
    // POLLHUP/POLLERR count as readable: the subsequent read reports the
    // condition (EOF / error) instead of this poll loop spinning on it.
    a_ready = (pfds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
    b_ready = (pfds[1].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
    return 1;
  }
}

void drain_nonblocking(int fd) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) continue;
    if (n < 0 && errno == EINTR) continue;
    return;  // EAGAIN (empty), EOF, or error — nothing left to discard
  }
}

}  // namespace erpi::util
