// Shared 4-byte length-prefixed framing (util/frame.hpp) — the wire format
// under both the sandbox control/data protocol and the exploration service.
// Malformed-input coverage: oversized length headers, truncated payloads,
// zero-length frames, and payloads dribbled across many read() boundaries,
// for the one-frame reader and the buffered FrameReader alike.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "util/frame.hpp"

namespace erpi::util {
namespace {

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    close_a();
    if (b >= 0) ::close(b);
  }
  void close_a() {
    if (a >= 0) ::close(a);
    a = -1;
  }
};

void send_all_raw(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    p += n;
    len -= static_cast<size_t>(n);
  }
}

TEST(Frame, RoundTripsPayloads) {
  SocketPair pair;
  const std::string payloads[] = {"x", R"({"op":"ping"})", std::string(100'000, 'z')};
  for (const auto& payload : payloads) {
    ASSERT_TRUE(write_frame(pair.a, payload));
    const auto got = read_frame(pair.b);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, payload);
  }
}

TEST(Frame, ZeroLengthFrameRoundTrips) {
  SocketPair pair;
  ASSERT_TRUE(write_frame(pair.a, ""));
  const auto got = read_frame(pair.b);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

TEST(Frame, OversizedLengthHeaderIsRejected) {
  SocketPair pair;
  const uint32_t huge = kMaxFrameBytes + 1;
  send_all_raw(pair.a, &huge, sizeof(huge));
  EXPECT_FALSE(read_frame(pair.b).has_value());
}

TEST(Frame, TruncatedHeaderIsEof) {
  SocketPair pair;
  const char partial[2] = {0x10, 0x00};  // 2 of the 4 length bytes
  send_all_raw(pair.a, partial, sizeof(partial));
  pair.close_a();
  EXPECT_FALSE(read_frame(pair.b).has_value());
}

TEST(Frame, TruncatedPayloadIsEof) {
  SocketPair pair;
  const uint32_t claimed = 10;
  send_all_raw(pair.a, &claimed, sizeof(claimed));
  send_all_raw(pair.a, "abc", 3);  // 3 of the promised 10 bytes
  pair.close_a();
  EXPECT_FALSE(read_frame(pair.b).has_value());
}

TEST(Frame, ReassemblesAcrossManyPartialReads) {
  // Dribble the frame a byte at a time from another thread: read_frame must
  // keep recv()ing until the full length-prefixed payload arrives, no matter
  // where the kernel splits it.
  SocketPair pair;
  const std::string payload = "partial-read-reassembly-payload";
  uint32_t len = static_cast<uint32_t>(payload.size());
  std::string wire(reinterpret_cast<const char*>(&len), sizeof(len));
  wire += payload;
  std::thread dribbler([&] {
    for (const char byte : wire) {
      send_all_raw(pair.a, &byte, 1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const auto got = read_frame(pair.b);
  dribbler.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST(Frame, WaitReadableTimesOutThenSignals) {
  SocketPair pair;
  EXPECT_EQ(0, wait_readable(pair.b, 10));
  ASSERT_TRUE(write_frame(pair.a, "ready"));
  EXPECT_GT(wait_readable(pair.b, 1000), 0);
  EXPECT_EQ(read_frame(pair.b).value_or(""), "ready");
}

TEST(Frame, PeerCloseCountsAsReadableEof) {
  SocketPair pair;
  pair.close_a();
  // POLLHUP must count as readable so callers discover the EOF promptly...
  EXPECT_GT(wait_readable(pair.b, 1000), 0);
  // ...and the read then reports end-of-stream, not a frame.
  EXPECT_FALSE(read_frame(pair.b).has_value());
}

TEST(Frame, WriteToClosedPeerFails) {
  SocketPair pair;
  ::close(pair.b);
  pair.b = -1;
  // The first write may land in the (now orphaned) buffer; repeated writes
  // must surface the EPIPE as `false` instead of killing the process
  // (frames are sent with MSG_NOSIGNAL).
  bool failed = false;
  for (int i = 0; i < 64 && !failed; ++i) {
    failed = !write_frame(pair.a, std::string(4096, 'x'));
  }
  EXPECT_TRUE(failed);
}

TEST(Frame, WriteFrameIsOneSegmentOnTheWire) {
  // Header and payload leave in one send: the reader's first recv sees the
  // whole frame, never the header alone.
  SocketPair pair;
  ASSERT_TRUE(write_frame(pair.a, "abc"));
  char buf[64];
  const ssize_t n = ::recv(pair.b, buf, sizeof(buf), 0);
  ASSERT_EQ(n, 7);
  EXPECT_EQ(std::string(buf + 4, 3), "abc");
}

/// Every whole frame `reader` holds, in order.
std::vector<std::string> frames_of(FrameReader& reader) {
  std::vector<std::string> out;
  while (const auto frame = reader.next()) out.emplace_back(*frame);
  return out;
}

TEST(Frame, ReaderParsesManyFramesFromOneRead) {
  SocketPair pair;
  std::string wire;
  const std::vector<std::string> payloads = {"p", "", R"({"status":"ok","o":"pass"})", "p"};
  for (const auto& payload : payloads) append_frame(wire, payload);
  ASSERT_TRUE(write_all(pair.a, wire));
  FrameReader reader;
  ASSERT_EQ(reader.fill(pair.b, /*block=*/true), FrameReader::Fill::Data);
  EXPECT_EQ(frames_of(reader), payloads);
  EXPECT_FALSE(reader.bad());
  EXPECT_EQ(reader.fill(pair.b, /*block=*/false), FrameReader::Fill::Empty);
}

TEST(Frame, ReaderReassemblesBytesDribbledOneAtATime) {
  SocketPair pair;
  std::string wire;
  append_frame(wire, "first");
  append_frame(wire, std::string(300, 'x'));
  FrameReader reader;
  std::vector<std::string> got;
  for (const char byte : wire) {
    send_all_raw(pair.a, &byte, 1);
    ASSERT_EQ(reader.fill(pair.b, /*block=*/true), FrameReader::Fill::Data);
    for (auto& frame : frames_of(reader)) got.push_back(std::move(frame));
  }
  EXPECT_EQ(got, (std::vector<std::string>{"first", std::string(300, 'x')}));
}

TEST(Frame, ReaderKeepsATornTailForTheNextRead) {
  SocketPair pair;
  std::string wire;
  append_frame(wire, "whole");
  append_frame(wire, "torn-payload");
  const size_t cut = wire.size() - 5;  // mid-payload of the second frame
  send_all_raw(pair.a, wire.data(), cut);
  FrameReader reader;
  ASSERT_EQ(reader.fill(pair.b, /*block=*/true), FrameReader::Fill::Data);
  EXPECT_EQ(frames_of(reader), (std::vector<std::string>{"whole"}));
  send_all_raw(pair.a, wire.data() + cut, wire.size() - cut);
  ASSERT_EQ(reader.fill(pair.b, /*block=*/true), FrameReader::Fill::Data);
  EXPECT_EQ(frames_of(reader), (std::vector<std::string>{"torn-payload"}));
  // A torn tail a dead peer left behind is dropped by clear().
  send_all_raw(pair.a, wire.data(), 6);
  ASSERT_EQ(reader.fill(pair.b, /*block=*/true), FrameReader::Fill::Data);
  reader.clear();
  ASSERT_TRUE(write_frame(pair.a, "fresh"));
  ASSERT_EQ(reader.fill(pair.b, /*block=*/true), FrameReader::Fill::Data);
  EXPECT_EQ(frames_of(reader), (std::vector<std::string>{"fresh"}));
}

TEST(Frame, ReaderRejectsAnOversizedLength) {
  SocketPair pair;
  const uint32_t huge = kMaxFrameBytes + 1;
  send_all_raw(pair.a, &huge, sizeof(huge));
  send_all_raw(pair.a, "junk", 4);
  FrameReader reader;
  ASSERT_EQ(reader.fill(pair.b, /*block=*/true), FrameReader::Fill::Data);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.bad());
  EXPECT_FALSE(reader.next().has_value());  // stays bad
}

TEST(Frame, ReaderGrowsForAFrameLargerThanOneRead) {
  SocketPair pair;
  const std::string big(300'000, 'q');
  std::thread writer([&] { EXPECT_TRUE(write_frame(pair.a, big)); });
  FrameReader reader;
  std::optional<std::string> got;
  while (!got) {
    ASSERT_EQ(reader.fill(pair.b, /*block=*/true), FrameReader::Fill::Data);
    if (const auto frame = reader.next()) got = std::string(*frame);
  }
  writer.join();
  EXPECT_EQ(*got, big);
}

TEST(Frame, ReaderReportsPeerCloseAsEof) {
  SocketPair pair;
  FrameReader reader;
  EXPECT_EQ(reader.fill(pair.b, /*block=*/false), FrameReader::Fill::Empty);
  pair.close_a();
  EXPECT_EQ(reader.fill(pair.b, /*block=*/true), FrameReader::Fill::Eof);
}

}  // namespace
}  // namespace erpi::util
