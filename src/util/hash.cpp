#include "util/hash.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>

namespace erpi::util {

namespace {
constexpr uint32_t rotl32(uint32_t x, int k) noexcept {
  return (x << k) | (x >> (32 - k));
}
}  // namespace

void Sha1::reset() noexcept {
  h_[0] = 0x67452301u;
  h_[1] = 0xEFCDAB89u;
  h_[2] = 0x98BADCFEu;
  h_[3] = 0x10325476u;
  h_[4] = 0xC3D2E1F0u;
  length_ = 0;
  buffered_ = 0;
}

void Sha1::update(std::string_view data) noexcept {
  const auto* p = reinterpret_cast<const uint8_t*>(data.data());
  size_t n = data.size();
  length_ += n;
  if (buffered_ > 0) {
    const size_t take = std::min(n, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ == sizeof(buffer_)) {
      process_block(buffer_);
      buffered_ = 0;
    }
  }
  while (n >= 64) {
    process_block(p);
    p += 64;
    n -= 64;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffered_ = n;
  }
}

std::array<uint8_t, 20> Sha1::finish() noexcept {
  const uint64_t bit_length = length_ * 8;
  const uint8_t pad = 0x80;
  update(std::string_view(reinterpret_cast<const char*>(&pad), 1));
  static constexpr uint8_t zeros[64] = {};
  while (buffered_ != 56) {
    const size_t want = buffered_ < 56 ? 56 - buffered_ : 64 - buffered_ + 56;
    const size_t take = std::min<size_t>(want, 64);
    update(std::string_view(reinterpret_cast<const char*>(zeros), take));
  }
  uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) len_be[i] = static_cast<uint8_t>(bit_length >> ((7 - i) * 8));
  update(std::string_view(reinterpret_cast<const char*>(len_be), 8));

  std::array<uint8_t, 20> out{};
  for (int i = 0; i < 5; ++i) {
    out[i * 4 + 0] = static_cast<uint8_t>(h_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(h_[i]);
  }
  return out;
}

void Sha1::process_block(const uint8_t* block) noexcept {
  uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  for (int i = 0; i < 80; ++i) {
    uint32_t f;
    uint32_t k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5A827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    const uint32_t tmp = rotl32(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = rotl32(b, 30);
    b = a;
    a = tmp;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

std::string Sha1::hex(std::string_view data) {
  Sha1 s;
  s.update(data);
  const auto digest = s.finish();
  return to_hex(digest);
}

std::string to_hex(std::span<const uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::string hex64(uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (size_t i = out.size(); i-- > 0; value >>= 4) out[i] = kDigits[value & 0xF];
  return out;
}

std::optional<uint64_t> parse_hex64(std::string_view text) noexcept {
  // from_chars takes upper-case digits too; the canonical form has none.
  if (text.size() != 16 ||
      std::any_of(text.begin(), text.end(), [](char c) { return c >= 'A' && c <= 'F'; })) {
    return std::nullopt;
  }
  uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value, 16);
  if (ec != std::errc{} || end != text.data() + text.size()) return std::nullopt;
  return value;
}

}  // namespace erpi::util
