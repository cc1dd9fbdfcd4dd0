// Content hashing used across ER-pi.
//
// Two distinct needs:
//  * fast non-cryptographic hashing (FNV-1a) for dedup caches, interleaving
//    fingerprints, and equivalence-class keys in the pruners;
//  * content-addressed digests (SHA-1) for the Merkle-DAG log substrate
//    (OrbitDB-style entries are addressed by the hash of their contents).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace erpi::util {

/// FNV-1a 64's offset basis (the digest of no bytes) and prime.
inline constexpr uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// 64-bit FNV-1a over a byte view. A digest as `seed` continues it:
/// fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b).
constexpr uint64_t fnv1a64(std::string_view data, uint64_t seed = kFnv1aBasis) noexcept {
  uint64_t h = seed;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

/// Incrementally combinable hasher for composite keys.
class Fnv1aHasher {
 public:
  Fnv1aHasher& bytes(std::string_view data) noexcept {
    h_ = fnv1a64(data, h_);
    return *this;
  }
  Fnv1aHasher& u64(uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<unsigned char>(v >> (i * 8));
      h_ *= kFnv1aPrime;
    }
    return *this;
  }
  Fnv1aHasher& i64(int64_t v) noexcept { return u64(static_cast<uint64_t>(v)); }
  uint64_t digest() const noexcept { return h_; }

 private:
  uint64_t h_ = kFnv1aBasis;
};

/// SHA-1 digest (20 bytes). Not for security — for content addressing in the
/// Merkle log, where we need a stable, collision-resistant-enough identifier.
class Sha1 {
 public:
  Sha1() noexcept { reset(); }

  void reset() noexcept;
  void update(std::string_view data) noexcept;
  std::array<uint8_t, 20> finish() noexcept;

  /// One-shot convenience returning a lowercase hex string.
  static std::string hex(std::string_view data);

 private:
  void process_block(const uint8_t* block) noexcept;

  uint32_t h_[5] = {};
  uint64_t length_ = 0;  // total bytes seen
  uint8_t buffer_[64] = {};
  size_t buffered_ = 0;
};

/// Lowercase hex encoding of arbitrary bytes.
std::string to_hex(std::span<const uint8_t> bytes);

/// A 64-bit value as exactly 16 lowercase hex digits — the form run
/// fingerprints take in the run journal, the corpus and the footprint bank.
std::string hex64(uint64_t value);
/// Inverse of hex64: nullopt unless `text` is exactly 16 lowercase hex
/// digits (no sign, no "0x", no blanks).
std::optional<uint64_t> parse_hex64(std::string_view text) noexcept;

}  // namespace erpi::util
