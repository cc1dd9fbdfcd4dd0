// Tests for the remaining util pieces: Result/Status, Rng, hashing, strings.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/hash.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace erpi::util {
namespace {

// ---------------------------------------------------------------------------
// Result / Status
// ---------------------------------------------------------------------------

TEST(Result, ValueAccess) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.has_value());
  EXPECT_EQ(ok.value(), 7);
  EXPECT_EQ(ok.value_or(0), 7);
}

TEST(Result, ErrorAccess) {
  Result<int> bad = Result<int>::fail("boom");
  EXPECT_FALSE(bad);
  EXPECT_EQ(bad.error().message, "boom");
  EXPECT_EQ(bad.value_or(9), 9);
  EXPECT_THROW(bad.value(), std::logic_error);
}

TEST(Result, TakeMovesValue) {
  Result<std::string> r(std::string("movable"));
  const std::string taken = std::move(r).take();
  EXPECT_EQ(taken, "movable");
}

TEST(Status, OkAndFail) {
  EXPECT_TRUE(Status::ok());
  const Status s = Status::fail("nope");
  EXPECT_FALSE(s);
  EXPECT_EQ(s.error().message, "nope");
  EXPECT_THROW(Status::ok().error(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(99);
  std::set<uint64_t> seen;
  for (int i = 0; i < 300; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(13);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const int64_t x = rng.range(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ReseedRestartsStream) {
  Rng rng(42);
  const uint64_t first = rng.next();
  rng.next();
  rng.reseed(42);
  EXPECT_EQ(rng.next(), first);
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

TEST(Fnv1a, KnownValues) {
  // standard FNV-1a 64 test vectors
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1aHasher, ComposesDeterministically) {
  Fnv1aHasher h1;
  h1.bytes("abc").u64(42).i64(-1);
  Fnv1aHasher h2;
  h2.bytes("abc").u64(42).i64(-1);
  EXPECT_EQ(h1.digest(), h2.digest());
  Fnv1aHasher h3;
  h3.bytes("abc").u64(43).i64(-1);
  EXPECT_NE(h1.digest(), h3.digest());
}

TEST(Sha1, KnownVectors) {
  EXPECT_EQ(Sha1::hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(Sha1::hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(Sha1::hex("The quick brown fox jumps over the lazy dog"),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  Sha1 s;
  s.update("The quick brown fox ");
  s.update("jumps over the lazy dog");
  EXPECT_EQ(to_hex(s.finish()), "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1, LongInputCrossesBlockBoundaries) {
  const std::string block(1000, 'a');
  // SHA1 of 1000 'a' characters (verified against coreutils sha1sum)
  EXPECT_EQ(Sha1::hex(block), "291e9a6c66994949b57ba5e650361e98fc36b1ba");
}

TEST(Hex64, RoundTripsAndRejectsNonCanonicalText) {
  for (const uint64_t value : {uint64_t{0}, uint64_t{1}, uint64_t{0x000c0ffee0ddba11},
                               ~uint64_t{0}}) {
    const std::string text = hex64(value);
    EXPECT_EQ(text.size(), 16u);
    EXPECT_EQ(parse_hex64(text), std::optional<uint64_t>(value)) << text;
  }
  EXPECT_EQ(hex64(0xabcdef0123456789ull), "abcdef0123456789");
  for (const char* text : {"", "1", "-1", "0x1f", "0x000000000000001", "-000000000000001",
                           " 000000000000001", "000000000000001 ", "00000000000000001",
                           "ABCDEF0123456789", "000000000000000g"}) {
    EXPECT_FALSE(parse_hex64(text).has_value()) << '"' << text << '"';
  }
}

// ---------------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------------

TEST(Strings, SplitPreservesEmptyFields) {
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("solo", ','), (std::vector<std::string>{"solo"}));
}

TEST(Strings, JoinInvertsSplit) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(join(parts, "-"), "x-y-z");
  EXPECT_EQ(split(join(parts, ","), ','), parts);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  a b \t\n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("prefix-body", "prefix"));
  EXPECT_FALSE(starts_with("pre", "prefix"));
  EXPECT_TRUE(ends_with("body-suffix", "suffix"));
  EXPECT_FALSE(ends_with("fix", "suffix"));
}

TEST(Strings, PadNumber) {
  EXPECT_EQ(pad_number(7, 3), "007");
  EXPECT_EQ(pad_number(1234, 3), "1234");
}

}  // namespace
}  // namespace erpi::util
