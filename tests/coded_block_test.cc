#include "common/coded_block.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"

namespace ecg {
namespace {

/// Tags of a block (the first byte).
constexpr uint8_t kRaw = 0;
constexpr uint8_t kCoded = 1;

std::vector<uint8_t> BlockOf(const std::vector<uint8_t>& in) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  AppendCodedBlock(in.data(), in.size(), &w);
  return buf;
}

/// Bytes mostly 0 with a few small values: what ReLU ids, sparse bitmaps
/// and the float top plane look like.
std::vector<uint8_t> Skewed(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> v(n);
  for (uint8_t& b : v) {
    const uint32_t x = static_cast<uint32_t>(rng.NextU64());
    b = x % 4 == 0 ? static_cast<uint8_t>(x >> 24 & 7) : 0;
  }
  return v;
}

std::vector<uint8_t> Uniform(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> v(n);
  for (uint8_t& b : v) b = static_cast<uint8_t>(rng.NextU64());
  return v;
}

/// Decodes `block` as n bytes into a buffer with a guard after it; the
/// guard must survive whatever the status.
Status Parse(const uint8_t* block, size_t size, size_t n,
             std::vector<uint8_t>* out) {
  constexpr uint8_t kGuard = 0xa7;
  std::vector<uint8_t> buf(n + 64, kGuard);
  ByteReader r(block, size);
  const Status st = ParseCodedBlock(&r, n, buf.data());
  for (size_t i = n; i < buf.size(); ++i) {
    EXPECT_EQ(buf[i], kGuard) << "wrote past n at " << i;
  }
  buf.resize(n);
  *out = std::move(buf);
  if (st.ok() && r.remaining() != 0) {
    return Status::InvalidArgument("block left bytes unread");
  }
  return st;
}

TEST(CodedBlockTest, RoundTripsAndNeverExceedsRaw) {
  const std::vector<std::vector<uint8_t>> inputs = {
      {},
      {42},
      Skewed(7, 1),
      Skewed(100, 2),
      Skewed(5000, 3),
      Uniform(5000, 4),
      std::vector<uint8_t>(3000, 0),
      std::vector<uint8_t>(3001, 0xff),
  };
  for (const std::vector<uint8_t>& in : inputs) {
    SCOPED_TRACE(testing::Message() << in.size() << " bytes");
    const std::vector<uint8_t> block = BlockOf(in);
    EXPECT_LE(block.size(), 1 + sizeof(uint64_t) + in.size());
    std::vector<uint8_t> out;
    ASSERT_TRUE(Parse(block.data(), block.size(), in.size(), &out).ok());
    EXPECT_EQ(out, in);
  }
  // Coding pays on long skewed or constant inputs only.
  EXPECT_EQ(BlockOf(Skewed(5000, 3))[0], kCoded);
  EXPECT_EQ(BlockOf(std::vector<uint8_t>(3000, 0))[0], kCoded);
  EXPECT_EQ(BlockOf(Uniform(5000, 4))[0], kRaw);
  EXPECT_EQ(BlockOf(Skewed(100, 2))[0], kRaw);
  EXPECT_LT(BlockOf(Skewed(5000, 3)).size(), 5000u / 2);
}

TEST(CodedBlockTest, RejectsAnotherLength) {
  // A single-symbol stream decodes to any length; the check word, seeded
  // with the length, still refuses it.
  for (const std::vector<uint8_t>& in :
       {Skewed(4000, 5), Uniform(300, 6), std::vector<uint8_t>(2000, 3),
        std::vector<uint8_t>{}}) {
    const std::vector<uint8_t> block = BlockOf(in);
    std::vector<uint8_t> out;
    for (size_t n : {in.size() + 1, in.size() + 4, in.size() + 4096}) {
      EXPECT_FALSE(Parse(block.data(), block.size(), n, &out).ok())
          << in.size() << " bytes read as " << n;
    }
    if (!in.empty()) {
      EXPECT_FALSE(Parse(block.data(), block.size(), in.size() - 1, &out).ok())
          << in.size() << " bytes read as " << in.size() - 1;
    }
  }
}

TEST(CodedBlockTest, RejectsHostileLengthFields) {
  // A raw block whose u64 length is huge, and a coded one whose u32 stream
  // length runs past the buffer: both are refused before anything is read
  // or written through them.
  std::vector<uint8_t> raw;
  ByteWriter w(&raw);
  w.PutU8(kRaw);
  w.PutU64(~0ull);
  std::vector<uint8_t> out;
  EXPECT_EQ(Parse(raw.data(), raw.size(), 16, &out).code(),
            StatusCode::kInvalidArgument);
  std::vector<uint8_t> coded = BlockOf(std::vector<uint8_t>(2000, 0));
  ASSERT_EQ(coded[0], kCoded);
  // Tag, symbol map, one 12-bit frequency (two bytes), check word, length.
  const size_t len_at = 1 + 32 + 2 + 4;
  const uint32_t huge = 0xfffffff0u;
  std::memcpy(coded.data() + len_at, &huge, sizeof(huge));
  EXPECT_EQ(Parse(coded.data(), coded.size(), 2000, &out).code(),
            StatusCode::kOutOfRange);
}

// Golden blocks (coded, raw fallback, one symbol, empty), then every
// truncation and every single bit flip of each: a mutated block decodes to
// a non-OK status or to exactly the bytes it carries. A coded block
// carries its input, whatever the flip; a raw block's payload bytes carry
// no redundancy, so a flip there reaches exactly that bit.
TEST(CodedBlockTest, BlockMutationsAreRejected) {
  struct Golden {
    const char* name;
    std::vector<uint8_t> in;
    uint8_t tag;
  };
  const Golden goldens[] = {
      {"coded", Skewed(1500, 7), kCoded},
      {"raw", Uniform(96, 8), kRaw},
      {"one symbol", std::vector<uint8_t>(700, 0x5c), kCoded},
      {"empty", {}, kRaw},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.name);
    const std::vector<uint8_t> block = BlockOf(g.in);
    ASSERT_EQ(block[0], g.tag);
    std::vector<uint8_t> out;
    ASSERT_TRUE(Parse(block.data(), block.size(), g.in.size(), &out).ok());
    ASSERT_EQ(out, g.in);
    for (size_t len = 0; len < block.size(); ++len) {
      EXPECT_FALSE(Parse(block.data(), len, g.in.size(), &out).ok())
          << "truncated to " << len << " of " << block.size() << " bytes";
    }
    const size_t payload_at = 1 + sizeof(uint64_t);  // raw bytes start
    size_t accepted = 0;
    for (size_t bit = 0; bit < block.size() * 8; ++bit) {
      std::vector<uint8_t> bytes = block;
      bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      const Status st = Parse(bytes.data(), bytes.size(), g.in.size(), &out);
      if (g.tag == kRaw && bit / 8 >= payload_at) {
        std::vector<uint8_t> want = g.in;
        const size_t at = bit - 8 * payload_at;
        want[at / 8] ^= static_cast<uint8_t>(1u << (at % 8));
        ASSERT_TRUE(st.ok()) << st;
        EXPECT_EQ(out, want) << "bit " << bit;
        continue;
      }
      if (!st.ok()) continue;
      ++accepted;
      EXPECT_EQ(out, g.in) << "bit " << bit;
    }
    EXPECT_EQ(accepted, 0u);
  }
}

}  // namespace
}  // namespace ecg
