#include "common/bytes.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace ecg {
namespace {

TEST(BytesTest, ScalarRoundTrip) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutU8(7);
  w.PutU32(0xdeadbeefu);
  w.PutU64(0x0123456789abcdefULL);
  w.PutF32(3.25f);

  ByteReader r(buf);
  uint8_t a = 0;
  uint32_t b = 0;
  uint64_t c = 0;
  float d = 0;
  ASSERT_TRUE(r.GetU8(&a).ok());
  ASSERT_TRUE(r.GetU32(&b).ok());
  ASSERT_TRUE(r.GetU64(&c).ok());
  ASSERT_TRUE(r.GetF32(&d).ok());
  EXPECT_EQ(a, 7);
  EXPECT_EQ(b, 0xdeadbeefu);
  EXPECT_EQ(c, 0x0123456789abcdefULL);
  EXPECT_EQ(d, 3.25f);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BytesTest, VectorRoundTrip) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  const std::vector<uint32_t> u32s = {1, 2, 3, 0xffffffffu};
  const std::vector<float> f32s = {-1.5f, 0.0f, 2.5f};
  const std::vector<uint8_t> bytes = {9, 8, 7};
  w.PutU32Vector(u32s);
  w.PutF32Vector(f32s);
  w.PutBytes(bytes);

  ByteReader r(buf);
  std::vector<uint32_t> u32s2;
  std::vector<float> f32s2;
  std::vector<uint8_t> bytes2;
  ASSERT_TRUE(r.GetU32Vector(&u32s2).ok());
  ASSERT_TRUE(r.GetF32Vector(&f32s2).ok());
  ASSERT_TRUE(r.GetBytes(&bytes2).ok());
  EXPECT_EQ(u32s2, u32s);
  EXPECT_EQ(f32s2, f32s);
  EXPECT_EQ(bytes2, bytes);
}

TEST(BytesTest, F32ArrayRoundTrip) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  const float values[4] = {1.0f, -2.0f, 3.5f, 1e-8f};
  w.PutF32Array(values, 4);
  ByteReader r(buf);
  float out[4] = {};
  ASSERT_TRUE(r.GetF32Array(out, 4).ok());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], values[i]);
}

TEST(BytesTest, ReadPastEndFails) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutU8(1);
  ByteReader r(buf);
  uint32_t v = 0;
  EXPECT_EQ(r.GetU32(&v).code(), StatusCode::kOutOfRange);
}

TEST(BytesTest, CorruptLengthPrefixFails) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutU64(1u << 30);  // claims a huge vector, no payload
  ByteReader r(buf);
  std::vector<uint32_t> v;
  EXPECT_EQ(r.GetU32Vector(&v).code(), StatusCode::kOutOfRange);
  std::vector<float> f;
  ByteReader r2(buf);
  EXPECT_EQ(r2.GetF32Vector(&f).code(), StatusCode::kOutOfRange);
  std::vector<uint8_t> b;
  ByteReader r3(buf);
  EXPECT_EQ(r3.GetBytes(&b).code(), StatusCode::kOutOfRange);
}

// Lengths whose byte count wraps a u64 (n * 4 == 0 for n = 2^62, and
// pos + n wraps for n = UINT64_MAX) must be rejected before any resize.
TEST(BytesTest, WrappingLengthPrefixFailsWithoutAllocating) {
  for (const uint64_t n : {uint64_t{1} << 62, uint64_t{1} << 63,
                           std::numeric_limits<uint64_t>::max()}) {
    SCOPED_TRACE(n);
    std::vector<uint8_t> buf;
    ByteWriter w(&buf);
    w.PutU64(n);
    w.PutU64(0);  // a little payload, so remaining() > 0
    std::vector<uint32_t> u;
    ByteReader r(buf);
    EXPECT_EQ(r.GetU32Vector(&u).code(), StatusCode::kOutOfRange);
    EXPECT_EQ(u.capacity(), 0u);
    std::vector<float> f;
    ByteReader r2(buf);
    EXPECT_EQ(r2.GetF32Vector(&f).code(), StatusCode::kOutOfRange);
    EXPECT_EQ(f.capacity(), 0u);
    std::vector<uint8_t> b;
    ByteReader r3(buf);
    EXPECT_EQ(r3.GetBytes(&b).code(), StatusCode::kOutOfRange);
    EXPECT_EQ(b.capacity(), 0u);
    float out = 0.0f;
    ByteReader r4(buf);
    EXPECT_EQ(r4.GetF32Array(&out, static_cast<size_t>(n)).code(),
              StatusCode::kOutOfRange);
  }
}

TEST(BytesTest, EmptyVectors) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutU32Vector({});
  w.PutF32Vector({});
  ByteReader r(buf);
  std::vector<uint32_t> u;
  std::vector<float> f;
  ASSERT_TRUE(r.GetU32Vector(&u).ok());
  ASSERT_TRUE(r.GetF32Vector(&f).ok());
  EXPECT_TRUE(u.empty());
  EXPECT_TRUE(f.empty());
}

}  // namespace
}  // namespace ecg
