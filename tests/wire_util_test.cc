#include "core/wire_util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "tensor/matrix.h"

namespace ecg::core {
namespace {

using tensor::Matrix;

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

TEST(WireUtilTest, MatrixRoundTrip) {
  const Matrix m = RandomMatrix(5, 7, 1);
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  EncodeMatrix(m, &w);
  ByteReader r(buf);
  Matrix out;
  ASSERT_TRUE(DecodeMatrix(&r, &out).ok());
  EXPECT_TRUE(tensor::AllClose(out, m, 0.0f));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireUtilTest, EmptyMatrixRoundTrip) {
  const Matrix m(0, 4);
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  EncodeMatrix(m, &w);
  ByteReader r(buf);
  Matrix out;
  ASSERT_TRUE(DecodeMatrix(&r, &out).ok());
  EXPECT_EQ(out.rows(), 0u);
  EXPECT_EQ(out.cols(), 4u);
}

TEST(WireUtilTest, DecodeRejectsInconsistentHeader) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutU32(2);
  w.PutU32(3);
  w.PutU64(7);  // 2*3 != 7
  ByteReader r(buf);
  Matrix out;
  EXPECT_EQ(DecodeMatrix(&r, &out).code(), StatusCode::kInvalidArgument);
}

TEST(WireUtilTest, DecodeRejectsTruncatedPayload) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutU32(4);
  w.PutU32(4);
  w.PutU64(16);  // claims 16 floats, provides 1
  w.PutF32(1.0f);
  ByteReader r(buf);
  Matrix out;
  EXPECT_EQ(DecodeMatrix(&r, &out).code(), StatusCode::kOutOfRange);
}

TEST(WireUtilTest, AssignRowsPlacesRows) {
  const Matrix src(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix dst(4, 3);
  ASSERT_TRUE(AssignRows(src, {3, 0}, &dst).ok());
  EXPECT_EQ(dst.At(3, 0), 1.0f);
  EXPECT_EQ(dst.At(0, 2), 6.0f);
  EXPECT_EQ(dst.At(1, 0), 0.0f);  // untouched
}

TEST(WireUtilTest, AssignRowsValidates) {
  const Matrix src(2, 3);
  Matrix dst(4, 3);
  EXPECT_EQ(AssignRows(src, {0}, &dst).code(),
            StatusCode::kInvalidArgument);  // count mismatch
  EXPECT_EQ(AssignRows(src, {0, 9}, &dst).code(), StatusCode::kOutOfRange);
  Matrix narrow(4, 2);
  EXPECT_EQ(AssignRows(src, {0, 1}, &narrow).code(),
            StatusCode::kInvalidArgument);  // width mismatch
}

float FromBits(uint32_t bits) { return std::bit_cast<float>(bits); }

/// Rows that stress the zero test: -0.0, NaN payloads and denormals (all
/// kept), all-zero rows, rows with no zeros and ReLU'd Gaussian rows.
Matrix ZeroStressRows(size_t cols, uint64_t seed) {
  Matrix m = RandomMatrix(9, cols, seed);
  for (size_t c = 0; c < cols; ++c) {
    m.At(0, c) = -0.0f;
    m.At(1, c) = c % 3 == 0 ? 0.0f
                            : FromBits(c % 3 == 1 ? 0x7fc00001u + c
                                                  : 0xffa00000u + c);
    m.At(2, c) = c % 2 == 0 ? 0.0f : FromBits(1u + 977u * c);  // denormal
    m.At(3, c) = 0.0f;
    m.At(4, c) = 1.0f + static_cast<float>(c);
    for (size_t r = 5; r < 9; ++r) m.At(r, c) = std::max(m.At(r, c), 0.0f);
  }
  return m;
}

TEST(WireUtilTest, NonzeroRowsRoundTripMatchesDenseBits) {
  const std::vector<uint32_t> rows = {4, 0, 8, 3, 2, 7, 1, 5, 6, 3};
  const std::vector<uint32_t> dst_rows = {11, 2, 5, 0, 9, 3, 7, 1, 4, 12};
  for (size_t cols : {1, 13, 16, 47, 64}) {
    SCOPED_TRACE(testing::Message() << "cols " << cols);
    const Matrix m = ZeroStressRows(cols, 40 + cols);
    uint64_t nnz = 0;
    for (uint32_t r : rows) {
      for (size_t c = 0; c < cols; ++c) {
        nnz += std::bit_cast<uint32_t>(m.At(r, c)) != 0;
      }
    }
    std::vector<uint8_t> sparse, dense;
    ByteWriter sw(&sparse);
    sw.PutU8(0xa5);  // the payload may follow other bytes
    EncodeNonzeroRows(m, rows, &sw);
    ByteWriter dw(&dense);
    EncodeMatrixRows(m, rows, &dw);
    EXPECT_EQ(sparse.size(), 1 + NonzeroRowsBytes(rows.size(), cols, nnz));

    Matrix got(13, cols), want(13, cols);
    for (size_t i = 0; i < got.size(); ++i) {
      got.data()[i] = want.data()[i] = -3.0f - static_cast<float>(i);
    }
    ByteReader sr(sparse);
    uint8_t lead = 0;
    ASSERT_TRUE(sr.GetU8(&lead).ok());
    NonzeroRows nz;
    ASSERT_TRUE(DecodeNonzeroRows(&sr, &nz).ok());
    EXPECT_EQ(sr.remaining(), 0u);
    EXPECT_EQ(nz.rows, rows.size());
    EXPECT_EQ(nz.cols, cols);
    EXPECT_EQ(nz.nnz, nnz);
    ExpandNonzeroRows(nz, dst_rows, &got);
    ByteReader dr(dense);
    Matrix block;
    ASSERT_TRUE(DecodeMatrix(&dr, &block).ok());
    ASSERT_TRUE(AssignRows(block, dst_rows, &want).ok());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0);
  }
}

TEST(WireUtilTest, NonzeroRowsOfNothingRoundTrip) {
  const Matrix m(3, 5);  // all +0.0
  for (const std::vector<uint32_t>& rows :
       {std::vector<uint32_t>{}, std::vector<uint32_t>{2, 0}}) {
    std::vector<uint8_t> buf;
    ByteWriter w(&buf);
    EncodeNonzeroRows(m, rows, &w);
    EXPECT_EQ(buf.size(), NonzeroRowsBytes(rows.size(), 5, 0));
    ByteReader r(buf);
    NonzeroRows nz;
    ASSERT_TRUE(DecodeNonzeroRows(&r, &nz).ok());
    Matrix out(3, 5);
    out.Fill(7.0f);
    ExpandNonzeroRows(nz, rows, &out);
    for (uint32_t dr : rows) {
      for (size_t c = 0; c < 5; ++c) EXPECT_EQ(out.At(dr, c), 0.0f);
    }
    EXPECT_EQ(out.At(1, 0), 7.0f);  // not a destination row
  }
}

/// A hand-built EncodeNonzeroRows payload: `set` leading bitmap bits of a
/// rows x cols map, the header's `nnz`, `floats` floats after the map.
std::vector<uint8_t> NonzeroPayload(uint32_t rows, uint32_t cols,
                                    uint64_t nnz, uint64_t set,
                                    uint64_t floats, bool stray = false) {
  std::vector<uint8_t> map((static_cast<uint64_t>(rows) * cols + 7) / 8);
  for (uint64_t i = 0; i < set; ++i) map[i / 8] |= 1u << (i % 8);
  if (stray) map.back() |= 0x80;
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutU32(rows);
  w.PutU32(cols);
  w.PutU64(nnz);
  for (uint8_t b : map) w.PutU8(b);
  for (uint64_t i = 0; i < floats; ++i) w.PutF32(1.0f + i);
  return buf;
}

TEST(WireUtilTest, NonzeroRowsDecodeRejectsMalformedPayloads) {
  struct Case {
    const char* name;
    std::vector<uint8_t> payload;
    StatusCode code;
  };
  std::vector<uint8_t> truncated_map = NonzeroPayload(2, 13, 26, 26, 0);
  truncated_map.pop_back();
  const Case cases[] = {
      {"well-formed", NonzeroPayload(2, 13, 20, 20, 20), StatusCode::kOk},
      {"popcount above nnz", NonzeroPayload(2, 13, 19, 20, 19),
       StatusCode::kInvalidArgument},
      {"popcount below nnz", NonzeroPayload(2, 13, 21, 20, 21),
       StatusCode::kInvalidArgument},
      {"stray bit past rows x cols", NonzeroPayload(2, 13, 20, 19, 20, true),
       StatusCode::kInvalidArgument},
      {"nnz beyond the buffer", NonzeroPayload(2, 13, 20, 20, 19),
       StatusCode::kOutOfRange},
      {"huge nnz", NonzeroPayload(2, 13, ~0ull / 2, 20, 20),
       StatusCode::kOutOfRange},
      {"truncated bitmap", truncated_map, StatusCode::kOutOfRange},
      {"empty", NonzeroPayload(0, 13, 0, 0, 0), StatusCode::kOk},
  };
  for (const Case& c : cases) {
    ByteReader r(c.payload);
    NonzeroRows nz;
    EXPECT_EQ(DecodeNonzeroRows(&r, &nz).code(), c.code) << c.name;
  }
  // A shape whose bitmap alone exceeds any buffer.
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutU32(~0u);
  w.PutU32(~0u);
  w.PutU64(0);
  ByteReader r(buf);
  NonzeroRows nz;
  EXPECT_EQ(DecodeNonzeroRows(&r, &nz).code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace ecg::core
