#include "core/wire_util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "tensor/matrix.h"
#include "trend_payload.h"

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

/// The EncodeNonzeroRows payload of rows `rows` of m, built element by
/// element.
std::vector<uint8_t> ReferencePayload(const Matrix& m,
                                      const std::vector<uint32_t>& rows) {
  std::vector<uint8_t> map((rows.size() * m.cols() + 7) / 8);
  std::vector<float> kept;
  size_t e = 0;
  for (uint32_t r : rows) {
    for (size_t c = 0; c < m.cols(); ++c, ++e) {
      if (std::bit_cast<uint32_t>(m.At(r, c)) == 0) continue;
      map[e / 8] |= static_cast<uint8_t>(1u << (e % 8));
      kept.push_back(m.At(r, c));
    }
  }
  return test::AssembleTrendPayload(static_cast<uint32_t>(rows.size()),
                                    static_cast<uint32_t>(m.cols()),
                                    kept.size(), map, kept, /*raw=*/false);
}

TEST(WireUtilTest, NonzeroRowsRoundTripMatchesDenseBits) {
  const std::vector<uint32_t> rows = {4, 0, 8, 3, 2, 7, 1, 5, 6, 3};
  const std::vector<uint32_t> dst_rows = {11, 2, 5, 0, 9, 3, 7, 1, 4, 12};
  bool coded = false;
  for (size_t cols : {1, 13, 16, 47, 64, 512}) {
    SCOPED_TRACE(testing::Message() << "cols " << cols);
    const Matrix m = ZeroStressRows(cols, 40 + cols);
    const std::vector<uint8_t> want_payload = ReferencePayload(m, rows);
    for (const test::BlockExtent& e :
         test::TrendBlockExtents(want_payload, 0)) {
      coded |= e.tag == test::kCodedBlockTag;
    }
    std::vector<uint8_t> sparse, dense;
    ByteWriter sw(&sparse);
    sw.PutU8(0xa5);  // the payload may follow other bytes
    EncodeNonzeroRows(m, rows, &sw);
    ByteWriter dw(&dense);
    EncodeMatrixRows(m, rows, &dw);
    ASSERT_EQ(sparse.size(), 1 + want_payload.size());
    EXPECT_EQ(std::memcmp(sparse.data() + 1, want_payload.data(),
                          want_payload.size()),
              0);

    Matrix got(13, cols), want(13, cols);
    for (size_t i = 0; i < got.size(); ++i) {
      got.data()[i] = want.data()[i] = -3.0f - static_cast<float>(i);
    }
    ByteReader sr(sparse);
    uint8_t lead = 0;
    ASSERT_TRUE(sr.GetU8(&lead).ok());
    NonzeroRows nz;
    ASSERT_TRUE(DecodeNonzeroRows(&sr, static_cast<uint32_t>(rows.size()),
                                  static_cast<uint32_t>(cols), &nz)
                    .ok());
    EXPECT_EQ(sr.remaining(), 0u);
    EXPECT_EQ(nz.rows, rows.size());
    EXPECT_EQ(nz.cols, cols);
    ExpandNonzeroRows(nz, dst_rows, &got);
    ByteReader dr(dense);
    Matrix block;
    ASSERT_TRUE(DecodeMatrix(&dr, &block).ok());
    ASSERT_TRUE(AssignRows(block, dst_rows, &want).ok());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0);
  }
  EXPECT_TRUE(coded) << "no block was coded";
}

TEST(WireUtilTest, NonzeroRowsOfNothingRoundTrip) {
  const Matrix m(3, 5);  // all +0.0
  for (const std::vector<uint32_t>& rows :
       {std::vector<uint32_t>{}, std::vector<uint32_t>{2, 0}}) {
    std::vector<uint8_t> buf;
    ByteWriter w(&buf);
    EncodeNonzeroRows(m, rows, &w);
    EXPECT_EQ(buf, ReferencePayload(m, rows));
    ByteReader r(buf);
    NonzeroRows nz;
    ASSERT_TRUE(
        DecodeNonzeroRows(&r, static_cast<uint32_t>(rows.size()), 5, &nz)
            .ok());
    Matrix out(3, 5);
    out.Fill(7.0f);
    ExpandNonzeroRows(nz, rows, &out);
    for (uint32_t dr : rows) {
      for (size_t c = 0; c < 5; ++c) EXPECT_EQ(out.At(dr, c), 0.0f);
    }
    EXPECT_EQ(out.At(1, 0), 7.0f);  // not a destination row
  }
}

/// A hand-built trend payload with raw blocks: `set` leading bitmap bits
/// of a rows x cols map, the header's `nnz`, `floats` floats in the planes.
std::vector<uint8_t> NonzeroPayload(uint32_t rows, uint32_t cols,
                                    uint64_t nnz, uint64_t set,
                                    uint64_t floats, bool stray = false) {
  std::vector<uint8_t> map((static_cast<uint64_t>(rows) * cols + 7) / 8);
  for (uint64_t i = 0; i < set; ++i) map[i / 8] |= 1u << (i % 8);
  if (stray) map.back() |= 0x80;
  std::vector<float> values;
  for (uint64_t i = 0; i < floats; ++i) values.push_back(1.0f + i);
  return test::AssembleTrendPayload(rows, cols, nnz, map, values,
                                    /*raw=*/true);
}

TEST(WireUtilTest, NonzeroRowsDecodeRejectsMalformedPayloads) {
  struct Case {
    const char* name;
    std::vector<uint8_t> payload;
    StatusCode code;
    uint32_t rows = 2, cols = 13;  // what the receiver takes
  };
  std::vector<uint8_t> truncated_map = NonzeroPayload(2, 13, 20, 20, 20);
  truncated_map.resize(16 + 9 + 3);  // the 4-byte bitmap block cut short
  std::vector<uint8_t> truncated_plane = NonzeroPayload(2, 13, 20, 20, 20);
  truncated_plane.resize(truncated_plane.size() - 1);
  // The coded layout: the all-set bitmap and the planes of constant floats
  // code, so every length below is a coded block's.
  std::vector<float> ones(4000, 1.0f);
  const std::vector<uint8_t> full_map(500, 0xff);
  std::vector<uint8_t> coded =
      test::AssembleTrendPayload(4, 1000, 4000, full_map, ones,
                                 /*raw=*/false);
  std::vector<uint8_t> coded_cut = coded;
  coded_cut.resize(coded_cut.size() - 1);
  std::vector<uint8_t> coded_plane_flip = coded;
  coded_plane_flip.back() ^= 1;
  const Case cases[] = {
      {"well-formed", NonzeroPayload(2, 13, 20, 20, 20), StatusCode::kOk},
      {"popcount above nnz", NonzeroPayload(2, 13, 19, 20, 19),
       StatusCode::kInvalidArgument},
      {"popcount below nnz", NonzeroPayload(2, 13, 21, 20, 21),
       StatusCode::kInvalidArgument},
      {"stray bit past rows x cols", NonzeroPayload(2, 13, 20, 19, 20, true),
       StatusCode::kInvalidArgument},
      {"planes shorter than nnz", NonzeroPayload(2, 13, 20, 20, 19),
       StatusCode::kInvalidArgument},
      {"planes longer than nnz", NonzeroPayload(2, 13, 20, 20, 21),
       StatusCode::kInvalidArgument},
      {"nnz above rows x cols", NonzeroPayload(2, 13, 27, 26, 27),
       StatusCode::kInvalidArgument},
      {"huge nnz", NonzeroPayload(2, 13, ~0ull / 2, 20, 20),
       StatusCode::kInvalidArgument},
      {"truncated bitmap", truncated_map, StatusCode::kOutOfRange},
      {"truncated plane", truncated_plane, StatusCode::kOutOfRange},
      {"empty", NonzeroPayload(0, 13, 0, 0, 0), StatusCode::kOk, 0},
      {"more rows than the receiver takes", NonzeroPayload(3, 13, 20, 20, 20),
       StatusCode::kInvalidArgument},
      {"other width", NonzeroPayload(2, 12, 20, 20, 20),
       StatusCode::kInvalidArgument},
      {"coded", coded, StatusCode::kOk, 4, 1000},
      {"coded, cut short", coded_cut, StatusCode::kOutOfRange, 4, 1000},
      {"coded, plane flipped", coded_plane_flip,
       StatusCode::kInvalidArgument, 4, 1000},
  };
  for (const Case& c : cases) {
    ByteReader r(c.payload);
    NonzeroRows nz;
    EXPECT_EQ(DecodeNonzeroRows(&r, c.rows, c.cols, &nz).code(), c.code)
        << c.name;
  }
  // A shape whose bitmap alone exceeds any buffer is refused before it
  // sizes anything.
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutU32(~0u);
  w.PutU32(~0u);
  w.PutU64(0);
  ByteReader r(buf);
  NonzeroRows nz;
  EXPECT_EQ(DecodeNonzeroRows(&r, 2, 13, &nz).code(),
            StatusCode::kInvalidArgument);
}

// A golden payload whose bitmap and top plane are coded, then every
// truncation and every single bit flip of it. A flip in a raw plane's bytes
// is a well-formed payload carrying that bit flipped; any other mutation is
// rejected.
TEST(WireUtilTest, NonzeroRowsMutationsAreRejected) {
  // Rows alternate all-zero and all-nonzero halves, so the bitmap is runs of
  // 0x00 and 0xff; the kept floats share their top byte.
  constexpr uint32_t kRows = 8, kCols = 256;
  Matrix m(kRows, kCols);
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t c = 0; c < kCols; ++c) {
      if ((r + c / 64) % 2 == 1) {
        m.At(r, c) = 1.0f + static_cast<float>((r * 37 + c * 11) % 97) / 97;
      }
    }
  }
  std::vector<uint32_t> rows(kRows);
  for (uint32_t r = 0; r < kRows; ++r) rows[r] = r;
  const std::vector<uint8_t> golden = ReferencePayload(m, rows);
  const std::vector<test::BlockExtent> extents =
      test::TrendBlockExtents(golden, 0);
  ASSERT_EQ(extents.back().end, golden.size());
  ASSERT_EQ(extents[0].tag, test::kCodedBlockTag) << "bitmap coded";
  ASSERT_EQ(extents[4].tag, test::kCodedBlockTag) << "top plane coded";
  const auto decode = [&](const uint8_t* data, size_t size,
                          Matrix* out) -> Status {
    ByteReader r(data, size);
    NonzeroRows nz;
    ECG_RETURN_IF_ERROR(DecodeNonzeroRows(&r, kRows, kCols, &nz));
    if (r.remaining() != 0) return Status::InvalidArgument("trailing bytes");
    out->Reset(kRows, kCols);
    ExpandNonzeroRows(nz, rows, out);
    return Status::OK();
  };
  Matrix got;
  ASSERT_TRUE(decode(golden.data(), golden.size(), &got).ok());
  ASSERT_EQ(std::memcmp(got.data(), m.data(), m.size() * sizeof(float)), 0);
  for (size_t len = 0; len < golden.size(); ++len) {
    EXPECT_FALSE(decode(golden.data(), len, &got).ok())
        << "truncated to " << len << " of " << golden.size() << " bytes";
  }
  // Kept float k's byte p sits at byte k of plane p.
  std::vector<size_t> kept;
  for (size_t e = 0; e < m.size(); ++e) {
    if (m.data()[e] != 0.0f) kept.push_back(e);
  }
  for (size_t bit = 0; bit < golden.size() * 8; ++bit) {
    std::vector<uint8_t> bytes = golden;
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    const Status st = decode(bytes.data(), bytes.size(), &got);
    const size_t at = bit / 8;
    bool in_raw_plane = false;
    for (size_t p = 0; p < 4; ++p) {
      const test::BlockExtent& e = extents[1 + p];
      const size_t data_at = e.at + test::kRawBlockHeader;
      if (e.tag != test::kRawBlockTag || at < data_at || at >= e.end) {
        continue;
      }
      in_raw_plane = true;
      Matrix want = m;
      uint32_t v = std::bit_cast<uint32_t>(want.data()[kept[at - data_at]]);
      v ^= 1u << (8 * p + bit % 8);
      want.data()[kept[at - data_at]] = std::bit_cast<float>(v);
      ASSERT_TRUE(st.ok()) << st;
      EXPECT_EQ(std::memcmp(got.data(), want.data(), m.size() * sizeof(float)),
                0)
          << "bit " << bit;
    }
    if (!in_raw_plane) {
      EXPECT_FALSE(st.ok()) << "bit " << bit;
    }
  }
}

}  // namespace
}  // namespace ecg::core
