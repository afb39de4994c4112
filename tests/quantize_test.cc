#include "compress/quantize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace ecg::compress {
namespace {

using tensor::Matrix;

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed, float scale) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = scale * static_cast<float>(rng.NextGaussian());
  }
  return m;
}

TEST(QuantizeTest, PaperFigure3Buckets) {
  // Domain [0,1] with B=2: buckets [0,.25,.5,.75,1], midpoints
  // .125/.375/.625/.875. 0.7 lands in bucket 2.
  Matrix m(1, 4, {0.0f, 0.26f, 0.7f, 1.0f});
  QuantizerOptions opt{2, BucketValueMode::kMidpoint};
  auto q = Quantize(m, opt);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->bits, 2);
  ASSERT_EQ(q->bucket_values.size(), 4u);
  EXPECT_NEAR(q->bucket_values[2], 0.625f, 1e-6f);
  auto rec = Dequantize(*q);
  ASSERT_TRUE(rec.ok());
  EXPECT_NEAR(rec->At(0, 2), 0.625f, 1e-6f);
  EXPECT_NEAR(rec->At(0, 0), 0.125f, 1e-6f);  // min maps to bucket 0
  EXPECT_NEAR(rec->At(0, 3), 0.875f, 1e-6f);  // max maps to top bucket
}

TEST(QuantizeTest, RejectsBadInput) {
  Matrix m(1, 2, {0.0f, 1.0f});
  EXPECT_EQ(Quantize(m, {3, BucketValueMode::kMidpoint}).status().code(),
            StatusCode::kInvalidArgument);
  Matrix nan_m(1, 1, {std::numeric_limits<float>::quiet_NaN()});
  EXPECT_EQ(
      Quantize(nan_m, {2, BucketValueMode::kMidpoint}).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(QuantizeTest, ConstantMatrixIsLossless) {
  Matrix m(3, 3);
  m.Fill(4.2f);
  auto q = Quantize(m, {1, BucketValueMode::kMidpoint});
  ASSERT_TRUE(q.ok());
  auto rec = Dequantize(*q);
  ASSERT_TRUE(rec.ok());
  // Range is empty; all values land in bucket 0 whose midpoint is ~min.
  for (size_t i = 0; i < rec->size(); ++i) {
    EXPECT_NEAR(rec->data()[i], 4.2f, 0.51f);
  }
}

TEST(QuantizeTest, WireRoundTrip) {
  const Matrix m = RandomMatrix(7, 13, 3, 2.0f);
  auto q = Quantize(m, {4, BucketValueMode::kMidpoint});
  ASSERT_TRUE(q.ok());
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  q->AppendTo(&w);
  EXPECT_EQ(buf.size(), q->WireBytes());

  ByteReader r(buf);
  QuantizedMatrix parsed;
  ASSERT_TRUE(QuantizedMatrix::ParseFrom(&r, &parsed).ok());
  EXPECT_EQ(parsed.rows, q->rows);
  EXPECT_EQ(parsed.cols, q->cols);
  EXPECT_EQ(parsed.bits, q->bits);
  EXPECT_EQ(parsed.bucket_values, q->bucket_values);
  EXPECT_EQ(parsed.packed_ids, q->packed_ids);
}

TEST(QuantizeTest, ParseRejectsCorruptPayload) {
  const Matrix m = RandomMatrix(2, 4, 4, 1.0f);
  auto q = Quantize(m, {2, BucketValueMode::kMidpoint});
  ASSERT_TRUE(q.ok());
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  q->AppendTo(&w);
  buf[8] = 33;  // corrupt the bits field
  ByteReader r(buf);
  QuantizedMatrix parsed;
  EXPECT_FALSE(QuantizedMatrix::ParseFrom(&r, &parsed).ok());
}

TEST(QuantizeTest, CompressionRatioMatchesTheory) {
  // Per Section IV-A: d*b bits -> d*B + 2^B*b. For a large matrix the
  // table amortizes and the ratio approaches 32/B.
  const Matrix m = RandomMatrix(500, 64, 5, 1.0f);
  for (int bits : {1, 2, 4, 8, 16}) {
    auto q = Quantize(m, {bits, BucketValueMode::kMidpoint});
    ASSERT_TRUE(q.ok());
    const double raw_bytes = m.size() * sizeof(float);
    const double ratio = raw_bytes / static_cast<double>(q->WireBytes());
    EXPECT_GT(ratio, 32.0 / bits * 0.8) << "bits=" << bits;
    EXPECT_LE(ratio, 32.0 / bits + 1.0) << "bits=" << bits;
  }
}

TEST(QuantizeTest, GatherQuantizedRowsKeepsTableAndValues) {
  const Matrix m = RandomMatrix(10, 6, 6, 1.0f);
  auto q = Quantize(m, {2, BucketValueMode::kMidpoint});
  ASSERT_TRUE(q.ok());
  auto full = Dequantize(*q);
  ASSERT_TRUE(full.ok());
  auto sub = GatherQuantizedRows(*q, {7, 0, 3});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->bucket_values, q->bucket_values);
  auto sub_dense = Dequantize(*sub);
  ASSERT_TRUE(sub_dense.ok());
  const std::vector<uint32_t> rows = {7, 0, 3};
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t c = 0; c < 6; ++c) {
      EXPECT_EQ(sub_dense->At(i, c), full->At(rows[i], c));
    }
  }
  EXPECT_EQ(GatherQuantizedRows(*q, {10}).status().code(),
            StatusCode::kOutOfRange);
}

TEST(QuantizeTest, DataMeanModeIsAtLeastAsTight) {
  const Matrix m = RandomMatrix(200, 16, 7, 3.0f);
  auto a_mid = MeasureAlpha(m, {2, BucketValueMode::kMidpoint});
  auto a_mean = MeasureAlpha(m, {2, BucketValueMode::kDataMean});
  ASSERT_TRUE(a_mid.ok());
  ASSERT_TRUE(a_mean.ok());
  EXPECT_LE(*a_mean, *a_mid + 1e-9);
}

/// Property sweep over bit widths: reconstruction error bounded by half a
/// bucket width per element, alpha monotone in B, Eq. 13 contraction.
class QuantizeBits : public ::testing::TestWithParam<int> {};

TEST_P(QuantizeBits, ErrorBoundedByHalfBucket) {
  const int bits = GetParam();
  const Matrix m = RandomMatrix(50, 20, 40 + bits, 2.0f);
  float mn = m.data()[0], mx = m.data()[0];
  for (size_t i = 0; i < m.size(); ++i) {
    mn = std::min(mn, m.data()[i]);
    mx = std::max(mx, m.data()[i]);
  }
  const float half_bucket = (mx - mn) / (1u << bits) / 2.0f;

  auto q = Quantize(m, {bits, BucketValueMode::kMidpoint});
  ASSERT_TRUE(q.ok());
  auto rec = Dequantize(*q);
  ASSERT_TRUE(rec.ok());
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(m.data()[i] - rec->data()[i]),
              half_bucket + 1e-5f);
  }
}

TEST_P(QuantizeBits, AlphaIsContractionAndShrinksWithBits) {
  const int bits = GetParam();
  const Matrix m = RandomMatrix(100, 32, 99, 1.5f);
  auto alpha = MeasureAlpha(m, {bits, BucketValueMode::kMidpoint});
  ASSERT_TRUE(alpha.ok());
  EXPECT_GE(*alpha, 0.0);
  if (bits >= 2) {
    // Eq. 13's contraction (alpha < 1) holds from 2 bits up. At B=1 the
    // two midpoint reconstruction levels sit far from zero-mean Gaussian
    // data and measured alpha exceeds 1 — Theorem 1's alpha < sqrt(2)/2
    // precondition genuinely fails there (documented in EXPERIMENTS.md).
    EXPECT_LT(*alpha, 1.0);
  } else {
    EXPECT_LT(*alpha, 2.0);
  }
  if (bits > 1) {
    auto coarser = MeasureAlpha(m, {bits / 2, BucketValueMode::kMidpoint});
    ASSERT_TRUE(coarser.ok());
    EXPECT_LT(*alpha, *coarser);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, QuantizeBits,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST_P(QuantizeBits, WireBytesMatchesAppendToExactly) {
  // The wire-size invariant: WireBytes() must equal the byte count
  // AppendTo actually produces, for every width and both bucket modes
  // (implicit (min,width) table vs explicit per-bucket table).
  const int bits = GetParam();
  const Matrix m = RandomMatrix(23, 17, 200 + bits, 1.3f);
  for (auto mode :
       {BucketValueMode::kMidpoint, BucketValueMode::kDataMean}) {
    auto q = Quantize(m, {bits, mode});
    ASSERT_TRUE(q.ok());
    std::vector<uint8_t> buf;
    ByteWriter w(&buf);
    q->AppendTo(&w);
    EXPECT_EQ(buf.size(), q->WireBytes())
        << "bits=" << bits << " mode=" << static_cast<int>(mode);
  }
}

TEST_P(QuantizeBits, GatherQuantizedRowsMatchesDenseGather) {
  // Property: slicing rows in the compressed domain then decoding must be
  // identical to decoding everything then gathering densely — including
  // empty, duplicate, and out-of-order row selections.
  const int bits = GetParam();
  const Matrix m = RandomMatrix(37, 11, 300 + bits, 2.5f);
  auto q = Quantize(m, {bits, BucketValueMode::kMidpoint});
  ASSERT_TRUE(q.ok());
  auto dense = Dequantize(*q);
  ASSERT_TRUE(dense.ok());

  const std::vector<std::vector<uint32_t>> selections = {
      {},                          // empty
      {36, 0, 12, 12, 3, 36, 5},   // duplicates + out of order
      {0, 1, 2, 3, 4, 5, 6, 7},    // aligned prefix
      {35},                        // single row near the end
  };
  for (const auto& rows : selections) {
    auto sub = GatherQuantizedRows(*q, rows);
    ASSERT_TRUE(sub.ok()) << "bits=" << bits;
    auto sub_dense = Dequantize(*sub);
    ASSERT_TRUE(sub_dense.ok());
    const Matrix want = tensor::GatherRows(*dense, rows);
    ASSERT_EQ(sub_dense->rows(), want.rows());
    ASSERT_EQ(sub_dense->cols(), want.cols());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(sub_dense->data()[i], want.data()[i])
          << "bits=" << bits << " flat=" << i;
    }
  }
}

TEST_P(QuantizeBits, QuantizeRowsMatchesGatherThenQuantize) {
  // The fused gather+quantize must be bit-identical to the unfused
  // two-pass form: same table, same packed words, same wire bytes.
  const int bits = GetParam();
  const Matrix m = RandomMatrix(41, 13, 400 + bits, 1.7f);
  const std::vector<uint32_t> rows = {40, 2, 2, 17, 0, 33, 9};
  for (auto mode :
       {BucketValueMode::kMidpoint, BucketValueMode::kDataMean}) {
    const QuantizerOptions opt{bits, mode};
    auto fused = QuantizeRows(m, rows, opt);
    ASSERT_TRUE(fused.ok()) << "bits=" << bits;
    auto unfused = Quantize(tensor::GatherRows(m, rows), opt);
    ASSERT_TRUE(unfused.ok());
    EXPECT_EQ(fused->rows, unfused->rows);
    EXPECT_EQ(fused->cols, unfused->cols);
    EXPECT_EQ(fused->bits, unfused->bits);
    EXPECT_EQ(fused->implicit_midpoints, unfused->implicit_midpoints);
    EXPECT_EQ(fused->bucket_values, unfused->bucket_values);
    EXPECT_EQ(fused->packed_ids, unfused->packed_ids);

    std::vector<uint8_t> a, b;
    ByteWriter wa(&a), wb(&b);
    fused->AppendTo(&wa);
    unfused->AppendTo(&wb);
    EXPECT_EQ(a, b) << "bits=" << bits;
  }
  // Bad row indices are rejected, matching GatherQuantizedRows.
  EXPECT_EQ(
      QuantizeRows(m, {41}, {bits, BucketValueMode::kMidpoint})
          .status()
          .code(),
      StatusCode::kOutOfRange);
}

TEST_P(QuantizeBits, DequantizeIntoMatchesDequantizeThenScatter) {
  // The fused unpack+scatter must land the same floats in the same rows
  // as the unfused decode-all-then-copy form, and leave untargeted rows
  // untouched.
  const int bits = GetParam();
  const Matrix m = RandomMatrix(9, 7, 500 + bits, 2.0f);
  auto q = Quantize(m, {bits, BucketValueMode::kMidpoint});
  ASSERT_TRUE(q.ok());
  auto dense = Dequantize(*q);
  ASSERT_TRUE(dense.ok());

  const std::vector<uint32_t> targets = {11, 0, 7, 3, 9, 1, 5, 13, 2};
  Matrix dst(14, 7);
  dst.Fill(-123.0f);
  ASSERT_TRUE(DequantizeInto(*q, targets, &dst).ok());
  for (size_t i = 0; i < targets.size(); ++i) {
    for (size_t c = 0; c < 7; ++c) {
      EXPECT_EQ(dst.At(targets[i], c), dense->At(i, c))
          << "bits=" << bits << " row=" << i;
    }
  }
  // Rows not named in `targets` keep their sentinel.
  for (uint32_t r : {4u, 6u, 8u, 10u, 12u}) {
    for (size_t c = 0; c < 7; ++c) {
      EXPECT_EQ(dst.At(r, c), -123.0f);
    }
  }
  // Shape and bounds violations are rejected.
  Matrix narrow(14, 6);
  EXPECT_FALSE(DequantizeInto(*q, targets, &narrow).ok());
  EXPECT_FALSE(DequantizeInto(*q, {0, 1}, &dst).ok());  // wrong row count
  std::vector<uint32_t> oob = targets;
  oob[4] = 14;  // out of range for dst
  EXPECT_FALSE(DequantizeInto(*q, oob, &dst).ok());
}

TEST_P(QuantizeBits, SubtractDequantizedMatchesDequantizeThenSub) {
  // ResEC's residual update, fused: m − C(m) computed in the unpack pass
  // must equal the two-step Dequantize + SubInPlace form bit for bit.
  const int bits = GetParam();
  for (auto mode :
       {BucketValueMode::kMidpoint, BucketValueMode::kDataMean}) {
    const Matrix m = RandomMatrix(37, 29, 700 + bits, 1.7f);
    auto q = Quantize(m, {bits, mode});
    ASSERT_TRUE(q.ok());
    auto dense = Dequantize(*q);
    ASSERT_TRUE(dense.ok());
    Matrix two_step = m;
    tensor::SubInPlace(&two_step, *dense);
    Matrix fused = m;
    ASSERT_TRUE(SubtractDequantized(*q, &fused).ok());
    ASSERT_EQ(std::memcmp(fused.data(), two_step.data(),
                          fused.size() * sizeof(float)),
              0)
        << "bits=" << bits;
  }
  const Matrix m = RandomMatrix(4, 5, 9, 1.0f);
  auto q = Quantize(m, {bits, BucketValueMode::kMidpoint});
  ASSERT_TRUE(q.ok());
  Matrix wrong(4, 6);
  EXPECT_EQ(SubtractDequantized(*q, &wrong).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ecg::compress
