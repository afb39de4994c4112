#include "compress/quantize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/bitpack.h"
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
  ASSERT_TRUE(
      QuantizedMatrix::ParseFrom(&r, {q->rows, q->cols}, &parsed).ok());
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
  EXPECT_FALSE(
      QuantizedMatrix::ParseFrom(&r, {q->rows, q->cols}, &parsed).ok());
}

TEST(QuantizeTest, CompressionRatioMatchesTheory) {
  // Per Section IV-A: d*b bits -> d*B + 2^B*b. For a large matrix the
  // table amortizes and the ratio approaches 32/B. That is the size of the
  // uncoded ids, and the wire never exceeds it by more than the one tag
  // byte. Uniform ids do not compress and sit at the theory; the skewed
  // ids of Gaussian data are entropy-coded below it.
  const Matrix gauss = RandomMatrix(500, 64, 5, 1.0f);
  Matrix uniform(500, 64);
  Rng rng(5);
  for (size_t i = 0; i < uniform.size(); ++i) {
    uniform.data()[i] = rng.NextFloat();
  }
  for (int bits : {1, 2, 4, 8, 16}) {
    for (const Matrix* m : {&gauss, static_cast<const Matrix*>(&uniform)}) {
      auto q = Quantize(*m, {bits, BucketValueMode::kMidpoint});
      ASSERT_TRUE(q.ok());
      const double raw_bytes = m->size() * sizeof(float);
      const size_t uncoded = 4 + 4 + 1 + 1 + 2 * sizeof(float) +
                             sizeof(uint64_t) +
                             q->packed_ids.size() * sizeof(uint32_t);
      const double ratio = raw_bytes / static_cast<double>(q->WireBytes());
      EXPECT_LE(q->WireBytes(), uncoded + 1) << "bits=" << bits;
      EXPECT_GT(ratio, 32.0 / bits * 0.8) << "bits=" << bits;
      if (m == &uniform) {
        EXPECT_EQ(q->WireBytes(), uncoded + 1) << "bits=" << bits;
        EXPECT_LE(ratio, 32.0 / bits + 1.0) << "bits=" << bits;
      }
    }
  }
}

/// Serializes q, and where its id payload starts (after the header and the
/// bucket table).
std::vector<uint8_t> WireOf(const QuantizedMatrix& q, size_t* ids_at) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  q.AppendTo(&w);
  *ids_at = 4 + 4 + 1 + 1 +
            (q.implicit_midpoints
                 ? 2 * sizeof(float)
                 : sizeof(uint64_t) + q.bucket_values.size() * sizeof(float));
  return buf;
}

TEST(QuantizeTest, CodedPayloadMutationsAreRejected) {
  // Golden payloads: three rANS-coded (a ReLU-like matrix at 4 bits, a
  // Gaussian one at 2, a constant one whose single byte value takes the
  // whole frequency table) and one that falls back to raw words (uniform
  // ids at 16 bits).
  Matrix relu = RandomMatrix(48, 40, 31, 1.0f);
  for (size_t i = 0; i < relu.size(); ++i) {
    relu.data()[i] = std::max(relu.data()[i] - 1.0f, 0.0f);
  }
  Matrix constant(60, 40);
  constant.Fill(0.5f);
  Matrix uniform(12, 10);
  Rng rng(32);
  for (size_t i = 0; i < uniform.size(); ++i) {
    uniform.data()[i] = rng.NextFloat();
  }
  struct Golden {
    const char* name;
    const Matrix* m;
    int bits;
    bool coded;
  };
  const Matrix gauss = RandomMatrix(120, 48, 33, 1.0f);
  const Golden goldens[] = {{"relu4", &relu, 4, true},
                            {"gauss2", &gauss, 2, true},
                            {"single", &constant, 2, true},
                            {"raw16", &uniform, 16, false}};
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.name);
    auto q = Quantize(*g.m, {g.bits, BucketValueMode::kMidpoint});
    ASSERT_TRUE(q.ok());
    size_t ids_at = 0;
    const std::vector<uint8_t> golden = WireOf(*q, &ids_at);
    ASSERT_EQ(golden[ids_at], g.coded ? 1 : 0);
    const WireShape limit{q->rows, q->cols};
    {
      ByteReader r(golden);
      QuantizedMatrix parsed;
      ASSERT_TRUE(QuantizedMatrix::ParseFrom(&r, limit, &parsed).ok());
      ASSERT_EQ(parsed.packed_ids, q->packed_ids);
      ASSERT_EQ(r.remaining(), 0u);
    }
    for (size_t len = 0; len < golden.size(); ++len) {
      ByteReader r(golden.data(), len);
      QuantizedMatrix parsed;
      EXPECT_FALSE(QuantizedMatrix::ParseFrom(&r, limit, &parsed).ok())
          << "truncated to " << len << " of " << golden.size() << " bytes";
    }
    // Raw words carry no redundancy: a flip there reaches exactly one id
    // bit. Everything else either fails or leaves the ids as they were
    // (a flip in the bucket table moves values, not ids).
    const size_t words_at = ids_at + 1 + sizeof(uint64_t);
    size_t accepted = 0;
    for (size_t bit = 0; bit < golden.size() * 8; ++bit) {
      std::vector<uint8_t> bytes = golden;
      bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      ByteReader r(bytes);
      QuantizedMatrix parsed;
      const Status st = QuantizedMatrix::ParseFrom(&r, limit, &parsed);
      if (!g.coded && bit / 8 >= words_at) {
        std::vector<uint32_t> want = q->packed_ids;
        const size_t at = bit - 8 * words_at;
        want[at / 32] ^= 1u << (at % 32);
        ASSERT_TRUE(st.ok()) << st;
        EXPECT_EQ(parsed.packed_ids, want) << "bit " << bit;
        continue;
      }
      if (!st.ok()) continue;
      ++accepted;
      EXPECT_EQ(parsed.packed_ids, q->packed_ids) << "bit " << bit;
    }
    EXPECT_LE(accepted, 8 * ids_at) << "only header and table flips pass";
    // Inflated shapes are refused by the limit, before the header sizes
    // anything (the single-symbol stream would decode to any length).
    for (const auto& [offset, value] :
         {std::pair<size_t, uint32_t>{0, q->rows + 1},
          {0, 0xffffffffu},
          {4, q->cols + 1},
          {4, 0xffffffffu}}) {
      std::vector<uint8_t> bytes = golden;
      std::memcpy(bytes.data() + offset, &value, sizeof(value));
      ByteReader r(bytes);
      QuantizedMatrix parsed;
      const Status st = QuantizedMatrix::ParseFrom(&r, limit, &parsed);
      EXPECT_FALSE(st.ok()) << "offset " << offset << " value " << value;
      EXPECT_TRUE(parsed.packed_ids.empty());
    }
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

/// Serialized bytes of a quantized matrix.
std::vector<uint8_t> WireOf(const QuantizedMatrix& q) {
  std::vector<uint8_t> out;
  ByteWriter w(&out);
  q.AppendTo(&w);
  return out;
}

/// ReLU'd Gaussian: about half the entries are exact zeros, the input the
/// FP send path quantizes.
Matrix ReluMatrix(size_t rows, size_t cols, uint64_t seed) {
  Matrix m = RandomMatrix(rows, cols, seed, 1.3f);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = std::max(m.data()[i], 0.0f);
  }
  return m;
}

TEST_P(QuantizeBits, RowGatheredEncodesMatchGatherThenQuantize) {
  // The block-gathered QuantizeRows and the one-pass GatherQuantizeRows
  // must reproduce Quantize(GatherRows) byte for byte on ReLU'd input:
  // many blocks with a ragged last one, 13-wide rows (13·bits is not a
  // multiple of 32 below 32 bits), repeated rows, one row, no rows.
  const int bits = GetParam();
  const Matrix m = ReluMatrix(1500, 13, 800 + bits);
  Rng rng(900 + bits);
  std::vector<uint32_t> many(1400);
  for (auto& r : many) r = static_cast<uint32_t>(rng.NextBelow(m.rows()));
  const std::vector<std::vector<uint32_t>> lists = {many, {777}, {}};
  for (auto mode : {BucketValueMode::kMidpoint, BucketValueMode::kDataMean}) {
    const QuantizerOptions opt{bits, mode};
    for (const auto& rows : lists) {
      SCOPED_TRACE(::testing::Message() << "bits=" << bits << " rows="
                                        << rows.size() << " mode="
                                        << static_cast<int>(mode));
      const Matrix gathered = tensor::GatherRows(m, rows);
      auto want = Quantize(gathered, opt);
      ASSERT_TRUE(want.ok());
      auto blocked = QuantizeRows(m, rows, opt);
      ASSERT_TRUE(blocked.ok());
      EXPECT_EQ(WireOf(*blocked), WireOf(*want));
      EXPECT_EQ(blocked->bucket_values, want->bucket_values);
      Matrix copy;
      auto one_pass = GatherQuantizeRows(m, rows, nullptr, opt, &copy);
      ASSERT_TRUE(one_pass.ok());
      EXPECT_EQ(WireOf(*one_pass), WireOf(*want));
      ASSERT_EQ(copy.rows(), gathered.rows());
      EXPECT_TRUE(gathered.size() == 0 ||
                  std::memcmp(copy.data(), gathered.data(),
                              gathered.size() * sizeof(float)) == 0);
    }
  }
  Matrix copy;
  EXPECT_EQ(GatherQuantizeRows(m, {1500}, nullptr, {bits}, &copy)
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

TEST_P(QuantizeBits, DequantizeIntoDecodesEveryRowLayoutAlike) {
  // Rows that fill whole packed words decode straight into their targets;
  // other widths go through word-aligned blocks. Both must land exactly
  // Dequantize's floats, across several blocks, in permuted target rows.
  const int bits = GetParam();
  for (size_t cols : {size_t{13}, size_t{16}, size_t{32}, size_t{64}}) {
    const Matrix m = RandomMatrix(700, cols, 1400 + bits + cols, 1.1f);
    auto q = Quantize(m, {bits, BucketValueMode::kDataMean});
    ASSERT_TRUE(q.ok());
    auto dense = Dequantize(*q);
    ASSERT_TRUE(dense.ok());
    std::vector<uint32_t> targets(m.rows());
    for (size_t i = 0; i < targets.size(); ++i) {
      targets[i] = static_cast<uint32_t>((i * 337 + 11) % 701);
    }
    Matrix dst(701, cols);
    dst.Fill(-5.0f);
    ASSERT_TRUE(DequantizeInto(*q, targets, &dst).ok());
    for (size_t i = 0; i < targets.size(); ++i) {
      ASSERT_EQ(std::memcmp(dst.Row(targets[i]), dense->Row(i),
                            cols * sizeof(float)),
                0)
          << "bits=" << bits << " cols=" << cols << " row=" << i;
    }
  }
}

TEST_P(QuantizeBits, GatherQuantizeRowsFoldsLikeTheResEcSequence) {
  // ResEC's encode, fused: gather + δ fold + bounds in one pass, then the
  // residual through the LUT decode. Packed words, wire bytes and the new
  // residual must equal the sequence it replaced: GatherRows, AddInPlace,
  // Quantize, then Dequantize + SubInPlace.
  const int bits = GetParam();
  const Matrix g = RandomMatrix(900, 13, 1000 + bits, 0.8f);
  Rng rng(1100 + bits);
  std::vector<uint32_t> rows(700);
  for (auto& r : rows) r = static_cast<uint32_t>(rng.NextBelow(g.rows()));
  Matrix delta = RandomMatrix(rows.size(), 13, 1200 + bits, 0.05f);
  // A fresh residual is all +0: -0 + +0 = +0 must survive the fold.
  for (size_t i = 0; i < 13 * 50; ++i) delta.data()[i] = 0.0f;
  for (auto mode : {BucketValueMode::kMidpoint, BucketValueMode::kDataMean}) {
    const QuantizerOptions opt{bits, mode};
    Matrix old_cpt = tensor::GatherRows(g, rows);
    tensor::AddInPlace(&old_cpt, delta);
    auto old_q = Quantize(old_cpt, opt);
    ASSERT_TRUE(old_q.ok());
    auto old_dec = Dequantize(*old_q);
    ASSERT_TRUE(old_dec.ok());
    Matrix old_residual = old_cpt;
    tensor::SubInPlace(&old_residual, *old_dec);

    // Out of place, and in place as ResEC folds its residual.
    Matrix folded;
    auto q = GatherQuantizeRows(g, rows, &delta, opt, &folded);
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(WireOf(*q), WireOf(*old_q)) << "bits=" << bits;
    EXPECT_EQ(std::memcmp(folded.data(), old_cpt.data(),
                          folded.size() * sizeof(float)),
              0);
    Matrix residual = delta;
    q = GatherQuantizeRows(g, rows, &residual, opt, &residual);
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(WireOf(*q), WireOf(*old_q)) << "bits=" << bits;
    ASSERT_TRUE(SubtractDequantized(*q, &residual).ok());
    ASSERT_EQ(residual.size(), old_residual.size());
    EXPECT_EQ(std::memcmp(residual.data(), old_residual.data(),
                          residual.size() * sizeof(float)),
              0)
        << "bits=" << bits;
  }
  Matrix wrong(3, 13), out;
  EXPECT_EQ(GatherQuantizeRows(g, rows, &wrong, {bits}, &out).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_P(QuantizeBits, SaturationRateMatchesTheIdCount) {
  // The packed-word count must equal the definition it replaced: unpack
  // every id and count those equal to 0 or to the top bucket. Covers
  // ragged final words, including stray bits past the last id.
  const int bits = GetParam();
  const uint32_t top = (1u << bits) - 1u;
  for (size_t count : {size_t{1}, size_t{5}, size_t{31}, size_t{32},
                       size_t{33}, size_t{63}, size_t{65}, size_t{1025},
                       size_t{4103}}) {
    Rng rng(1300 + count * 7 + bits);
    std::vector<uint32_t> ids(count);
    for (auto& id : ids) {
      // Extremes are over-represented so both counts are exercised.
      const uint64_t pick = rng.NextBelow(4);
      id = pick == 0 ? 0u
           : pick == 1
               ? top
               : static_cast<uint32_t>(rng.NextBelow(uint64_t{top} + 1));
    }
    QuantizedMatrix q;
    q.rows = 1;
    q.cols = static_cast<uint32_t>(count);
    q.bits = bits;
    q.bucket_values.assign(size_t{1} << bits, 0.0f);
    ASSERT_TRUE(PackBits(ids, bits, &q.packed_ids).ok());
    size_t want = 0;
    for (uint32_t id : ids) want += (id == 0 || id == top) ? 1 : 0;
    const double rate = static_cast<double>(want) / static_cast<double>(count);
    auto got = BucketSaturationRate(q);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, rate) << "bits=" << bits << " count=" << count;
    // Bits past the last id in its word are not ids.
    const size_t per_word = 32 / static_cast<size_t>(bits);
    if (count % per_word != 0) {
      q.packed_ids.back() |= ~0u << ((count % per_word) * bits);
      auto stray = BucketSaturationRate(q);
      ASSERT_TRUE(stray.ok());
      EXPECT_EQ(*stray, rate) << "bits=" << bits << " count=" << count;
    }
  }
  QuantizedMatrix empty;
  empty.bits = bits;
  empty.bucket_values.assign(size_t{1} << bits, 0.0f);
  auto none = BucketSaturationRate(empty);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0.0);
}

}  // namespace
}  // namespace ecg::compress
