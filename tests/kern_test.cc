// Property tests for the ecg::kern registry: every variant compiled into
// this binary (and supported by the host CPU) must produce byte-identical
// outputs to the scalar reference for the float kernels and the integer
// kernels alike — the contract stated in kernels.h. Also covers the
// ForceVariant override, the bitpack width-rejection surface across the
// full 1..32 range, the int8 packed-domain GEMM (bitwise determinism
// across variants, bounded error against the float path, end-to-end
// trainer convergence with int8_gemm on), and the float GEMM / SpMM
// kernels behind tensor/ops.h and tensor/csr.h: ragged shapes, row
// subsets, preloaded outputs, a golden copy of the loop they replaced, and
// the non-finite contract.

#include "common/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/bitpack.h"
#include "common/random.h"
#include "compress/int8_gemm.h"
#include "compress/quantize.h"
#include "core/trainer.h"
#include "graph/generator.h"
#include "tensor/csr.h"
#include "tensor/ops.h"

namespace ecg {
namespace {

using compress::BucketValueMode;
using compress::QuantizerOptions;
using tensor::Matrix;

/// Restores auto dispatch even when a test body fails mid-force.
class KernTest : public ::testing::Test {
 protected:
  void TearDown() override { kern::ForceVariant("auto"); }
};

std::vector<float> RandomFloats(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(count);
  for (auto& v : data) v = static_cast<float>(rng.NextGaussian() * 3.0);
  if (count > 2) {
    data[0] = -17.5f;       // force the extremes somewhere known
    data[count / 2] = 9.25f;
  }
  return data;
}

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

// The counts below cover empty inputs, single elements, word-boundary
// straddles for every supported width, and ragged final words.
const size_t kCounts[] = {0, 1, 5, 31, 32, 33, 63, 65, 1023, 1024, 1025,
                          4096 + 7};

TEST_F(KernTest, RegistryListsScalarLastAndResolvesActive) {
  const auto variants = kern::AvailableVariants();
  ASSERT_FALSE(variants.empty());
  EXPECT_STREQ(variants.back()->name, "scalar");
  bool found = false;
  for (const kern::Kernels* v : variants) {
    if (std::string(v->name) == kern::ActiveName()) found = true;
  }
  EXPECT_TRUE(found) << "active variant " << kern::ActiveName()
                     << " not in AvailableVariants()";
}

TEST_F(KernTest, ForceVariantRejectsUnknownAndRestoresAuto) {
  const std::string before = kern::ActiveName();
  EXPECT_FALSE(kern::ForceVariant("mips"));
  EXPECT_EQ(before, kern::ActiveName());  // failed force changes nothing
  ASSERT_TRUE(kern::ForceVariant("scalar"));
  EXPECT_STREQ(kern::ActiveName(), "scalar");
  ASSERT_TRUE(kern::ForceVariant("auto"));
  EXPECT_EQ(before, kern::ActiveName());
}

TEST_F(KernTest, PackFlatBitIdenticalAcrossVariants) {
  const auto variants = kern::AvailableVariants();
  const kern::Kernels* scalar = variants.back();
  for (int bits : {1, 2, 4, 8, 16}) {
    for (size_t count : kCounts) {
      const std::vector<float> data = RandomFloats(count, 100 + count);
      float mn = 0.0f, mx = 0.0f;
      if (count > 0) scalar->minmax(data.data(), count, &mn, &mx);
      const float width =
          mx > mn ? (mx - mn) / static_cast<float>(1u << bits) : 1.0f;
      const size_t words = PackedWordCount(count, bits);
      std::vector<uint32_t> ref(words, 0u);
      scalar->pack_flat(bits, data.data(), count, 0, words, mn, 1.0f / width,
                        ref.data());
      for (const kern::Kernels* v : variants) {
        std::vector<uint32_t> got(words, 0u);
        v->pack_flat(bits, data.data(), count, 0, words, mn, 1.0f / width,
                     got.data());
        EXPECT_EQ(ref, got) << v->name << " bits=" << bits
                            << " count=" << count;
      }
    }
  }
}

TEST_F(KernTest, UnpackFlatBitIdenticalAcrossVariants) {
  const auto variants = kern::AvailableVariants();
  const kern::Kernels* scalar = variants.back();
  for (int bits : {1, 2, 4, 8, 16}) {
    std::vector<float> table(size_t{1} << bits);
    Rng rng(7);
    for (auto& t : table) t = static_cast<float>(rng.NextGaussian());
    for (size_t count : kCounts) {
      const std::vector<float> data = RandomFloats(count, 200 + count);
      const size_t words = PackedWordCount(count, bits);
      std::vector<uint32_t> packed(words, 0u);
      scalar->pack_flat(bits, data.data(), count, 0, words, -9.0f, 0.7f,
                        packed.data());
      std::vector<float> ref(count, 0.0f);
      scalar->unpack_flat(bits, packed.data(), count, 0, words, table.data(),
                          ref.data());
      for (const kern::Kernels* v : variants) {
        std::vector<float> got(count, 0.0f);
        v->unpack_flat(bits, packed.data(), count, 0, words, table.data(),
                       got.data());
        // memcmp needs non-null pointers even at length 0.
        EXPECT_TRUE(count == 0 || std::memcmp(ref.data(), got.data(),
                                              count * sizeof(float)) == 0)
            << v->name << " bits=" << bits << " count=" << count;
      }
    }
  }
}

TEST_F(KernTest, MinMaxBitIdenticalAcrossVariants) {
  const auto variants = kern::AvailableVariants();
  const kern::Kernels* scalar = variants.back();
  for (size_t count : kCounts) {
    if (count == 0) continue;  // minmax requires count > 0
    const std::vector<float> data = RandomFloats(count, 300 + count);
    float ref_mn = 0.0f, ref_mx = 0.0f;
    scalar->minmax(data.data(), count, &ref_mn, &ref_mx);
    for (const kern::Kernels* v : variants) {
      float mn = 0.0f, mx = 0.0f;
      v->minmax(data.data(), count, &mn, &mx);
      EXPECT_EQ(0, std::memcmp(&ref_mn, &mn, sizeof(float))) << v->name;
      EXPECT_EQ(0, std::memcmp(&ref_mx, &mx, sizeof(float))) << v->name;
    }
  }
}

// Exercises the public bitpack API across every bit width 1..32 with each
// variant forced via the override: unsupported widths must be rejected
// before any kernel runs; supported widths must round-trip and produce
// packed words byte-identical to the scalar variant's.
TEST_F(KernTest, BitpackAllWidthsAcrossForcedVariants) {
  for (int bits = 1; bits <= 32; ++bits) {
    const bool supported = IsSupportedBitWidth(bits);
    for (size_t count : kCounts) {
      Rng rng(400 + static_cast<uint64_t>(bits) * 37 + count);
      std::vector<uint32_t> values(count);
      const uint64_t top =
          bits >= 31 ? 0x7FFFFFFFu : ((uint64_t{1} << bits) - 1);
      for (auto& v : values) {
        v = static_cast<uint32_t>(rng.NextBelow(top + 1));
      }
      std::vector<uint32_t> ref_packed;
      if (supported) {
        ASSERT_TRUE(kern::ForceVariant("scalar"));
        ASSERT_TRUE(PackBits(values, bits, &ref_packed).ok());
      }
      for (const kern::Kernels* v : kern::AvailableVariants()) {
        ASSERT_TRUE(kern::ForceVariant(v->name));
        std::vector<uint32_t> packed;
        const Status st = PackBits(values, bits, &packed);
        if (!supported) {
          EXPECT_FALSE(st.ok()) << v->name << " bits=" << bits;
          continue;
        }
        ASSERT_TRUE(st.ok()) << v->name << " bits=" << bits;
        EXPECT_EQ(ref_packed, packed)
            << v->name << " bits=" << bits << " count=" << count;
        std::vector<uint32_t> back;
        ASSERT_TRUE(UnpackBits(packed, count, bits, &back).ok());
        EXPECT_EQ(values, back) << v->name << " bits=" << bits;
      }
      kern::ForceVariant("auto");
    }
  }
}

// Full public-API integration: Quantize/Dequantize under forced scalar is
// byte-identical to auto dispatch (packed words AND reconstructed floats).
TEST_F(KernTest, QuantizeForcedScalarMatchesAutoBitwise) {
  const Matrix m = RandomMatrix(129, 33, 11);  // ragged everything
  for (int bits : {1, 2, 4, 8, 16}) {
    QuantizerOptions opts{bits, BucketValueMode::kMidpoint};
    ASSERT_TRUE(kern::ForceVariant("auto"));
    auto q_auto = compress::Quantize(m, opts);
    ASSERT_TRUE(q_auto.ok());
    auto d_auto = compress::Dequantize(*q_auto);
    ASSERT_TRUE(d_auto.ok());
    ASSERT_TRUE(kern::ForceVariant("scalar"));
    auto q_scalar = compress::Quantize(m, opts);
    ASSERT_TRUE(q_scalar.ok());
    auto d_scalar = compress::Dequantize(*q_scalar);
    ASSERT_TRUE(d_scalar.ok());
    kern::ForceVariant("auto");
    EXPECT_EQ(q_auto->packed_ids, q_scalar->packed_ids) << "bits=" << bits;
    ASSERT_EQ(d_auto->size(), d_scalar->size());
    EXPECT_EQ(0, std::memcmp(d_auto->data(), d_scalar->data(),
                             d_auto->size() * sizeof(float)))
        << "bits=" << bits;
  }
}

TEST_F(KernTest, GemmS8RowBitIdenticalAcrossVariants) {
  const auto variants = kern::AvailableVariants();
  const kern::Kernels* scalar = variants.back();
  for (size_t k : {size_t{1}, size_t{31}, size_t{64}, size_t{65},
                   size_t{128}, size_t{200}}) {
    const size_t n = 7;
    const size_t stride = (k + 63) & ~size_t{63};
    Rng rng(500 + k);
    std::vector<int8_t> a(k);
    for (auto& v : a) {
      v = static_cast<int8_t>(static_cast<int>(rng.NextBelow(256)) - 128);
    }
    std::vector<int8_t> wt(n * stride, 0);
    for (size_t j = 0; j < n; ++j) {
      for (size_t kk = 0; kk < k; ++kk) {
        wt[j * stride + kk] =
            static_cast<int8_t>(static_cast<int>(rng.NextBelow(255)) - 127);
      }
    }
    std::vector<int32_t> ref(n, 123);  // accumulate on a nonzero base
    scalar->gemm_s8_row(a.data(), wt.data(), k, n, stride, ref.data());
    for (const kern::Kernels* v : variants) {
      std::vector<int32_t> got(n, 123);
      v->gemm_s8_row(a.data(), wt.data(), k, n, stride, got.data());
      EXPECT_EQ(ref, got) << v->name << " k=" << k;
    }
  }
}

TEST_F(KernTest, UnpackIdsS8CentersAndMatchesAcrossVariants) {
  const auto variants = kern::AvailableVariants();
  for (int bits : {1, 2, 4, 8}) {
    for (size_t count : kCounts) {
      Rng rng(600 + static_cast<uint64_t>(bits) + count);
      std::vector<uint32_t> ids(count);
      for (auto& v : ids) {
        v = static_cast<uint32_t>(rng.NextBelow(uint64_t{1} << bits));
      }
      std::vector<uint32_t> packed;
      ASSERT_TRUE(PackBits(ids, bits, &packed).ok());
      std::vector<int8_t> ref(count);
      for (size_t i = 0; i < count; ++i) {
        ref[i] = static_cast<int8_t>(static_cast<int>(ids[i]) - 128);
      }
      for (const kern::Kernels* v : variants) {
        std::vector<int8_t> got(count, 0);
        v->unpack_ids_s8(bits, packed.data(), count, got.data());
        EXPECT_EQ(ref, got) << v->name << " bits=" << bits
                            << " count=" << count;
      }
    }
  }
}

TEST_F(KernTest, Int8GemmSupportedPredicate) {
  compress::QuantizedMatrix q;
  q.implicit_midpoints = true;
  q.bits = 8;
  q.cols = 128;  // 128 * 8 = 1024 bits, word-aligned
  EXPECT_TRUE(compress::Int8GemmSupported(q));
  q.bits = 16;
  EXPECT_FALSE(compress::Int8GemmSupported(q));  // > 8 bits
  q.bits = 8;
  q.cols = 129;
  EXPECT_FALSE(compress::Int8GemmSupported(q));  // row not word-aligned
  q.cols = 128;
  q.implicit_midpoints = false;
  EXPECT_FALSE(compress::Int8GemmSupported(q));  // explicit table
  q.implicit_midpoints = true;
  q.bits = 4;
  q.cols = 128;  // 4-bit rows of 128 are word-aligned too
  EXPECT_TRUE(compress::Int8GemmSupported(q));
}

// The fused packed-domain GEMM against dequantize-then-float-GEMM: the
// activation side of the decomposition is exact, so the only error is the
// symmetric weight quantization — bounded per output element by
// width_w/2 * sum_k |dequant_k| with width_w = max|w|/127.
TEST_F(KernTest, DequantGemmRowsMatchesFloatReferenceWithinWeightError) {
  const size_t rows_n = 64, k = 32, n = 16;
  const Matrix a = RandomMatrix(rows_n, k, 21);
  const Matrix w = RandomMatrix(k, n, 22);
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < rows_n; r += 2) rows.push_back(r);  // subset

  auto q = compress::QuantizeRows(
      a, rows, QuantizerOptions{8, BucketValueMode::kMidpoint});
  ASSERT_TRUE(q.ok());
  const compress::Int8Panel panel = compress::PackWeightPanel(w);

  Matrix ref(rows_n, n), fused(rows_n, n);
  Matrix scratch(static_cast<uint32_t>(rows.size()), k);
  {
    // Reference: decode the same payload, then float GemmRows over the
    // gathered copy (row i of scratch is target row rows[i]).
    std::vector<uint32_t> ident(rows.size());
    for (uint32_t i = 0; i < ident.size(); ++i) ident[i] = i;
    ASSERT_TRUE(compress::DequantizeInto(*q, ident, &scratch).ok());
    Matrix full(rows_n, k);
    for (size_t i = 0; i < rows.size(); ++i) {
      std::memcpy(full.Row(rows[i]), scratch.Row(i), k * sizeof(float));
    }
    tensor::GemmRows(full, w, rows, &ref);
  }
  ASSERT_TRUE(compress::DequantGemmRows(*q, panel, rows, &fused).ok());

  float max_w = 0.0f, max_v = 0.0f;
  for (size_t i = 0; i < w.size(); ++i) {
    max_w = std::max(max_w, std::fabs(w.data()[i]));
  }
  for (size_t i = 0; i < scratch.size(); ++i) {
    max_v = std::max(max_v, std::fabs(scratch.data()[i]));
  }
  const float bound =
      (max_w / 127.0f) * 0.5f * max_v * static_cast<float>(k) + 1e-3f;
  for (const uint32_t r : rows) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(ref.Row(r)[j], fused.Row(r)[j], bound)
          << "row " << r << " col " << j;
    }
  }
  // Untouched rows stay zero.
  EXPECT_FLOAT_EQ(fused.Row(1)[0], 0.0f);
}

// The fused path is dispatched, so its int8 dot products must also be
// identical across variants end to end.
TEST_F(KernTest, DequantGemmRowsBitIdenticalAcrossVariants) {
  const Matrix a = RandomMatrix(48, 16, 31);
  const Matrix w = RandomMatrix(16, 8, 32);
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < 48; ++r) rows.push_back(r);
  auto q = compress::QuantizeRows(
      a, rows, QuantizerOptions{8, BucketValueMode::kMidpoint});
  ASSERT_TRUE(q.ok());
  const compress::Int8Panel panel = compress::PackWeightPanel(w);

  ASSERT_TRUE(kern::ForceVariant("scalar"));
  Matrix ref(48, 8);
  ASSERT_TRUE(compress::DequantGemmRows(*q, panel, rows, &ref).ok());
  for (const kern::Kernels* v : kern::AvailableVariants()) {
    ASSERT_TRUE(kern::ForceVariant(v->name));
    Matrix got(48, 8);
    ASSERT_TRUE(compress::DequantGemmRows(*q, panel, rows, &got).ok());
    EXPECT_EQ(0, std::memcmp(ref.data(), got.data(),
                             ref.size() * sizeof(float)))
        << v->name;
  }
}

// ---------------------------------------------------------------------------
// Float GEMM / SpMM kernels.
// ---------------------------------------------------------------------------

// Output widths around every tile and vector boundary of every variant
// (NEON 4, AVX2 8, AVX-512 16 lanes; 16-column GEMM tiles; 64-column
// SpMM chunks).
const size_t kWidths[] = {1, 7, 8, 15, 16, 17, 41, 64};

/// Same-length float buffers are equal under memcmp.
bool BitsEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// The non-finite contract: NaN in the same elements, every other element
/// bit-identical (NaN sign and payload are unspecified).
bool BitsEqualUpToNanBits(const std::vector<float>& a,
                          const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) != std::isnan(b[i])) return false;
    if (!std::isnan(a[i]) &&
        std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// Every third row of [0, rows) plus the last, in descending order, so a
/// subset is neither a prefix nor sorted.
std::vector<uint32_t> RowSubset(size_t rows) {
  std::vector<uint32_t> ids;
  for (size_t r = rows; r-- > 0;) {
    if (r % 3 == 0 || r + 1 == rows) ids.push_back(static_cast<uint32_t>(r));
  }
  return ids;
}

// kern.gemm on every variant against scalar, for A addressed by rows
// (k-stride 1, Gemm) and by columns (row stride 1, GemmTransposeA), full
// ranges and row subsets, onto a preloaded C.
TEST_F(KernTest, GemmBitIdenticalAcrossVariants) {
  const auto variants = kern::AvailableVariants();
  const kern::Kernels* scalar = variants.back();
  for (size_t m : {size_t{0}, size_t{1}, size_t{5}, size_t{13}}) {
    for (size_t k : {size_t{0}, size_t{1}, size_t{9}, size_t{300}}) {
      for (size_t n : kWidths) {
        const uint64_t seed = 1000 + m * 7919 + k * 131 + n;
        const std::vector<float> a = RandomFloats(m * k, seed);
        const std::vector<float> b = RandomFloats(k * n, seed + 1);
        const std::vector<float> c0 = RandomFloats(m * n, seed + 2);
        const std::vector<uint32_t> subset = RowSubset(m);
        for (bool transposed : {false, true}) {
          // Transposed: A is stored k x m and read down its columns.
          const size_t row_stride = transposed ? 1 : k;
          const size_t k_stride = transposed ? m : 1;
          for (bool use_subset : {false, true}) {
            const uint32_t* ids = use_subset ? subset.data() : nullptr;
            const size_t count = use_subset ? subset.size() : m;
            std::vector<float> ref = c0;
            scalar->gemm(a.data(), row_stride, k_stride, b.data(), n,
                         ref.data(), n, ids, count, n, k);
            for (const kern::Kernels* v : variants) {
              std::vector<float> got = c0;
              v->gemm(a.data(), row_stride, k_stride, b.data(), n,
                      got.data(), n, ids, count, n, k);
              EXPECT_TRUE(BitsEqual(ref, got))
                  << v->name << " m=" << m << " k=" << k << " n=" << n
                  << " transposed=" << transposed
                  << " subset=" << use_subset;
            }
          }
        }
      }
    }
  }
}

// kern.spmm_rows on every variant against scalar: one and two stacked
// sources, full ranges and row subsets, empty rows, preloaded output.
TEST_F(KernTest, SpmmRowsBitIdenticalAcrossVariants) {
  const auto variants = kern::AvailableVariants();
  const kern::Kernels* scalar = variants.back();
  for (size_t rows : {size_t{0}, size_t{1}, size_t{11}}) {
    const size_t cols = 19;
    Rng rng(1100 + rows);
    std::vector<std::tuple<uint32_t, uint32_t, float>> trips;
    for (uint32_t r = 0; r < rows; ++r) {
      if (r % 4 == 2) continue;  // an empty row
      const uint64_t deg = 1 + rng.NextBelow(7);
      for (uint64_t e = 0; e < deg; ++e) {
        trips.emplace_back(r, static_cast<uint32_t>(rng.NextBelow(cols)),
                           static_cast<float>(rng.NextGaussian()));
      }
    }
    auto adj = tensor::CsrMatrix::FromTriplets(rows, cols, trips);
    ASSERT_TRUE(adj.ok());
    const std::vector<uint32_t> subset = RowSubset(rows);
    for (size_t n : kWidths) {
      const std::vector<float> x = RandomFloats(cols * n, 1200 + n);
      const std::vector<float> y0 = RandomFloats(rows * n, 1300 + n);
      for (size_t top_rows : {cols, size_t{12}}) {  // one source, stacked
        const float* bottom = x.data() + top_rows * n;
        for (bool use_subset : {false, true}) {
          const uint32_t* ids = use_subset ? subset.data() : nullptr;
          const size_t count = use_subset ? subset.size() : rows;
          std::vector<float> ref = y0;
          scalar->spmm_rows(adj->row_ptr().data(), adj->col_idx().data(),
                            adj->values().data(), x.data(), top_rows, bottom,
                            n, ids, count, ref.data());
          for (const kern::Kernels* v : variants) {
            std::vector<float> got = y0;
            v->spmm_rows(adj->row_ptr().data(), adj->col_idx().data(),
                         adj->values().data(), x.data(), top_rows, bottom, n,
                         ids, count, got.data());
            EXPECT_TRUE(BitsEqual(ref, got))
                << v->name << " rows=" << rows << " n=" << n
                << " top_rows=" << top_rows << " subset=" << use_subset;
          }
        }
      }
    }
  }
}

// Golden: the loops the registry kernels replaced — Gemm's ikj loop and
// GemmTransposeA's outer-product loop, both skipping av == 0 — copied
// verbatim. For finite operands, dropping the skip is bit-neutral (an
// accumulator starting at +0 never becomes -0), so the public Gemm and
// GemmTransposeA must memcmp-equal them under every variant, on dense and
// on ReLU-sparse A.
Matrix SkipLoopGemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.Row(i);
    float* crow = c.Row(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      const float av = arow[k];
      if (av == 0.0f) continue;
      const float* brow = b.Row(k);
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Matrix SkipLoopGemmTransposeA(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.Row(r);
    const float* brow = b.Row(r);
    for (size_t i = 0; i < a.cols(); ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c.Row(i);
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

bool SameMatrixBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST_F(KernTest, GemmMatchesTheZeroSkipLoopItReplaced) {
  for (bool relu : {false, true}) {
    Matrix a = RandomMatrix(37, 150, 1400);
    if (relu) {
      for (size_t i = 0; i < a.size(); ++i) {
        a.data()[i] = std::max(a.data()[i], 0.0f);
      }
    }
    const Matrix b = RandomMatrix(150, 41, 1401);
    const Matrix g = RandomMatrix(37, 23, 1402);
    const Matrix want = SkipLoopGemm(a, b);
    const Matrix want_t = SkipLoopGemmTransposeA(a, g);
    for (const kern::Kernels* v : kern::AvailableVariants()) {
      ASSERT_TRUE(kern::ForceVariant(v->name));
      Matrix got, got_t;
      tensor::Gemm(a, b, &got);
      tensor::GemmTransposeA(a, g, &got_t);
      EXPECT_TRUE(SameMatrixBits(want, got)) << v->name << " relu=" << relu;
      EXPECT_TRUE(SameMatrixBits(want_t, got_t))
          << v->name << " relu=" << relu;
    }
  }
}

// The non-finite contract (kernels.h): no zero skip, so 0 * inf and
// 0 * NaN are NaN, a zero A row adds +0 terms to a preloaded -0 (giving
// +0), and every variant agrees on which elements are NaN and on the bits
// of all others.
TEST_F(KernTest, GemmNonFiniteContractSameInEveryVariant) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const size_t m = 6, k = 5, n = 17;
  std::vector<float> a = RandomFloats(m * k, 1500);
  for (size_t kk = 0; kk < k; ++kk) a[0 * k + kk] = 0.0f;  // row 0: zeros
  a[1 * k + 2] = 0.0f;  // row 1 meets B's inf / NaN row with a zero
  a[2 * k + 3] = -0.0f;
  std::vector<float> b = RandomFloats(k * n, 1501);
  for (size_t j = 0; j < n; ++j) b[0 * n + j] = std::fabs(b[0 * n + j]);
  b[2 * n + 0] = inf;
  b[2 * n + 1] = -inf;
  b[2 * n + 2] = nan;
  b[3 * n + 4] = -0.0f;
  b[3 * n + 5] = 0.0f;
  b[4 * n + 6] = inf;
  std::vector<float> c0(m * n, 0.0f);
  for (size_t j = 0; j < n; ++j) c0[0 * n + j] = -0.0f;

  const auto variants = kern::AvailableVariants();
  std::vector<float> ref = c0;
  variants.back()->gemm(a.data(), k, 1, b.data(), n, ref.data(), n, nullptr,
                        m, n, k);
  // Row 0 of A is all zeros and B's row 0 is non-negative: every term is
  // +0, which turns each preloaded -0 into +0 (a zero skip would keep -0).
  for (size_t j = 0; j < n; ++j) {
    if (std::isnan(ref[j]) || std::isinf(ref[j])) continue;  // inf/NaN col
    EXPECT_FALSE(std::signbit(ref[j])) << "col " << j;
  }
  // 0 * inf and 0 * NaN are NaN: row 1 meets B(2, 0..2) with a zero.
  for (size_t j = 0; j < 3; ++j) EXPECT_TRUE(std::isnan(ref[1 * n + j]));
  for (const kern::Kernels* v : variants) {
    std::vector<float> got = c0;
    v->gemm(a.data(), k, 1, b.data(), n, got.data(), n, nullptr, m, n, k);
    EXPECT_TRUE(BitsEqualUpToNanBits(ref, got)) << v->name;
    // A read down its columns gives the same answer as A by rows.
    std::vector<float> at(k * m);
    for (size_t i = 0; i < m; ++i) {
      for (size_t kk = 0; kk < k; ++kk) at[kk * m + i] = a[i * k + kk];
    }
    std::vector<float> got_t = c0;
    v->gemm(at.data(), 1, m, b.data(), n, got_t.data(), n, nullptr, m, n, k);
    EXPECT_TRUE(BitsEqualUpToNanBits(ref, got_t)) << v->name;
  }
}

// The public entry points over empty shapes under every variant: zero
// rows, zero inner dimension (the product is all zeros), zero width.
TEST_F(KernTest, TensorKernelsHandleEmptyShapes) {
  for (const kern::Kernels* v : kern::AvailableVariants()) {
    ASSERT_TRUE(kern::ForceVariant(v->name));
    Matrix c;
    tensor::Gemm(Matrix(0, 4), Matrix(4, 3), &c);
    EXPECT_EQ(c.rows(), 0u);
    tensor::Gemm(Matrix(3, 0), Matrix(0, 5), &c);
    EXPECT_TRUE(SameMatrixBits(c, Matrix(3, 5))) << v->name;
    tensor::GemmTransposeA(Matrix(0, 40), Matrix(0, 6), &c);
    EXPECT_TRUE(SameMatrixBits(c, Matrix(40, 6))) << v->name;
    tensor::GemmTransposeB(Matrix(2, 0), Matrix(3, 0), &c);
    EXPECT_TRUE(SameMatrixBits(c, Matrix(2, 3))) << v->name;
    tensor::Gemm(Matrix(3, 4), Matrix(4, 0), &c);
    EXPECT_EQ(c.size(), 0u);
    auto adj = tensor::CsrMatrix::FromTriplets(3, 2, {{0, 1, 2.0f}});
    ASSERT_TRUE(adj.ok());
    Matrix y;
    adj->SpMM(Matrix(2, 0), &y);
    EXPECT_EQ(y.rows(), 3u);
    EXPECT_EQ(y.size(), 0u);
  }
}

// End-to-end gate: training with the int8 boundary transform converges to
// within 0.1 test accuracy of the float path on a small SBM replica.
TEST_F(KernTest, TrainerWithInt8GemmConvergesNearFloatPath) {
  graph::SbmConfig cfg;
  cfg.num_vertices = 300;
  cfg.num_classes = 3;
  cfg.avg_degree = 6.0;
  cfg.feature_dim = 8;
  cfg.seed = 9;
  graph::Graph g = *graph::GenerateSbm(cfg);
  ASSERT_TRUE(graph::AssignSplits(&g, 150, 75, 75, 3).ok());

  core::TrainOptions opt;
  opt.model.num_layers = 2;
  opt.model.hidden_dim = 16;
  opt.fp_mode = core::FpMode::kExact;
  opt.bp_mode = core::BpMode::kExact;
  opt.epochs = 30;
  opt.overlap = true;  // int8 runs under either schedule setting

  opt.int8_gemm = false;
  auto base = core::TrainDistributed(g, 3, opt);
  ASSERT_TRUE(base.ok()) << base.status();
  opt.int8_gemm = true;
  auto int8 = core::TrainDistributed(g, 3, opt);
  ASSERT_TRUE(int8.ok()) << int8.status();

  EXPECT_NEAR(int8->test_acc_at_best_val, base->test_acc_at_best_val, 0.1)
      << "int8 " << int8->test_acc_at_best_val << " vs float "
      << base->test_acc_at_best_val;
}

}  // namespace
}  // namespace ecg
