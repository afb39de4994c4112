// Property tests for the ecg::kern registry: every variant compiled into
// this binary (and supported by the host CPU) must produce byte-identical
// outputs to the scalar reference for the float kernels and the integer
// kernels alike — the contract stated in kernels.h. Also covers the
// ForceVariant override, the bitpack width-rejection surface across the
// full 1..32 range, the halo codec kernels (row gather, LUT decode, the
// ReqEC selector), and the float GEMM / SpMM kernels behind tensor/ops.h
// and tensor/csr.h: ragged shapes, row subsets, preloaded outputs, a
// golden copy of the loop they replaced, and the non-finite contract.

#include "common/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/bitpack.h"
#include "common/random.h"
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
      std::vector<float> storage;
      const float* lut = kern::BuildUnpackLut(bits, table.data(), &storage);
      std::vector<float> ref(count, 0.0f);
      scalar->unpack_flat(bits, packed.data(), count, 0, words, lut,
                          /*subtract=*/false, ref.data());
      for (const kern::Kernels* v : variants) {
        std::vector<float> got(count, 0.0f);
        v->unpack_flat(bits, packed.data(), count, 0, words, lut,
                       /*subtract=*/false, got.data());
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


// ---------------------------------------------------------------------------
// Halo codec kernels: row gather, LUT decode, ReqEC selector.
// ---------------------------------------------------------------------------

/// Row counts and widths around the selector's 4-row blocks, its 64-column
/// error tiles and the gather's 8 bound lanes.
const size_t kCodecRows[] = {0, 1, 3, 4, 5, 9, 33};
const size_t kCodecCols[] = {1, 7, 8, 13, 64, 65, 130};

/// Same-length float buffers are equal under memcmp.
bool BitsEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool FloatBitsEqual(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

// kern.nonzero_pack / nonzero_unpack on every variant against scalar, at
// bit offsets on and off a byte boundary and lengths around the 8- and
// 16-float blocks: the same map bytes (bits outside the run untouched),
// the same kept bits in order, and the unpack restoring every input bit,
// -0.0, NaN payloads and denormals included. Buffers are exactly sized,
// so ASan sees any read or write past them.
TEST_F(KernTest, NonzeroPackRoundTripsBitExactAcrossVariants) {
  const auto variants = kern::AvailableVariants();
  const kern::Kernels* scalar = variants.back();
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{15},
                   size_t{16}, size_t{17}, size_t{41}, size_t{64},
                   size_t{100}}) {
    for (uint64_t bit0 : {uint64_t{0}, uint64_t{3}, uint64_t{8},
                          uint64_t{13}}) {
      std::vector<float> src = RandomFloats(n, 1400 + n + bit0);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t u = static_cast<uint32_t>(i);
        if (i % 3 == 0) src[i] = 0.0f;
        if (i % 7 == 1) src[i] = -0.0f;
        if (i % 11 == 2) src[i] = std::bit_cast<float>(0x7fc00001u + u);
        if (i % 13 == 3) src[i] = std::bit_cast<float>(0x5u + u);  // denormal
      }
      if (n == 41) std::fill(src.begin(), src.begin() + 20, 0.0f);
      const size_t map_bytes = (bit0 + n + 7) / 8 + 1;
      // Bits outside [bit0, bit0 + n) start set and must stay so.
      std::vector<uint8_t> map0(map_bytes, 0xff);
      for (size_t i = 0; i < n; ++i) {
        map0[(bit0 + i) / 8] &= static_cast<uint8_t>(~(1u << ((bit0 + i) % 8)));
      }
      std::vector<uint8_t> ref_map = map0;
      std::vector<uint8_t> ref_out(n * sizeof(float));
      const size_t kept =
          scalar->nonzero_pack(src.data(), n, bit0, ref_map.data(),
                               ref_out.data());
      size_t want = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint32_t bits = std::bit_cast<uint32_t>(src[i]);
        const bool set = (ref_map[(bit0 + i) / 8] >> ((bit0 + i) % 8)) & 1u;
        ASSERT_EQ(set, bits != 0) << "n=" << n << " bit0=" << bit0;
        if (bits != 0) {
          ASSERT_EQ(std::memcmp(ref_out.data() + want * sizeof(float), &bits,
                                sizeof(bits)),
                    0);
          ++want;
        }
      }
      ASSERT_EQ(kept, want);
      for (const kern::Kernels* v : variants) {
        SCOPED_TRACE(testing::Message()
                     << v->name << " n=" << n << " bit0=" << bit0);
        std::vector<uint8_t> map = map0;
        std::vector<uint8_t> out(n * sizeof(float));
        EXPECT_EQ(v->nonzero_pack(src.data(), n, bit0, map.data(), out.data()),
                  kept);
        EXPECT_EQ(map, ref_map);
        out.resize(kept * sizeof(float));
        const std::vector<uint8_t> values(ref_out.begin(),
                                          ref_out.begin() + kept * 4);
        EXPECT_EQ(out, values);
        std::vector<float> back(n, 5.0f);
        EXPECT_EQ(v->nonzero_unpack(ref_map.data(), bit0, n, values.data(),
                                    back.data()),
                  kept);
        EXPECT_TRUE(BitsEqual(src, back));
      }
    }
  }
}

/// A valid rANS table for `in`: each present byte at least 1, the sum
/// 1 << kRansScaleBits, the rounding left over on the most frequent byte.
std::vector<uint32_t> RansFreqs(const std::vector<uint8_t>& in) {
  constexpr uint32_t kM = 1u << kern::kRansScaleBits;
  std::vector<uint32_t> hist(256, 0), freq(256, 0);
  for (uint8_t b : in) ++hist[b];
  if (in.empty()) {
    freq[0] = kM;
    return freq;
  }
  uint32_t sum = 0;
  for (size_t s = 0; s < 256; ++s) {
    if (hist[s] == 0) continue;
    freq[s] = std::max<uint32_t>(
        1, static_cast<uint32_t>(uint64_t{hist[s]} * (kM - 256) / in.size()));
    sum += freq[s];
  }
  freq[std::max_element(hist.begin(), hist.end()) - hist.begin()] += kM - sum;
  return freq;
}

TEST_F(KernTest, RansBitIdenticalAcrossVariants) {
  std::vector<std::vector<uint8_t>> inputs = {{}, {7}};
  Rng rng(1500);
  // Skewed bytes at sizes around the 32-lane groups.
  for (size_t n : {size_t{31}, size_t{32}, size_t{33}, size_t{95},
                   size_t{1000}, size_t{4096 + 7}}) {
    std::vector<uint8_t>& in = inputs.emplace_back(n);
    for (uint8_t& b : in) {
      const uint64_t r = rng.NextU64();
      b = (r & 7) != 0 ? 0 : static_cast<uint8_t>(r >> 8);
    }
  }
  inputs.emplace_back(1000, uint8_t{0x11});  // one symbol of frequency 4096
  std::vector<uint8_t>& all = inputs.emplace_back(256 * 40 + 13);
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<uint8_t>(rng.NextU64());
  }
  // The packed ids of a ReLU-like matrix at every quantizer width.
  Matrix relu = RandomMatrix(37, 29, 1501);
  for (size_t i = 0; i < relu.size(); ++i) {
    relu.data()[i] = std::max(relu.data()[i] - 0.8f, 0.0f);
  }
  for (int bits : {1, 2, 4, 8, 16}) {
    auto q = compress::Quantize(relu, {bits, BucketValueMode::kMidpoint});
    ASSERT_TRUE(q.ok());
    const auto* p = reinterpret_cast<const uint8_t*>(q->packed_ids.data());
    inputs.emplace_back(p, p + q->packed_ids.size() * sizeof(uint32_t));
  }

  const auto variants = kern::AvailableVariants();
  const kern::Kernels* scalar = variants.back();
  for (const std::vector<uint8_t>& in : inputs) {
    const std::vector<uint32_t> freq = RansFreqs(in);
    const size_t cap = kern::RansEncodeCapacity(in.size());
    std::vector<uint8_t> buf(cap);
    const size_t len =
        scalar->rans_encode(in.data(), in.size(), freq.data(), buf.data(), cap);
    ASSERT_LE(len, cap);
    const std::vector<uint8_t> ref(buf.end() - len, buf.end());
    for (const kern::Kernels* v : variants) {
      SCOPED_TRACE(testing::Message() << v->name << " n=" << in.size());
      std::vector<uint8_t> vbuf(cap);
      const size_t vlen =
          v->rans_encode(in.data(), in.size(), freq.data(), vbuf.data(), cap);
      EXPECT_EQ(std::vector<uint8_t>(vbuf.end() - vlen, vbuf.end()), ref);
      std::vector<uint8_t> out(in.size());
      EXPECT_TRUE(v->rans_decode(ref.data(), ref.size(), freq.data(),
                                 in.size(), out.data()));
      EXPECT_EQ(out, in);
      // A stream cut short or run long is refused, never read past.
      if (!ref.empty()) {
        const std::vector<uint8_t> cut(ref.begin(), ref.end() - 2);
        EXPECT_FALSE(v->rans_decode(cut.data(), cut.size(), freq.data(),
                                    in.size(), out.data()));
      }
      std::vector<uint8_t> longer = ref;
      longer.push_back(0);
      longer.push_back(0);
      EXPECT_FALSE(v->rans_decode(longer.data(), longer.size(), freq.data(),
                                  in.size(), out.data()));
    }
  }
}

TEST_F(KernTest, GatherRowsBitIdenticalAcrossVariants) {
  const auto variants = kern::AvailableVariants();
  const kern::Kernels* scalar = variants.back();
  for (size_t cols : kCodecCols) {
    const std::vector<float> src = RandomFloats(40 * cols, 600 + cols);
    for (size_t count : kCodecRows) {
      std::vector<uint32_t> rows(count);
      for (size_t i = 0; i < count; ++i) {
        rows[i] = static_cast<uint32_t>((i * 17 + 3) % 40);
      }
      const std::vector<float> add = RandomFloats(count * cols, 700 + count);
      for (bool fold : {false, true}) {
        std::vector<float> ref(count * cols, -1.0f);
        float ref_mn = std::numeric_limits<float>::infinity();
        float ref_mx = -ref_mn;
        scalar->gather_rows(src.data(), cols, rows.data(), count, cols,
                            fold ? add.data() : nullptr, ref.data(), &ref_mn,
                            &ref_mx);
        for (size_t i = 0; i < count; ++i) {
          for (size_t c = 0; c < cols; ++c) {
            const float v = src[rows[i] * cols + c];
            const float want = fold ? v + add[i * cols + c] : v;
            ASSERT_TRUE(FloatBitsEqual(ref[i * cols + c], want));
          }
        }
        for (const kern::Kernels* v : variants) {
          std::vector<float> got(count * cols, -1.0f);
          float mn = std::numeric_limits<float>::infinity(), mx = -mn;
          v->gather_rows(src.data(), cols, rows.data(), count, cols,
                         fold ? add.data() : nullptr, got.data(), &mn, &mx);
          EXPECT_TRUE(BitsEqual(ref, got)) << v->name << " cols=" << cols;
          EXPECT_TRUE(FloatBitsEqual(mn, ref_mn)) << v->name;
          EXPECT_TRUE(FloatBitsEqual(mx, ref_mx)) << v->name;
          // Bounds only: no output, same bounds.
          float bmn = std::numeric_limits<float>::infinity(), bmx = -bmn;
          v->gather_rows(src.data(), cols, rows.data(), count, cols,
                         fold ? add.data() : nullptr, nullptr, &bmn, &bmx);
          EXPECT_TRUE(FloatBitsEqual(bmn, ref_mn)) << v->name;
          EXPECT_TRUE(FloatBitsEqual(bmx, ref_mx)) << v->name;
        }
      }
    }
  }
  // A signed-zero extreme resolves the same way in every variant.
  const std::vector<float> zeros = {0.0f, -0.0f, 0.0f, -0.0f, -0.0f,
                                    0.0f, 0.0f,  -0.0f, -0.0f};
  const uint32_t row0 = 0;
  float ref_mn = std::numeric_limits<float>::infinity(), ref_mx = -ref_mn;
  scalar->gather_rows(zeros.data(), zeros.size(), &row0, 1, zeros.size(),
                      nullptr, nullptr, &ref_mn, &ref_mx);
  for (const kern::Kernels* v : variants) {
    float mn = std::numeric_limits<float>::infinity(), mx = -mn;
    v->gather_rows(zeros.data(), zeros.size(), &row0, 1, zeros.size(),
                   nullptr, nullptr, &mn, &mx);
    EXPECT_TRUE(FloatBitsEqual(mn, ref_mn)) << v->name;
    EXPECT_TRUE(FloatBitsEqual(mx, ref_mx)) << v->name;
  }
}

TEST_F(KernTest, UnpackFlatSubtractBitIdenticalAcrossVariants) {
  const auto variants = kern::AvailableVariants();
  const kern::Kernels* scalar = variants.back();
  for (int bits : {1, 2, 4, 8, 16}) {
    std::vector<float> table(size_t{1} << bits);
    Rng rng(8);
    for (auto& t : table) t = static_cast<float>(rng.NextGaussian());
    std::vector<float> storage;
    const float* lut = kern::BuildUnpackLut(bits, table.data(), &storage);
    for (size_t count : kCounts) {
      const std::vector<float> data = RandomFloats(count, 250 + count);
      const size_t words = PackedWordCount(count, bits);
      std::vector<uint32_t> packed(words, 0u);
      scalar->pack_flat(bits, data.data(), count, 0, words, -9.0f, 0.7f,
                        packed.data());
      std::vector<uint32_t> ids;
      ASSERT_TRUE(UnpackBits(packed, count, bits, &ids).ok());
      std::vector<float> ref = data;
      scalar->unpack_flat(bits, packed.data(), count, 0, words, lut,
                          /*subtract=*/true, ref.data());
      for (size_t i = 0; i < count; ++i) {
        ASSERT_TRUE(FloatBitsEqual(ref[i], data[i] - table[ids[i]]));
      }
      for (const kern::Kernels* v : variants) {
        std::vector<float> got = data;
        v->unpack_flat(bits, packed.data(), count, 0, words, lut,
                       /*subtract=*/true, got.data());
        EXPECT_TRUE(BitsEqual(ref, got))
            << v->name << " bits=" << bits << " count=" << count;
      }
    }
  }
}

/// Inputs of the ReqEC selector kernels with exact ties planted: rate 0
/// and last = the truth (pdt wins outright) or its cps (all three tie).
struct SelectorInputs {
  std::vector<float> truth, cps, last, rate;
};

SelectorInputs MakeSelectorInputs(size_t count, uint64_t seed) {
  SelectorInputs in;
  in.truth = RandomFloats(count, seed);
  for (auto& v : in.truth) v = std::max(v, 0.0f);
  in.cps = in.truth;
  for (auto& v : in.cps) v = std::floor(v * 4.0f) / 4.0f + 0.125f;
  in.last = RandomFloats(count, seed + 1);
  in.rate = RandomFloats(count, seed + 2);
  for (size_t i = 0; i < count; ++i) {
    if (i % 5 == 0 || i % 5 == 1) {
      in.last[i] = i % 5 == 0 ? in.truth[i] : in.cps[i];
      in.rate[i] = 0.0f;
    }
  }
  return in;
}

TEST_F(KernTest, ReqEcSelectorBitIdenticalAcrossVariants) {
  const auto variants = kern::AvailableVariants();
  const kern::Kernels* scalar = variants.back();
  for (size_t cols : kCodecCols) {
    for (size_t rows : kCodecRows) {
      const size_t count = rows * cols;
      const SelectorInputs in = MakeSelectorInputs(count, 900 + count);
      std::vector<float> ref(3 * rows, -1.0f);
      scalar->reqec_row_l1(in.truth.data(), in.cps.data(), in.last.data(),
                           in.rate.data(), nullptr, rows, cols, 3.0f,
                           ref.data());
      // The reference is the plain running sum of each row.
      for (size_t i = 0; i < rows; ++i) {
        float acc[3] = {0.0f, 0.0f, 0.0f};
        for (size_t c = 0; c < cols; ++c) {
          const size_t e = i * cols + c;
          const float pdt = in.last[e] + in.rate[e] * 3.0f;
          const float avg = (pdt + in.cps[e]) * 0.5f;
          acc[0] += std::fabs(in.cps[e] - in.truth[e]);
          acc[1] += std::fabs(pdt - in.truth[e]);
          acc[2] += std::fabs(avg - in.truth[e]);
        }
        for (int k = 0; k < 3; ++k) {
          ASSERT_TRUE(FloatBitsEqual(ref[3 * i + k], acc[k]));
        }
      }
      std::vector<uint32_t> ref_pick(count, 9u);
      scalar->reqec_element_pick(in.truth.data(), in.cps.data(),
                                 in.last.data(), in.rate.data(), nullptr,
                                 rows, cols, 3.0f, ref_pick.data());
      // The same baseline rows read through a row index: scattered, in
      // reverse, into a store with spare rows on either side.
      const size_t store_rows = 2 * rows + 3;
      std::vector<uint32_t> index(rows);
      std::vector<float> store_last(store_rows * cols, -7.0f);
      std::vector<float> store_rate(store_rows * cols, 5.0f);
      for (size_t i = 0; i < rows; ++i) {
        index[i] = static_cast<uint32_t>(2 * (rows - 1 - i) + 1);
        std::copy_n(in.last.data() + i * cols, cols,
                    store_last.data() + index[i] * cols);
        std::copy_n(in.rate.data() + i * cols, cols,
                    store_rate.data() + index[i] * cols);
      }
      for (const kern::Kernels* v : variants) {
        std::vector<float> got(3 * rows, -1.0f);
        v->reqec_row_l1(in.truth.data(), in.cps.data(), in.last.data(),
                        in.rate.data(), nullptr, rows, cols, 3.0f,
                        got.data());
        EXPECT_TRUE(BitsEqual(ref, got))
            << v->name << " " << rows << "x" << cols;
        std::vector<float> indexed(3 * rows, -1.0f);
        v->reqec_row_l1(in.truth.data(), in.cps.data(), store_last.data(),
                        store_rate.data(), index.data(), rows, cols, 3.0f,
                        indexed.data());
        EXPECT_TRUE(BitsEqual(ref, indexed))
            << v->name << " indexed " << rows << "x" << cols;
        std::vector<uint32_t> pick(count, 9u);
        v->reqec_element_pick(in.truth.data(), in.cps.data(), in.last.data(),
                              in.rate.data(), nullptr, rows, cols, 3.0f,
                              pick.data());
        EXPECT_EQ(ref_pick, pick) << v->name << " " << rows << "x" << cols;
        std::vector<uint32_t> indexed_pick(count, 9u);
        v->reqec_element_pick(in.truth.data(), in.cps.data(),
                              store_last.data(), store_rate.data(),
                              index.data(), rows, cols, 3.0f,
                              indexed_pick.data());
        EXPECT_EQ(ref_pick, indexed_pick)
            << v->name << " indexed " << rows << "x" << cols;
      }
    }
  }
}

TEST_F(KernTest, ReqEcPredictBitIdenticalAcrossVariants) {
  const auto variants = kern::AvailableVariants();
  const kern::Kernels* scalar = variants.back();
  for (size_t cols : kCodecCols) {
    for (size_t rows : kCodecRows) {
      const size_t count = rows * cols;
      const SelectorInputs in = MakeSelectorInputs(count, 950 + count);
      std::vector<float> ref(count, -1.0f);
      scalar->reqec_predict(in.last.data(), in.rate.data(), count, 3.0f,
                            ref.data());
      // The reference is a separate multiply and add per element.
      for (size_t i = 0; i < count; ++i) {
        const float product = in.rate[i] * 3.0f;
        ASSERT_TRUE(FloatBitsEqual(ref[i], in.last[i] + product));
      }
      for (const kern::Kernels* v : variants) {
        std::vector<float> got(count, -1.0f);
        v->reqec_predict(in.last.data(), in.rate.data(), count, 3.0f,
                         got.data());
        EXPECT_TRUE(BitsEqual(ref, got))
            << v->name << " " << rows << "x" << cols;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Float GEMM / SpMM kernels.
// ---------------------------------------------------------------------------

// Output widths around every tile and vector boundary of every variant
// (NEON 4, AVX2 8, AVX-512 16 lanes; 16-column GEMM tiles; 64-column
// SpMM chunks), the two class counts (41, 47) whose last columns run
// the GEMM's zero-padded tail tile and SpMM's overlapped last vector, and
// widths past one SpMM chunk whose ragged tail rides in a second chunk
// alone (79) or behind full vectors (127).
const size_t kWidths[] = {1, 7, 8, 15, 16, 17, 41, 47, 64, 65, 79, 127};

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

// kern.gemm on every variant against scalar, for A addressed by rows
// (k-stride 1, Gemm) and by columns (row stride 1, GemmTransposeA), onto a
// preloaded C.
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
        for (bool transposed : {false, true}) {
          // Transposed: A is stored k x m and read down its columns.
          const size_t row_stride = transposed ? 1 : k;
          const size_t k_stride = transposed ? m : 1;
          std::vector<float> ref = c0;
          scalar->gemm(a.data(), row_stride, k_stride, b.data(), n,
                       ref.data(), n, m, n, k);
          for (const kern::Kernels* v : variants) {
            std::vector<float> got = c0;
            v->gemm(a.data(), row_stride, k_stride, b.data(), n, got.data(),
                    n, m, n, k);
            EXPECT_TRUE(BitsEqual(ref, got))
                << v->name << " m=" << m << " k=" << k << " n=" << n
                << " transposed=" << transposed;
          }
        }
      }
    }
  }
}

// kern.spmm_rows on every variant against scalar: one and two stacked
// sources, empty rows, preloaded output. Each row is also run split in
// two, a prefix pass then a suffix pass onto its output, at an offset
// that leaves the prefix empty, part of the row, or all of it; that must
// equal the whole-row pass bit for bit.
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
    const uint64_t* row_ptr = adj->row_ptr().data();
    std::vector<uint64_t> split(rows);
    for (size_t r = 0; r < rows; ++r) {
      split[r] = row_ptr[r] + (row_ptr[r + 1] - row_ptr[r]) * (r % 3) / 2;
    }
    const uint32_t* col_idx = adj->col_idx().data();
    const float* values = adj->values().data();
    for (size_t n : kWidths) {
      const std::vector<float> x = RandomFloats(cols * n, 1200 + n);
      const std::vector<float> y0 = RandomFloats(rows * n, 1300 + n);
      for (size_t top_rows : {cols, size_t{12}}) {  // one source, stacked
        const float* bottom = x.data() + top_rows * n;
        std::vector<float> ref = y0;
        scalar->spmm_rows(row_ptr, row_ptr + 1, col_idx, values, x.data(),
                          top_rows, bottom, n, rows, ref.data());
        for (const kern::Kernels* v : variants) {
          std::vector<float> got = y0;
          v->spmm_rows(row_ptr, row_ptr + 1, col_idx, values, x.data(),
                       top_rows, bottom, n, rows, got.data());
          EXPECT_TRUE(BitsEqual(ref, got))
              << v->name << " rows=" << rows << " n=" << n
              << " top_rows=" << top_rows;
          std::vector<float> halves = y0;
          v->spmm_rows(row_ptr, split.data(), col_idx, values, x.data(),
                       top_rows, bottom, n, rows, halves.data());
          v->spmm_rows(split.data(), row_ptr + 1, col_idx, values, x.data(),
                       top_rows, bottom, n, rows, halves.data());
          EXPECT_TRUE(BitsEqual(ref, halves))
              << v->name << " split rows=" << rows << " n=" << n
              << " top_rows=" << top_rows;
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
  variants.back()->gemm(a.data(), k, 1, b.data(), n, ref.data(), n, m, n, k);
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
    v->gemm(a.data(), k, 1, b.data(), n, got.data(), n, m, n, k);
    EXPECT_TRUE(BitsEqualUpToNanBits(ref, got)) << v->name;
    // A read down its columns gives the same answer as A by rows.
    std::vector<float> at(k * m);
    for (size_t i = 0; i < m; ++i) {
      for (size_t kk = 0; kk < k; ++kk) at[kk * m + i] = a[i * k + kk];
    }
    std::vector<float> got_t = c0;
    v->gemm(at.data(), 1, m, b.data(), n, got_t.data(), n, m, n, k);
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

}  // namespace
}  // namespace ecg
