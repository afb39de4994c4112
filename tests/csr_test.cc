#include "tensor/csr.h"

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace ecg::tensor {
namespace {

using Triplet = std::tuple<uint32_t, uint32_t, float>;

TEST(CsrTest, FromTripletsSortsAndDedupes) {
  // Unsorted input with a duplicate (0,1) entry that must sum.
  const std::vector<Triplet> trips = {
      {1, 2, 3.0f}, {0, 1, 1.0f}, {0, 0, 2.0f}, {0, 1, 4.0f}};
  auto r = CsrMatrix::FromTriplets(2, 3, trips);
  ASSERT_TRUE(r.ok());
  const CsrMatrix& m = *r;
  EXPECT_EQ(m.nnz(), 3u);
  const Matrix dense = m.ToDense();
  EXPECT_FLOAT_EQ(dense.At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(dense.At(0, 1), 5.0f);
  EXPECT_FLOAT_EQ(dense.At(1, 2), 3.0f);
  // Columns sorted within each row.
  for (size_t row = 0; row < m.rows(); ++row) {
    for (uint64_t i = m.row_ptr()[row] + 1; i < m.row_ptr()[row + 1]; ++i) {
      EXPECT_LT(m.col_idx()[i - 1], m.col_idx()[i]);
    }
  }
}

TEST(CsrTest, OutOfRangeTripletRejected) {
  EXPECT_EQ(CsrMatrix::FromTriplets(2, 2, {{2, 0, 1.0f}}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(CsrMatrix::FromTriplets(2, 2, {{0, 2, 1.0f}}).status().code(),
            StatusCode::kOutOfRange);
}

TEST(CsrTest, EmptyMatrix) {
  auto r = CsrMatrix::FromTriplets(3, 3, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->nnz(), 0u);
  Matrix x(3, 2);
  x.Fill(1.0f);
  Matrix y;
  r->SpMM(x, &y);
  EXPECT_TRUE(AllClose(y, Matrix(3, 2)));
}

TEST(CsrTest, SpMMMatchesDenseReference) {
  Rng rng(31);
  const size_t rows = 40, cols = 33, dim = 7;
  std::vector<Triplet> trips;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (rng.NextBool(0.15)) {
        trips.emplace_back(static_cast<uint32_t>(r),
                           static_cast<uint32_t>(c),
                           static_cast<float>(rng.NextGaussian()));
      }
    }
  }
  auto m = CsrMatrix::FromTriplets(rows, cols, trips);
  ASSERT_TRUE(m.ok());
  Matrix x(cols, dim);
  for (size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  Matrix y;
  m->SpMM(x, &y);
  Matrix expected;
  Gemm(m->ToDense(), x, &expected);
  EXPECT_TRUE(AllClose(y, expected, 1e-4f));
}

Matrix RandomDense(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->NextGaussian());
  }
  return m;
}

// Explicit [top ; bottom] concatenation, the reference layout.
Matrix Stack(const Matrix& top, const Matrix& bottom) {
  Matrix cat(top.rows() + bottom.rows(), top.cols());
  std::memcpy(cat.data(), top.data(), top.size() * sizeof(float));
  if (bottom.rows() > 0) {
    std::memcpy(cat.Row(top.rows()), bottom.data(),
                bottom.size() * sizeof(float));
  }
  return cat;
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(CsrTest, TwoSourceSpMMIsBitwiseSpMMOverTheConcatenation) {
  // Random sparsity with empty rows (density 0 for every fifth row) and
  // both halo sizes a WorkerPlan can have, including none at all.
  Rng rng(77);
  for (const size_t halo_rows : {size_t{0}, size_t{1}, size_t{23}}) {
    for (int trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE(testing::Message() << "halo " << halo_rows << " trial "
                                      << trial);
      const size_t rows = 31, owned = 31, dim = 1 + 5 * trial;
      const size_t cols = owned + halo_rows;
      std::vector<Triplet> trips;
      for (size_t r = 0; r < rows; ++r) {
        if (r % 5 == 3) continue;
        for (size_t c = 0; c < cols; ++c) {
          if (rng.NextBool(0.2)) {
            trips.emplace_back(static_cast<uint32_t>(r),
                               static_cast<uint32_t>(c),
                               static_cast<float>(rng.NextGaussian()));
          }
        }
      }
      auto m = CsrMatrix::FromTriplets(rows, cols, trips);
      ASSERT_TRUE(m.ok());
      const Matrix top = RandomDense(owned, dim, &rng);
      const Matrix bottom = RandomDense(halo_rows, dim, &rng);
      const Matrix cat = Stack(top, bottom);

      Matrix expected, got;
      m->SpMM(cat, &expected);
      m->SpMM(top, bottom, &got);
      EXPECT_TRUE(BitwiseEqual(got, expected));

      // Row subset into a pre-filled output: listed rows accumulate onto
      // the sentinel exactly as the one-source kernel does, others stay.
      std::vector<uint32_t> row_ids;
      for (uint32_t r = 0; r < rows; r += 2) row_ids.push_back(r);
      Matrix rows_expected(rows, dim), rows_got(rows, dim);
      rows_expected.Fill(0.25f);
      rows_got.Fill(0.25f);
      m->SpMMRows(cat, row_ids, &rows_expected);
      m->SpMMRows(top, bottom, row_ids, &rows_got);
      EXPECT_TRUE(BitwiseEqual(rows_got, rows_expected));
    }
  }
}

TEST(CsrTest, TransposedMatchesDenseTranspose) {
  Rng rng(32);
  std::vector<Triplet> trips;
  for (int i = 0; i < 100; ++i) {
    trips.emplace_back(static_cast<uint32_t>(rng.NextBelow(13)),
                       static_cast<uint32_t>(rng.NextBelow(9)),
                       static_cast<float>(rng.NextGaussian()));
  }
  auto m = CsrMatrix::FromTriplets(13, 9, trips);
  ASSERT_TRUE(m.ok());
  const CsrMatrix t = m->Transposed();
  EXPECT_EQ(t.rows(), 9u);
  EXPECT_EQ(t.cols(), 13u);
  EXPECT_EQ(t.nnz(), m->nnz());
  EXPECT_TRUE(AllClose(t.ToDense(), Transpose(m->ToDense()), 1e-5f));
}

TEST(CsrTest, SymmetricNormalizedAdjacencyRowSums) {
  // For Â = D^{-1/2}(A+I)D^{-1/2} of a k-regular graph every row sums to 1.
  const uint32_t n = 6;
  std::vector<Triplet> trips;
  const float w = 1.0f / 3.0f;  // degree 2 + self loop -> 1/sqrt(3*3)
  for (uint32_t v = 0; v < n; ++v) {
    trips.emplace_back(v, v, w);
    trips.emplace_back(v, (v + 1) % n, w);
    trips.emplace_back(v, (v + n - 1) % n, w);
  }
  auto m = CsrMatrix::FromTriplets(n, n, trips);
  ASSERT_TRUE(m.ok());
  Matrix ones(n, 1);
  ones.Fill(1.0f);
  Matrix y;
  m->SpMM(ones, &y);
  for (uint32_t v = 0; v < n; ++v) EXPECT_NEAR(y.At(v, 0), 1.0f, 1e-5f);
}

}  // namespace
}  // namespace ecg::tensor
