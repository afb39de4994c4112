#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace ecg::tensor {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

/// Triple-loop reference GEMM for validating the blocked kernel.
Matrix NaiveGemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (size_t k = 0; k < a.cols(); ++k) acc += a.At(i, k) * b.At(k, j);
      c.At(i, j) = acc;
    }
  }
  return c;
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
  m.At(1, 2) = 5.0f;
  EXPECT_EQ(m.Row(1)[2], 5.0f);
}

TEST(MatrixTest, FromDataAndNorms) {
  Matrix m(2, 2, {1.0f, -2.0f, 3.0f, -4.0f});
  EXPECT_DOUBLE_EQ(m.SquaredNorm(), 30.0);
  EXPECT_DOUBLE_EQ(m.L1Norm(), 10.0);
}

TEST(MatrixTest, FillAndReset) {
  Matrix m(2, 3);
  m.Fill(2.5f);
  EXPECT_EQ(m.At(1, 2), 2.5f);
  m.Reset(4, 2);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.At(3, 1), 0.0f);
}

TEST(MatrixTest, AllClose) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b = a;
  EXPECT_TRUE(AllClose(a, b));
  b.At(0, 0) += 1e-6f;
  EXPECT_TRUE(AllClose(a, b, 1e-5f));
  b.At(0, 0) += 1.0f;
  EXPECT_FALSE(AllClose(a, b, 1e-5f));
  Matrix c(2, 3);
  EXPECT_FALSE(AllClose(a, c));
}

TEST(OpsTest, GemmMatchesNaive) {
  const Matrix a = RandomMatrix(37, 19, 1);
  const Matrix b = RandomMatrix(19, 23, 2);
  Matrix c;
  Gemm(a, b, &c);
  EXPECT_TRUE(AllClose(c, NaiveGemm(a, b), 1e-4f));
}

TEST(OpsTest, GemmTransposeAMatchesNaive) {
  const Matrix a = RandomMatrix(29, 13, 3);
  const Matrix b = RandomMatrix(29, 17, 4);
  Matrix c;
  GemmTransposeA(a, b, &c);
  EXPECT_TRUE(AllClose(c, NaiveGemm(Transpose(a), b), 1e-4f));
}

TEST(OpsTest, GemmTransposeBMatchesNaive) {
  const Matrix a = RandomMatrix(11, 21, 5);
  const Matrix b = RandomMatrix(31, 21, 6);
  Matrix c;
  GemmTransposeB(a, b, &c);
  EXPECT_TRUE(AllClose(c, NaiveGemm(a, Transpose(b)), 1e-4f));
}

TEST(OpsTest, TransposeInvolution) {
  const Matrix a = RandomMatrix(8, 5, 7);
  EXPECT_TRUE(AllClose(Transpose(Transpose(a)), a));
}

TEST(OpsTest, ElementwiseOps) {
  Matrix a(1, 4, {1, 2, 3, 4});
  const Matrix b(1, 4, {10, 20, 30, 40});
  AddInPlace(&a, b);
  EXPECT_TRUE(AllClose(a, Matrix(1, 4, {11, 22, 33, 44})));
  SubInPlace(&a, b);
  EXPECT_TRUE(AllClose(a, Matrix(1, 4, {1, 2, 3, 4})));
  ScaleInPlace(&a, 2.0f);
  EXPECT_TRUE(AllClose(a, Matrix(1, 4, {2, 4, 6, 8})));
  Axpy(0.5f, b, &a);
  EXPECT_TRUE(AllClose(a, Matrix(1, 4, {7, 14, 21, 28})));
  HadamardInPlace(&a, Matrix(1, 4, {0, 1, 0, 1}));
  EXPECT_TRUE(AllClose(a, Matrix(1, 4, {0, 14, 0, 28})));
}

TEST(OpsTest, AddRowBiasAndColumnSums) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix bias(1, 3, {10, 20, 30});
  AddRowBias(&a, bias);
  EXPECT_TRUE(AllClose(a, Matrix(2, 3, {11, 22, 33, 14, 25, 36})));
  const Matrix sums = ColumnSums(a);
  EXPECT_TRUE(AllClose(sums, Matrix(1, 3, {25, 47, 69})));
}

TEST(OpsTest, GatherRows) {
  const Matrix src(3, 2, {1, 2, 3, 4, 5, 6});
  const Matrix picked = GatherRows(src, {2, 0, 2});
  EXPECT_TRUE(AllClose(picked, Matrix(3, 2, {5, 6, 1, 2, 5, 6})));
}

TEST(OpsTest, RowL1Distance) {
  const Matrix a(2, 2, {1, 2, 3, 4});
  const Matrix b(2, 2, {2, 2, 1, 1});
  const std::vector<float> d = RowL1Distance(a, b);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_FLOAT_EQ(d[0], 1.0f);
  EXPECT_FLOAT_EQ(d[1], 5.0f);
}

/// Shape sweep: GEMM correctness across edge-case shapes (1-row, 1-col,
/// column vectors, larger-than-grain row counts).
class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  const Matrix a = RandomMatrix(m, k, 100 + m);
  const Matrix b = RandomMatrix(k, n, 200 + n);
  Matrix c;
  Gemm(a, b, &c);
  EXPECT_TRUE(AllClose(c, NaiveGemm(a, b), 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapes,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{1, 7, 5},
                                           std::tuple{5, 1, 7},
                                           std::tuple{64, 3, 1},
                                           std::tuple{100, 16, 8},
                                           std::tuple{33, 48, 9}));

}  // namespace
}  // namespace ecg::tensor
