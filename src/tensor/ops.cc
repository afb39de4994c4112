#include "tensor/ops.h"

#include <cmath>
#include <cstring>

#include "common/kernels.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace ecg::tensor {
namespace {

// Minimum per-thread row count before a kernel bothers going parallel.
constexpr size_t kRowGrain = 16;

// Minimum flat elements per chunk of the element-wise kernels. These are
// memory-bound single-op loops, so chunks must be large for the fork/join
// to pay off; ReqEC candidate construction hands them multi-MB matrices.
constexpr size_t kElemGrain = 1 << 15;

void CheckSameShape(const Matrix& a, const Matrix& b, const char* op) {
  ECG_CHECK(a.rows() == b.rows() && a.cols() == b.cols())
      << op << " shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
      << b.rows() << "x" << b.cols();
}

// C += A * B over every row of C (row_ids null, m rows) or the listed rows,
// threaded over those rows, through the one registry kernel. A(i, k) is
// a[i * a_row_stride + k * a_k_stride], so the five GEMM forms below differ
// only in how they address A and which rows they visit: a row computed by
// any of them, in any chunking, is bitwise equal to the same row of the
// full product.
void GemmChunks(const float* a, size_t a_row_stride, size_t a_k_stride,
                size_t k, const Matrix& b,
                const std::vector<uint32_t>* row_ids, size_t m, Matrix* c) {
  const kern::Kernels& kern = kern::Active();
  const size_t count = row_ids != nullptr ? row_ids->size() : m;
  ThreadPool::Global().ParallelFor(
      count, kRowGrain, [&](size_t begin, size_t end) {
        if (row_ids != nullptr) {
          kern.gemm(a, a_row_stride, a_k_stride, b.data(), b.cols(),
                    c->data(), c->cols(), row_ids->data() + begin,
                    end - begin, b.cols(), k);
        } else {
          kern.gemm(a + begin * a_row_stride, a_row_stride, a_k_stride,
                    b.data(), b.cols(), c->Row(begin), c->cols(), nullptr,
                    end - begin, b.cols(), k);
        }
      });
}

}  // namespace

void Gemm(const Matrix& a, const Matrix& b, Matrix* c) {
  ECG_CHECK(a.cols() == b.rows()) << "Gemm inner dim mismatch: " << a.cols()
                                  << " vs " << b.rows();
  c->Reset(a.rows(), b.cols());
  GemmChunks(a.data(), a.cols(), 1, a.cols(), b, nullptr, a.rows(), c);
}

void GemmRows(const Matrix& a, const Matrix& b,
              const std::vector<uint32_t>& row_ids, Matrix* c) {
  ECG_CHECK(a.cols() == b.rows()) << "GemmRows inner dim mismatch: "
                                  << a.cols() << " vs " << b.rows();
  ECG_CHECK(c->rows() == a.rows() && c->cols() == b.cols())
      << "GemmRows output must be pre-sized to " << a.rows() << "x"
      << b.cols();
  GemmChunks(a.data(), a.cols(), 1, a.cols(), b, &row_ids, 0, c);
}

void GemmTransposeA(const Matrix& a, const Matrix& b, Matrix* c) {
  ECG_CHECK(a.rows() == b.rows()) << "GemmTransposeA dim mismatch";
  // Row i of C sums over the rows r of A and B: A^T(i, r) = a(r, i), so A
  // is read with row stride 1 and k-stride a.cols(). Threaded over output
  // rows (= columns of A), so no two chunks write one row.
  c->Reset(a.cols(), b.cols());
  if (a.rows() == 0) return;  // empty sum; a.data() may be null
  GemmChunks(a.data(), 1, a.cols(), a.rows(), b, nullptr, a.cols(), c);
}

void GemmTransposeB(const Matrix& a, const Matrix& b, Matrix* c) {
  ECG_CHECK(a.cols() == b.cols()) << "GemmTransposeB dim mismatch";
  c->Reset(a.rows(), b.rows());
  // B^T is packed once as a k-major panel, so this is Gemm's kernel.
  GemmChunks(a.data(), a.cols(), 1, a.cols(), Transpose(b), nullptr,
             a.rows(), c);
}

void GemmTransposeBRows(const Matrix& a, const Matrix& b,
                        const std::vector<uint32_t>& row_ids, Matrix* c) {
  ECG_CHECK(a.cols() == b.cols()) << "GemmTransposeBRows dim mismatch";
  ECG_CHECK(c->rows() == a.rows() && c->cols() == b.rows())
      << "GemmTransposeBRows output must be pre-sized to " << a.rows() << "x"
      << b.rows();
  GemmChunks(a.data(), a.cols(), 1, a.cols(), Transpose(b), &row_ids, 0, c);
}

Matrix Transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.Row(r);
    for (size_t c = 0; c < a.cols(); ++c) out.At(c, r) = arow[c];
  }
  return out;
}

void AddInPlace(Matrix* a, const Matrix& b) {
  CheckSameShape(*a, b, "AddInPlace");
  float* ad = a->data();
  const float* bd = b.data();
  ThreadPool::Global().ParallelFor(
      a->size(), kElemGrain, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) ad[i] += bd[i];
      });
}

void SubInPlace(Matrix* a, const Matrix& b) {
  CheckSameShape(*a, b, "SubInPlace");
  float* ad = a->data();
  const float* bd = b.data();
  ThreadPool::Global().ParallelFor(
      a->size(), kElemGrain, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) ad[i] -= bd[i];
      });
}

void ScaleInPlace(Matrix* a, float s) {
  float* ad = a->data();
  ThreadPool::Global().ParallelFor(
      a->size(), kElemGrain, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) ad[i] *= s;
      });
}

void Axpy(float s, const Matrix& b, Matrix* a) {
  CheckSameShape(*a, b, "Axpy");
  float* ad = a->data();
  const float* bd = b.data();
  ThreadPool::Global().ParallelFor(
      a->size(), kElemGrain, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) ad[i] += s * bd[i];
      });
}

void HadamardInPlace(Matrix* a, const Matrix& b) {
  CheckSameShape(*a, b, "HadamardInPlace");
  float* ad = a->data();
  const float* bd = b.data();
  ThreadPool::Global().ParallelFor(
      a->size(), kElemGrain, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) ad[i] *= bd[i];
      });
}

void AddRowBias(Matrix* a, const Matrix& bias) {
  ECG_CHECK(bias.rows() == 1 && bias.cols() == a->cols())
      << "AddRowBias shape mismatch";
  const float* brow = bias.Row(0);
  for (size_t r = 0; r < a->rows(); ++r) {
    float* arow = a->Row(r);
    for (size_t c = 0; c < a->cols(); ++c) arow[c] += brow[c];
  }
}

Matrix ColumnSums(const Matrix& a) {
  Matrix out(1, a.cols());
  float* orow = out.Row(0);
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.Row(r);
    for (size_t c = 0; c < a.cols(); ++c) orow[c] += arow[c];
  }
  return out;
}

Matrix GatherRows(const Matrix& src, const std::vector<uint32_t>& indices) {
  Matrix out(indices.size(), src.cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    ECG_CHECK(indices[i] < src.rows()) << "GatherRows index out of range";
    std::memcpy(out.Row(i), src.Row(indices[i]), src.cols() * sizeof(float));
  }
  return out;
}

void ScatterAddRows(const Matrix& src, const std::vector<uint32_t>& indices,
                    Matrix* dst) {
  ECG_CHECK(src.rows() == indices.size() && src.cols() == dst->cols())
      << "ScatterAddRows shape mismatch";
  for (size_t i = 0; i < indices.size(); ++i) {
    ECG_CHECK(indices[i] < dst->rows()) << "ScatterAddRows index out of range";
    float* drow = dst->Row(indices[i]);
    const float* srow = src.Row(i);
    for (size_t c = 0; c < src.cols(); ++c) drow[c] += srow[c];
  }
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  ECG_CHECK(a.rows() == b.rows()) << "ConcatCols row mismatch";
  Matrix out(a.rows(), a.cols() + b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    std::memcpy(out.Row(r), a.Row(r), a.cols() * sizeof(float));
    std::memcpy(out.Row(r) + a.cols(), b.Row(r), b.cols() * sizeof(float));
  }
  return out;
}

Matrix SliceCols(const Matrix& src, size_t begin, size_t end) {
  ECG_CHECK(begin <= end && end <= src.cols()) << "SliceCols out of range";
  Matrix out(src.rows(), end - begin);
  for (size_t r = 0; r < src.rows(); ++r) {
    std::memcpy(out.Row(r), src.Row(r) + begin,
                (end - begin) * sizeof(float));
  }
  return out;
}

std::vector<float> RowL1Distance(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b, "RowL1Distance");
  std::vector<float> out(a.rows(), 0.0f);
  // Each row's reduction stays on one thread, so results are identical to
  // the sequential loop regardless of chunking.
  ThreadPool::Global().ParallelFor(
      a.rows(), kRowGrain, [&](size_t begin, size_t end) {
        for (size_t r = begin; r < end; ++r) {
          const float* arow = a.Row(r);
          const float* brow = b.Row(r);
          float acc = 0.0f;
          for (size_t c = 0; c < a.cols(); ++c) {
            acc += std::fabs(arow[c] - brow[c]);
          }
          out[r] = acc;
        }
      });
  return out;
}

}  // namespace ecg::tensor
