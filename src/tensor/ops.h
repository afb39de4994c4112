#ifndef ECGRAPH_TENSOR_OPS_H_
#define ECGRAPH_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace ecg::tensor {

/// Dense kernels shared by the GCN forward/backward passes. All kernels are
/// deterministic (fixed reduction order) so that distributed and
/// single-machine runs can be compared bit-for-bit when compression is off.
/// The three GEMM forms run one ecg::kern registry kernel: every output
/// element starts at zero and adds its terms in ascending k, one multiply
/// then one add each, whatever the kernel variant or thread count
/// (kernels.h states the contract, including non-finite operands).

/// C = A * B. Threaded over rows of A via the global thread pool.
void Gemm(const Matrix& a, const Matrix& b, Matrix* c);

/// C = A^T * B, where A is rows x cols and C is cols x b.cols().
void GemmTransposeA(const Matrix& a, const Matrix& b, Matrix* c);

/// C = A * B^T.
void GemmTransposeB(const Matrix& a, const Matrix& b, Matrix* c);

/// Returns A^T as a new matrix.
Matrix Transpose(const Matrix& a);

/// a += b (same shape).
void AddInPlace(Matrix* a, const Matrix& b);

/// a -= b (same shape).
void SubInPlace(Matrix* a, const Matrix& b);

/// a *= s.
void ScaleInPlace(Matrix* a, float s);

/// a += s * b.
void Axpy(float s, const Matrix& b, Matrix* a);

/// a = a ⊙ b (Hadamard / element-wise product, same shape).
void HadamardInPlace(Matrix* a, const Matrix& b);

/// Adds `bias` (1 x cols) to every row of a.
void AddRowBias(Matrix* a, const Matrix& bias);

/// Column-wise sum of a, returned as a 1 x cols matrix (bias gradient).
Matrix ColumnSums(const Matrix& a);

/// Copies rows `indices` of src into a new matrix (len(indices) x cols).
Matrix GatherRows(const Matrix& src, const std::vector<uint32_t>& indices);

/// [a | b]: column-wise concatenation of two matrices with equal row
/// counts (GraphSAGE's [H | mean_N(H)] input stacking).
Matrix ConcatCols(const Matrix& a, const Matrix& b);

/// Copies columns [begin, end) of src into a new matrix.
Matrix SliceCols(const Matrix& src, size_t begin, size_t end);

/// Per-row L1 distance between same-shaped a and b:
/// out[r] = sum_c |a(r,c) - b(r,c)|. This is the Selector's Eq. 10.
std::vector<float> RowL1Distance(const Matrix& a, const Matrix& b);

}  // namespace ecg::tensor

#endif  // ECGRAPH_TENSOR_OPS_H_
