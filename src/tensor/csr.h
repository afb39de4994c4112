#ifndef ECGRAPH_TENSOR_CSR_H_
#define ECGRAPH_TENSOR_CSR_H_

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "tensor/matrix.h"

namespace ecg::tensor {

/// A compressed-sparse-row float matrix used for the normalized adjacency
/// Â = D^{-1/2}(A+I)D^{-1/2} and its partitioned sub-blocks. Only the
/// operations the GCN needs are provided: SpMM against a dense right-hand
/// side (one matrix, or two stacked row blocks) and structural transpose.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from coordinate triplets (row, col, value). Duplicate (row,col)
  /// entries are summed. Triplets need not be sorted.
  static Result<CsrMatrix> FromTriplets(
      size_t rows, size_t cols,
      const std::vector<std::tuple<uint32_t, uint32_t, float>>& triplets);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return col_idx_.size(); }

  const std::vector<uint64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<uint32_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

  /// y = this * x (rows x x.cols()); threaded over rows.
  void SpMM(const Matrix& x, Matrix* y) const;

  /// Computes only the listed rows of y = this * x, accumulating into the
  /// already-sized y (the caller Resets once; other rows are untouched).
  /// The inner loop matches SpMM exactly so a row computed here is bitwise
  /// identical to the same row from a full SpMM.
  void SpMMRows(const Matrix& x, const std::vector<uint32_t>& row_ids,
                Matrix* y) const;

  /// y = this * [top ; bottom] without materializing the stack: column c
  /// reads top.Row(c) when c < top.rows() and bottom.Row(c - top.rows())
  /// otherwise. This is how a WorkerPlan's slice multiplies
  /// [H_owned ; H_halo]. The accumulation order per row is SpMM's, so the
  /// result is bitwise identical to SpMM over the explicit concatenation.
  void SpMM(const Matrix& top, const Matrix& bottom, Matrix* y) const;

  /// SpMMRows over [top ; bottom], with the same contract as the
  /// two-source SpMM.
  void SpMMRows(const Matrix& top, const Matrix& bottom,
                const std::vector<uint32_t>& row_ids, Matrix* y) const;

  /// Returns the transpose (cols x rows) with the same nnz.
  CsrMatrix Transposed() const;

  /// Dense copy, for small-matrix tests only.
  Matrix ToDense() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<uint64_t> row_ptr_;
  std::vector<uint32_t> col_idx_;
  std::vector<float> values_;
};

}  // namespace ecg::tensor

#endif  // ECGRAPH_TENSOR_CSR_H_
