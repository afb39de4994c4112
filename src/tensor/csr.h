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
/// side (one matrix, or two stacked row blocks, or the two blocks in two
/// passes split by column) and structural transpose.
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
  /// Per row, its first nonzero in a column >= SplitColumns' column
  /// (empty before SplitColumns).
  const std::vector<uint64_t>& split() const { return split_; }

  /// y = this * x (rows x x.cols()); threaded over rows.
  void SpMM(const Matrix& x, Matrix* y) const;

  /// y = this * [top ; bottom] without materializing the stack: column c
  /// reads top.Row(c) when c < top.rows() and bottom.Row(c - top.rows())
  /// otherwise. This is how a WorkerPlan's slice multiplies
  /// [H_owned ; H_halo]. The accumulation order per row is SpMM's, so the
  /// result is bitwise identical to SpMM over the explicit concatenation.
  void SpMM(const Matrix& top, const Matrix& bottom, Matrix* y) const;

  /// Splits every row's nonzeros at its first column >= owned_cols, for
  /// SpMMOwned and SpMMHalo. A WorkerPlan slice's columns are
  /// [owned | halo] and each row is sorted by column, so the split leaves
  /// the owned columns in a prefix of the row and the halo columns in the
  /// suffix.
  void SplitColumns(size_t owned_cols);

  /// y = this[:, < owned_cols] * top: each row's owned prefix, from zero
  /// (top.rows() == owned_cols). Needs SplitColumns.
  void SpMMOwned(const Matrix& top, Matrix* y) const;

  /// y += this[:, >= owned_cols] * bottom: each row's halo suffix, onto
  /// SpMMOwned's output. Each row's sum continues where the owned pass
  /// stopped, in stored order, so SpMMOwned(top) then SpMMHalo(bottom) is
  /// bitwise SpMM(top, bottom). This is what lets the owned pass run
  /// while the halo rows are still in flight.
  void SpMMHalo(const Matrix& bottom, Matrix* y) const;

  /// Returns the transpose (cols x rows) with the same nnz.
  CsrMatrix Transposed() const;

  /// Dense copy, for small-matrix tests only.
  Matrix ToDense() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<uint64_t> row_ptr_ = {0};  // rows_ + 1 offsets
  size_t owned_cols_ = 0;  // SplitColumns' column
  std::vector<uint64_t> split_;
  std::vector<uint32_t> col_idx_;
  std::vector<float> values_;
};

}  // namespace ecg::tensor

#endif  // ECGRAPH_TENSOR_CSR_H_
