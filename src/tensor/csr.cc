#include "tensor/csr.h"

#include <algorithm>
#include <string>
#include <tuple>

#include "common/kernels.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace ecg::tensor {

Result<CsrMatrix> CsrMatrix::FromTriplets(
    size_t rows, size_t cols,
    const std::vector<std::tuple<uint32_t, uint32_t, float>>& triplets) {
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  for (const auto& [r, c, v] : triplets) {
    if (r >= rows || c >= cols) {
      return Status::OutOfRange("triplet (" + std::to_string(r) + "," +
                                std::to_string(c) + ") outside " +
                                std::to_string(rows) + "x" +
                                std::to_string(cols));
    }
    ++m.row_ptr_[r + 1];
  }
  for (size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  m.col_idx_.resize(triplets.size());
  m.values_.resize(triplets.size());
  std::vector<uint64_t> cursor(m.row_ptr_.begin(), m.row_ptr_.end() - 1);
  for (const auto& [r, c, v] : triplets) {
    const uint64_t pos = cursor[r]++;
    m.col_idx_[pos] = c;
    m.values_[pos] = v;
  }
  // Sort each row by column and merge duplicates in place.
  uint64_t write = 0;
  std::vector<uint64_t> new_row_ptr(rows + 1, 0);
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t begin = m.row_ptr_[r];
    const uint64_t end = m.row_ptr_[r + 1];
    std::vector<std::pair<uint32_t, float>> row_entries;
    row_entries.reserve(end - begin);
    for (uint64_t i = begin; i < end; ++i) {
      row_entries.emplace_back(m.col_idx_[i], m.values_[i]);
    }
    std::sort(row_entries.begin(), row_entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (size_t i = 0; i < row_entries.size(); ++i) {
      if (write > new_row_ptr[r] &&
          m.col_idx_[write - 1] == row_entries[i].first) {
        m.values_[write - 1] += row_entries[i].second;
      } else {
        m.col_idx_[write] = row_entries[i].first;
        m.values_[write] = row_entries[i].second;
        ++write;
      }
    }
    new_row_ptr[r + 1] = write;
  }
  m.col_idx_.resize(write);
  m.values_.resize(write);
  m.row_ptr_ = std::move(new_row_ptr);
  return m;
}

namespace {

// Rows per ParallelFor chunk of the SpMM kernels.
constexpr size_t kSpmmGrain = 64;

// y.Row(r) += sum over the nonzeros [begin[r], end[r]) of row r, in
// stored order, of value * [top ; bottom].Row(col), for every row. Every
// SpMM entry point runs this one registry kernel, which is what makes a
// two-source call, or an owned pass then a halo pass, bitwise equal to
// the same row of a one-source SpMM.
void Accumulate(const CsrMatrix& a, const uint64_t* begin,
                const uint64_t* end, const float* top, size_t top_rows,
                const float* bottom, Matrix* y) {
  const kern::Kernels& kern = kern::Active();
  ThreadPool::Global().ParallelFor(
      a.rows(), kSpmmGrain, [&](size_t lo, size_t hi) {
        kern.spmm_rows(begin + lo, end + lo, a.col_idx().data(),
                       a.values().data(), top, top_rows, bottom, y->cols(),
                       hi - lo, y->Row(lo));
      });
}

void CheckStacked(const char* op, size_t csr_cols, const Matrix& top,
                  const Matrix& bottom) {
  ECG_CHECK(top.rows() + bottom.rows() == csr_cols)
      << op << " dim mismatch: csr cols " << csr_cols << " vs dense rows "
      << top.rows() << " + " << bottom.rows();
  ECG_CHECK(bottom.rows() == 0 || bottom.cols() == top.cols())
      << op << " width mismatch: " << top.cols() << " vs " << bottom.cols();
}

}  // namespace

void CsrMatrix::SpMM(const Matrix& x, Matrix* y) const {
  ECG_CHECK(x.rows() == cols_) << "SpMM dim mismatch: csr cols " << cols_
                               << " vs dense rows " << x.rows();
  y->Reset(rows_, x.cols());
  Accumulate(*this, row_ptr_.data(), row_ptr_.data() + 1, x.data(), cols_,
             nullptr, y);
}

void CsrMatrix::SpMM(const Matrix& top, const Matrix& bottom,
                     Matrix* y) const {
  CheckStacked("SpMM", cols_, top, bottom);
  y->Reset(rows_, top.cols());
  Accumulate(*this, row_ptr_.data(), row_ptr_.data() + 1, top.data(),
             top.rows(), bottom.data(), y);
}

void CsrMatrix::SplitColumns(size_t owned_cols) {
  ECG_CHECK(owned_cols <= cols_)
      << "SplitColumns at " << owned_cols << " of " << cols_ << " columns";
  owned_cols_ = owned_cols;
  split_.resize(rows_);
  for (size_t r = 0; r < rows_; ++r) {
    split_[r] = static_cast<uint64_t>(
        std::lower_bound(col_idx_.begin() + row_ptr_[r],
                         col_idx_.begin() + row_ptr_[r + 1],
                         static_cast<uint32_t>(owned_cols)) -
        col_idx_.begin());
  }
}

void CsrMatrix::SpMMOwned(const Matrix& top, Matrix* y) const {
  ECG_CHECK(split_.size() == rows_ && top.rows() == owned_cols_)
      << "SpMMOwned needs SplitColumns(" << top.rows() << ")";
  y->Reset(rows_, top.cols());
  Accumulate(*this, row_ptr_.data(), split_.data(), top.data(), owned_cols_,
             nullptr, y);
}

void CsrMatrix::SpMMHalo(const Matrix& bottom, Matrix* y) const {
  ECG_CHECK(split_.size() == rows_ && bottom.rows() == cols_ - owned_cols_)
      << "SpMMHalo dim mismatch: " << cols_ - owned_cols_
      << " halo columns vs dense rows " << bottom.rows();
  ECG_CHECK(y->rows() == rows_ &&
            (bottom.rows() == 0 || bottom.cols() == y->cols()))
      << "SpMMHalo adds onto SpMMOwned's " << rows_ << "-row output";
  Accumulate(*this, split_.data(), row_ptr_.data() + 1, nullptr, owned_cols_,
             bottom.data(), y);
}

CsrMatrix CsrMatrix::Transposed() const {
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_.assign(cols_ + 1, 0);
  for (uint32_t c : col_idx_) ++t.row_ptr_[c + 1];
  for (size_t r = 0; r < cols_; ++r) t.row_ptr_[r + 1] += t.row_ptr_[r];
  t.col_idx_.resize(nnz());
  t.values_.resize(nnz());
  std::vector<uint64_t> cursor(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (size_t r = 0; r < rows_; ++r) {
    for (uint64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      const uint64_t pos = cursor[col_idx_[i]]++;
      t.col_idx_[pos] = static_cast<uint32_t>(r);
      t.values_[pos] = values_[i];
    }
  }
  return t;
}

Matrix CsrMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (uint64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      out.At(r, col_idx_[i]) += values_[i];
    }
  }
  return out;
}

}  // namespace ecg::tensor
