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

// y.Row(r) += sum over row r's nonzeros, in stored order, of
// value * [top ; bottom].Row(col), for every listed row (every row when
// row_ids is null). All four SpMM entry points run this one registry
// kernel, which is what makes a row from SpMMRows, or from a two-source
// call, bitwise equal to the same row of a one-source SpMM.
void Accumulate(const CsrMatrix& a, const Matrix& top, const Matrix& bottom,
                const std::vector<uint32_t>* row_ids, Matrix* y) {
  const kern::Kernels& kern = kern::Active();
  const size_t count = row_ids != nullptr ? row_ids->size() : a.rows();
  ThreadPool::Global().ParallelFor(
      count, kSpmmGrain, [&](size_t begin, size_t end) {
        const uint64_t* row_ptr = a.row_ptr().data();
        if (row_ids != nullptr) {
          kern.spmm_rows(row_ptr, a.col_idx().data(), a.values().data(),
                         top.data(), top.rows(), bottom.data(), top.cols(),
                         row_ids->data() + begin, end - begin, y->data());
        } else {
          kern.spmm_rows(row_ptr + begin, a.col_idx().data(),
                         a.values().data(), top.data(), top.rows(),
                         bottom.data(), top.cols(), nullptr, end - begin,
                         y->Row(begin));
        }
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
  Accumulate(*this, x, Matrix(), nullptr, y);
}

void CsrMatrix::SpMM(const Matrix& top, const Matrix& bottom,
                     Matrix* y) const {
  CheckStacked("SpMM", cols_, top, bottom);
  y->Reset(rows_, top.cols());
  Accumulate(*this, top, bottom, nullptr, y);
}

void CsrMatrix::SpMMRows(const Matrix& x, const std::vector<uint32_t>& row_ids,
                         Matrix* y) const {
  ECG_CHECK(x.rows() == cols_) << "SpMMRows dim mismatch: csr cols " << cols_
                               << " vs dense rows " << x.rows();
  ECG_CHECK(y->rows() == rows_ && y->cols() == x.cols())
      << "SpMMRows output must be pre-sized to " << rows_ << "x" << x.cols();
  Accumulate(*this, x, Matrix(), &row_ids, y);
}

void CsrMatrix::SpMMRows(const Matrix& top, const Matrix& bottom,
                         const std::vector<uint32_t>& row_ids,
                         Matrix* y) const {
  CheckStacked("SpMMRows", cols_, top, bottom);
  ECG_CHECK(y->rows() == rows_ && y->cols() == top.cols())
      << "SpMMRows output must be pre-sized to " << rows_ << "x"
      << top.cols();
  Accumulate(*this, top, bottom, &row_ids, y);
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
