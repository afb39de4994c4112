#ifndef ECGRAPH_CORE_WIRE_UTIL_H_
#define ECGRAPH_CORE_WIRE_UTIL_H_

#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/kernels.h"
#include "common/status.h"
#include "tensor/matrix.h"

namespace ecg::core {

/// Serializes a dense float matrix (shape + raw rows).
inline void EncodeMatrix(const tensor::Matrix& m, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(m.rows()));
  w->PutU32(static_cast<uint32_t>(m.cols()));
  w->PutU64(m.size());
  w->PutF32Array(m.data(), m.size());
}

/// EncodeMatrix of rows `rows` of m, in that order, without gathering them
/// into a matrix first.
inline void EncodeMatrixRows(const tensor::Matrix& m,
                             const std::vector<uint32_t>& rows,
                             ByteWriter* w) {
  w->Reserve(16 + rows.size() * m.cols() * sizeof(float));
  w->PutU32(static_cast<uint32_t>(rows.size()));
  w->PutU32(static_cast<uint32_t>(m.cols()));
  w->PutU64(static_cast<uint64_t>(rows.size()) * m.cols());
  for (uint32_t r : rows) w->PutF32Array(m.Row(r), m.cols());
}

/// Wire bytes of an EncodeNonzeroRows payload: the 16-byte shape header, a
/// bit per element, and the nonzero floats.
inline uint64_t NonzeroRowsBytes(uint64_t rows, uint64_t cols,
                                 uint64_t nnz) {
  return 16 + (rows * cols + 7) / 8 + nnz * sizeof(float);
}

/// Zero-suppressed EncodeMatrixRows of rows `rows` of m, in that order:
/// u32 rows, u32 cols, u64 nnz, then a bitmap with one bit per element in
/// row-major order (bit e % 8 of byte e / 8 is set iff element e is not
/// +0.0), then the nnz kept floats in the same order. Only all-zero bits
/// count as zero, so -0.0, NaN payloads and denormals ship verbatim and
/// the decode is bit-exact. The bitmap runs on across rows, so a payload
/// is at most 1/32 larger than EncodeMatrixRows (no zeros at all).
inline void EncodeNonzeroRows(const tensor::Matrix& m,
                              const std::vector<uint32_t>& rows,
                              ByteWriter* w) {
  const size_t cols = m.cols();
  const uint64_t count = static_cast<uint64_t>(rows.size()) * cols;
  // The worst case is reserved (not touched) up front, so the pointers
  // below stay valid; each row then takes room for all of its floats and
  // gives back what it did not keep, so only shipped bytes are written.
  w->Reserve(NonzeroRowsBytes(rows.size(), cols, count));
  uint8_t* const head = w->Extend(16 + (count + 7) / 8);
  uint8_t* const map = head + 16;
  const kern::Kernels& k = kern::Active();
  uint64_t nnz = 0, bit = 0;
  for (uint32_t r : rows) {
    uint8_t* out = w->Extend(cols * sizeof(float));
    const size_t kept = k.nonzero_pack(m.Row(r), cols, bit, map, out);
    w->Unwrite((cols - kept) * sizeof(float));
    nnz += kept;
    bit += cols;
  }
  const uint32_t shape[2] = {static_cast<uint32_t>(rows.size()),
                             static_cast<uint32_t>(cols)};
  std::memcpy(head, shape, sizeof(shape));
  std::memcpy(head + 8, &nnz, sizeof(nnz));
}

/// An EncodeNonzeroRows payload DecodeNonzeroRows has checked, viewed in
/// the buffer it was read from.
struct NonzeroRows {
  uint32_t rows = 0, cols = 0;
  uint64_t nnz = 0;
  const uint8_t* bitmap = nullptr;
  const uint8_t* values = nullptr;  // nnz floats, unaligned
};

/// Reads an EncodeNonzeroRows payload and checks all of it without writing
/// anything but *out: the bitmap and the nnz floats are in the buffer, the
/// bitmap's popcount is nnz and no bit is set past rows x cols.
inline Status DecodeNonzeroRows(ByteReader* r, NonzeroRows* out) {
  NonzeroRows nz;
  ECG_RETURN_IF_ERROR(r->GetU32(&nz.rows));
  ECG_RETURN_IF_ERROR(r->GetU32(&nz.cols));
  ECG_RETURN_IF_ERROR(r->GetU64(&nz.nnz));
  const uint64_t count = static_cast<uint64_t>(nz.rows) * nz.cols;
  const uint64_t map_bytes = (count + 7) / 8;
  ECG_RETURN_IF_ERROR(r->GetSpan(map_bytes, &nz.bitmap));
  if (nz.nnz > r->remaining() / sizeof(float)) {
    return Status::OutOfRange(
        "nonzero rows need " + std::to_string(nz.nnz * sizeof(float)) +
        " bytes of floats, " + std::to_string(r->remaining()) + " remain");
  }
  ECG_RETURN_IF_ERROR(r->GetSpan(nz.nnz * sizeof(float), &nz.values));
  uint64_t set = 0;
  for (uint64_t b = 0; b < map_bytes; ++b) set += std::popcount(nz.bitmap[b]);
  if (set != nz.nnz) {
    return Status::InvalidArgument(
        "nonzero rows bitmap has " + std::to_string(set) +
        " bits set for " + std::to_string(nz.nnz) + " nonzeros");
  }
  if (count % 8 != 0 && (nz.bitmap[map_bytes - 1] >> (count % 8)) != 0) {
    return Status::InvalidArgument("nonzero rows bitmap sets bits past " +
                                   std::to_string(count) + " elements");
  }
  *out = nz;
  return Status::OK();
}

/// Writes row i of a checked payload to dst row dst_rows[i]: its kept
/// floats where the bitmap is set, +0.0 elsewhere. The caller has checked
/// that dst_rows has nz.rows in-range entries and dst is nz.cols wide.
inline void ExpandNonzeroRows(const NonzeroRows& nz,
                              const std::vector<uint32_t>& dst_rows,
                              tensor::Matrix* dst) {
  const kern::Kernels& k = kern::Active();
  const uint8_t* values = nz.values;
  uint64_t bit = 0;
  for (uint32_t dr : dst_rows) {
    values += k.nonzero_unpack(nz.bitmap, bit, nz.cols, values, dst->Row(dr)) *
              sizeof(float);
    bit += nz.cols;
  }
}

/// Reads EncodeMatrix's shape header and checks it against what follows:
/// the element count must be rows x cols and its floats must all be in
/// the buffer. The caller then reads the rows x cols floats.
inline Status DecodeMatrixHeader(ByteReader* r, uint32_t* rows,
                                 uint32_t* cols) {
  uint64_t count = 0;
  ECG_RETURN_IF_ERROR(r->GetU32(rows));
  ECG_RETURN_IF_ERROR(r->GetU32(cols));
  ECG_RETURN_IF_ERROR(r->GetU64(&count));
  if (count != static_cast<uint64_t>(*rows) * *cols) {
    return Status::InvalidArgument(
        "matrix wire size mismatch: header says " + std::to_string(*rows) +
        "x" + std::to_string(*cols) + " (" +
        std::to_string(static_cast<uint64_t>(*rows) * *cols) +
        " elements) but carries " + std::to_string(count));
  }
  if (count > r->remaining() / sizeof(float)) {
    return Status::OutOfRange(
        "matrix payload exceeds buffer: needs " +
        std::to_string(count * sizeof(float)) + " bytes, " +
        std::to_string(r->remaining()) + " remain");
  }
  return Status::OK();
}

inline Status DecodeMatrix(ByteReader* r, tensor::Matrix* out) {
  uint32_t rows = 0, cols = 0;
  ECG_RETURN_IF_ERROR(DecodeMatrixHeader(r, &rows, &cols));
  out->Reset(rows, cols);
  return r->GetF32Array(out->data(), out->size());
}

/// dst.Row(indices[i]) = src.Row(i) (assignment, not accumulation).
inline Status AssignRows(const tensor::Matrix& src,
                         const std::vector<uint32_t>& indices,
                         tensor::Matrix* dst) {
  if (src.rows() != indices.size() || src.cols() != dst->cols()) {
    return Status::InvalidArgument("AssignRows shape mismatch");
  }
  for (size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= dst->rows()) {
      return Status::OutOfRange("AssignRows index out of range");
    }
    std::memcpy(dst->Row(indices[i]), src.Row(i),
                src.cols() * sizeof(float));
  }
  return Status::OK();
}

}  // namespace ecg::core

#endif  // ECGRAPH_CORE_WIRE_UTIL_H_
