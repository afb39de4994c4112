#ifndef ECGRAPH_CORE_WIRE_UTIL_H_
#define ECGRAPH_CORE_WIRE_UTIL_H_

#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
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
