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

/// Zero-suppressed EncodeMatrixRows of rows `rows` of m, in that order:
/// u32 rows, u32 cols, u64 nnz, then five coded blocks (AppendCodedBlock,
/// DESIGN.md §8). The first is a bitmap with one bit per element in
/// row-major order (bit e % 8 of byte e / 8 is set iff element e is not
/// +0.0). Plane k = 0..3 follows: byte k of each of the nnz kept floats, in
/// element order (plane 3 holds the sign and seven exponent bits; on ReLU
/// activations it is the plane that codes). Only all-zero bits count as
/// zero, so -0.0, NaN payloads and denormals ship verbatim and the decode
/// is bit-exact. Each block falls back to raw when coding does not pay, so
/// a payload is at most 1/32 plus 46 bytes larger than EncodeMatrixRows
/// (no zeros at all).
void EncodeNonzeroRows(const tensor::Matrix& m,
                       const std::vector<uint32_t>& rows, ByteWriter* w);

/// An EncodeNonzeroRows payload DecodeNonzeroRows has checked. Raw blocks
/// are viewed where they lie in the buffer it was read from, coded ones in
/// the calling thread's scratch: valid while that buffer lives, until the
/// thread's next EncodeNonzeroRows or DecodeNonzeroRows.
struct NonzeroRows {
  uint32_t rows = 0, cols = 0;
  uint64_t nnz = 0;
  const uint8_t* bitmap = nullptr;
  const uint8_t* planes[sizeof(float)] = {};  // nnz bytes each
};

/// Reads an EncodeNonzeroRows payload of the receiver's `rows` x `cols`
/// and checks all of it without writing anything but *out and the thread's
/// scratch: the header's shape is the expected one and nnz fits in it
/// (before either sizes anything), every block decodes, the bitmap's
/// popcount is nnz and no bit is set past rows x cols.
Status DecodeNonzeroRows(ByteReader* r, uint32_t rows, uint32_t cols,
                         NonzeroRows* out);

/// Writes row i of a checked payload to dst row dst_rows[i]: its kept
/// floats where the bitmap is set, +0.0 elsewhere. The caller has checked
/// that dst_rows has nz.rows in-range entries and dst is nz.cols wide.
void ExpandNonzeroRows(const NonzeroRows& nz,
                       const std::vector<uint32_t>& dst_rows,
                       tensor::Matrix* dst);

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

/// Every halo payload is consumed exactly: a decoder calls this on its
/// reader before it writes any halo row, so a payload with bytes after
/// its last field is refused (`what` names the payload).
inline Status CheckConsumed(const ByteReader& r, const char* what) {
  if (r.remaining() == 0) return Status::OK();
  return Status::InvalidArgument(std::string(what) + " has " +
                                 std::to_string(r.remaining()) +
                                 " trailing bytes");
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
