#include "core/wire_util.h"

#include <bit>

#include "common/coded_block.h"
#include "common/kernels.h"

namespace ecg::core {

namespace {

/// Float bytes, one per byte plane.
constexpr size_t kPlanes = sizeof(float);

/// Per-thread scratch of the trend codec: the bitmap and the byte planes
/// of the thread's last message, and one row of kept floats.
struct NonzeroScratch {
  ScratchBuffer map, planes, row;
};

NonzeroScratch& Scratch() {
  thread_local NonzeroScratch scratch;
  return scratch;
}

/// Byte p of float i of `floats` (n of them) to planes[p * stride + i].
void SplitPlanes(const uint8_t* __restrict floats, size_t n,
                 uint8_t* __restrict planes, size_t stride) {
  uint8_t* __restrict p0 = planes;
  uint8_t* __restrict p1 = planes + stride;
  uint8_t* __restrict p2 = planes + 2 * stride;
  uint8_t* __restrict p3 = planes + 3 * stride;
  for (size_t i = 0; i < n; ++i) {
    p0[i] = floats[4 * i];
    p1[i] = floats[4 * i + 1];
    p2[i] = floats[4 * i + 2];
    p3[i] = floats[4 * i + 3];
  }
}

/// Byte p of float i to floats[4 * i + p], from n bytes of each plane.
void MergePlanes(const uint8_t* __restrict p0, const uint8_t* __restrict p1,
                 const uint8_t* __restrict p2, const uint8_t* __restrict p3,
                 size_t n, uint8_t* __restrict floats) {
  for (size_t i = 0; i < n; ++i) {
    floats[4 * i] = p0[i];
    floats[4 * i + 1] = p1[i];
    floats[4 * i + 2] = p2[i];
    floats[4 * i + 3] = p3[i];
  }
}

/// Set bits among bits [bit0, bit0 + n) of map.
uint64_t CountBits(const uint8_t* map, uint64_t bit0, size_t n) {
  uint64_t b = bit0, set = 0;
  const uint64_t end = bit0 + n;
  for (; b < end && b % 8 != 0; ++b) set += (map[b / 8] >> (b % 8)) & 1u;
  for (; b + 64 <= end; b += 64) {
    uint64_t word;
    std::memcpy(&word, map + b / 8, sizeof(word));
    set += std::popcount(word);
  }
  for (; b + 8 <= end; b += 8) set += std::popcount(map[b / 8]);
  for (; b < end; ++b) set += (map[b / 8] >> (b % 8)) & 1u;
  return set;
}

}  // namespace

void EncodeNonzeroRows(const tensor::Matrix& m,
                       const std::vector<uint32_t>& rows, ByteWriter* w) {
  const size_t cols = m.cols();
  const uint64_t count = static_cast<uint64_t>(rows.size()) * cols;
  const size_t map_bytes = (count + 7) / 8;
  NonzeroScratch& s = Scratch();
  uint8_t* const map = s.map.Get(map_bytes);
  std::memset(map, 0, map_bytes);
  // Plane p at p * count, room for every float; only the pages of the kept
  // ones are touched.
  uint8_t* const planes = s.planes.Get(count * kPlanes);
  uint8_t* const row = s.row.Get(cols * sizeof(float));
  const kern::Kernels& k = kern::Active();
  uint64_t nnz = 0, bit = 0;
  for (uint32_t r : rows) {
    const size_t kept = k.nonzero_pack(m.Row(r), cols, bit, map, row);
    SplitPlanes(row, kept, planes + nnz, count);
    nnz += kept;
    bit += cols;
  }
  // Room for every block raw and every element kept. A buffer sized by
  // this dense bound is mapped afresh and handed back when the message is
  // freed; sized by nnz, the allocator kept it (products-gcn-ec peak RSS
  // +7 MB).
  w->Reserve(16 + 5 * (1 + sizeof(uint64_t)) + map_bytes + count * kPlanes);
  w->PutU32(static_cast<uint32_t>(rows.size()));
  w->PutU32(static_cast<uint32_t>(cols));
  w->PutU64(nnz);
  AppendCodedBlock(map, map_bytes, w);
  for (size_t p = 0; p < kPlanes; ++p) {
    AppendCodedBlock(planes + p * count, nnz, w);
  }
}

Status DecodeNonzeroRows(ByteReader* r, uint32_t rows, uint32_t cols,
                         NonzeroRows* out) {
  NonzeroRows nz;
  ECG_RETURN_IF_ERROR(r->GetU32(&nz.rows));
  ECG_RETURN_IF_ERROR(r->GetU32(&nz.cols));
  ECG_RETURN_IF_ERROR(r->GetU64(&nz.nnz));
  if (nz.rows != rows || nz.cols != cols) {
    return Status::InvalidArgument(
        "nonzero rows are " + std::to_string(nz.rows) + "x" +
        std::to_string(nz.cols) + "; the receiver takes " +
        std::to_string(rows) + "x" + std::to_string(cols));
  }
  const uint64_t count = static_cast<uint64_t>(rows) * cols;
  if (nz.nnz > count) {
    return Status::InvalidArgument(
        "nonzero rows claim " + std::to_string(nz.nnz) + " nonzeros of " +
        std::to_string(count) + " elements");
  }
  const size_t map_bytes = (count + 7) / 8;
  NonzeroScratch& s = Scratch();
  ECG_RETURN_IF_ERROR(
      ParseCodedBlock(r, map_bytes, s.map.Get(map_bytes), &nz.bitmap));
  uint64_t set = 0;
  for (size_t b = 0; b < map_bytes; ++b) set += std::popcount(nz.bitmap[b]);
  if (set != nz.nnz) {
    return Status::InvalidArgument(
        "nonzero rows bitmap has " + std::to_string(set) +
        " bits set for " + std::to_string(nz.nnz) + " nonzeros");
  }
  if (count % 8 != 0 && (nz.bitmap[map_bytes - 1] >> (count % 8)) != 0) {
    return Status::InvalidArgument("nonzero rows bitmap sets bits past " +
                                   std::to_string(count) + " elements");
  }
  // Only coded planes touch their part of the scratch.
  uint8_t* const planes = s.planes.Get(nz.nnz * kPlanes);
  for (size_t p = 0; p < kPlanes; ++p) {
    ECG_RETURN_IF_ERROR(
        ParseCodedBlock(r, nz.nnz, planes + p * nz.nnz, &nz.planes[p]));
  }
  *out = nz;
  return Status::OK();
}

void ExpandNonzeroRows(const NonzeroRows& nz,
                       const std::vector<uint32_t>& dst_rows,
                       tensor::Matrix* dst) {
  const kern::Kernels& k = kern::Active();
  uint8_t* const row = Scratch().row.Get(nz.cols * sizeof(float));
  uint64_t bit = 0, kept = 0;
  for (uint32_t dr : dst_rows) {
    const uint64_t in_row = CountBits(nz.bitmap, bit, nz.cols);
    MergePlanes(nz.planes[0] + kept, nz.planes[1] + kept,
                nz.planes[2] + kept, nz.planes[3] + kept, in_row, row);
    k.nonzero_unpack(nz.bitmap, bit, nz.cols, row, dst->Row(dr));
    kept += in_row;
    bit += nz.cols;
  }
}

}  // namespace ecg::core
