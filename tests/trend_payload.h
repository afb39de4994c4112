#ifndef ECGRAPH_TESTS_TREND_PAYLOAD_H_
#define ECGRAPH_TESTS_TREND_PAYLOAD_H_

// The ReqEC trend payload (EncodeNonzeroRows, DESIGN.md §8) built and read
// field by field, for tests that check the encoder's bytes or mutate them.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/coded_block.h"

namespace ecg::test {

/// Tags of a block (its first byte).
constexpr uint8_t kRawBlockTag = 0;
constexpr uint8_t kCodedBlockTag = 1;

/// Bytes of a raw block before its data: the tag and a u64 length.
constexpr size_t kRawBlockHeader = 1 + sizeof(uint64_t);

/// Blocks of a trend payload: the bitmap, then byte planes 0..3.
constexpr size_t kTrendBlocks = 1 + sizeof(float);

/// Where a block starts and ends in a buffer, and its tag.
struct BlockExtent {
  size_t at = 0, end = 0;
  uint8_t tag = 0;
};

/// Appends bytes[0, n) as one block: coded by AppendCodedBlock, or, with
/// `raw`, a raw block whatever coding would save.
inline void AppendTestBlock(const uint8_t* bytes, size_t n, bool raw,
                            std::vector<uint8_t>* buf) {
  ByteWriter w(buf);
  if (!raw) return AppendCodedBlock(bytes, n, &w);
  w.PutU8(kRawBlockTag);
  w.PutU64(n);
  buf->insert(buf->end(), bytes, bytes + n);
}

/// A trend payload: u32 rows, u32 cols, u64 nnz, then the bitmap `map`
/// and the four byte planes of `floats`, each one block (raw ones with
/// `raw`).
inline std::vector<uint8_t> AssembleTrendPayload(
    uint32_t rows, uint32_t cols, uint64_t nnz,
    const std::vector<uint8_t>& map, const std::vector<float>& floats,
    bool raw) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutU32(rows);
  w.PutU32(cols);
  w.PutU64(nnz);
  AppendTestBlock(map.data(), map.size(), raw, &buf);
  std::vector<uint8_t> plane(floats.size());
  for (size_t p = 0; p < sizeof(float); ++p) {
    for (size_t i = 0; i < floats.size(); ++i) {
      plane[i] = static_cast<uint8_t>(std::bit_cast<uint32_t>(floats[i]) >>
                                      (8 * p));
    }
    AppendTestBlock(plane.data(), plane.size(), raw, &buf);
  }
  return buf;
}

/// The five blocks of a well-formed trend payload that starts at
/// payload[at], read off the layout: a raw block is its header and data;
/// a coded one is the tag, the 32-byte symbol map, the 12-bit frequencies,
/// the check word, a u32 stream length and the stream.
inline std::vector<BlockExtent> TrendBlockExtents(
    const std::vector<uint8_t>& payload, size_t at) {
  std::vector<BlockExtent> blocks;
  at += 2 * sizeof(uint32_t) + sizeof(uint64_t);  // rows, cols, nnz
  for (size_t b = 0; b < kTrendBlocks; ++b) {
    BlockExtent e{at, 0, payload[at]};
    if (e.tag == kRawBlockTag) {
      uint64_t n = 0;
      std::memcpy(&n, &payload[at + 1], sizeof(n));
      e.end = at + kRawBlockHeader + n;
    } else {
      size_t nsym = 0;
      for (size_t i = 0; i < 32; ++i) {
        nsym += std::popcount(payload[at + 1 + i]);
      }
      const size_t len_at = at + 1 + 32 + (12 * nsym + 7) / 8 + 4;
      uint32_t len = 0;
      std::memcpy(&len, &payload[len_at], sizeof(len));
      e.end = len_at + sizeof(len) + len;
    }
    blocks.push_back(e);
    at = e.end;
  }
  return blocks;
}

}  // namespace ecg::test

#endif  // ECGRAPH_TESTS_TREND_PAYLOAD_H_
