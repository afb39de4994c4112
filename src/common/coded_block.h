#ifndef ECGRAPH_COMMON_CODED_BLOCK_H_
#define ECGRAPH_COMMON_CODED_BLOCK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/bytes.h"
#include "common/status.h"

namespace ecg {

/// A grow-only byte buffer that is never value-initialized, so only the
/// pages a message actually writes become resident. Held thread_local by
/// the codecs and reused across messages, so a message allocates nothing.
class ScratchBuffer {
 public:
  /// At least n bytes (never null), contents unspecified; valid until the
  /// next Get.
  uint8_t* Get(size_t n) {
    if (!buf_ || size_ < n) {
      size_ = std::max<size_t>(n, 1);
      buf_.reset(new uint8_t[size_]);
    }
    return buf_.get();
  }

 private:
  std::unique_ptr<uint8_t[]> buf_;
  size_t size_ = 0;
};

/// One entropy-coded block: the form every compressed payload ships its
/// bulk bytes in (the quantizer's packed ids, the ReqEC trend response's
/// bitmap and float byte planes, the ReqEC selector array; DESIGN.md §8).
/// The n input bytes are written as the shorter of
///   coded: u8 1, a 32-byte symbol map, the present symbols' 12-bit
///          frequencies minus one (packed little-endian, zero-padded to a
///          byte), a u32 check word over the input, a u32 stream length
///          and an order-0 kern::rans_encode stream;
///   raw:   u8 0, u64 n, the n bytes;
/// raw on a tie. The length n is not coded: the receiver derives it from
/// fields it has already checked and passes it to ParseCodedBlock.
void AppendCodedBlock(const uint8_t* in, size_t n, ByteWriter* w);

/// Reads a block of exactly n bytes and points *bytes at them: at a raw
/// block's bytes where they lie in r's buffer, or at out[0, n), which a
/// coded block decodes into. Total on any input: an unknown tag, a raw
/// length other than n, a malformed frequency table, a stream that does
/// not decode to n bytes or fails the check word returns an error.
/// Nothing is sized by a field of the block, and out is unspecified on
/// error.
Status ParseCodedBlock(ByteReader* r, size_t n, uint8_t* out,
                       const uint8_t** bytes);

/// ParseCodedBlock that leaves the n bytes in out[0, n) either way.
Status ParseCodedBlock(ByteReader* r, size_t n, uint8_t* out);

}  // namespace ecg

#endif  // ECGRAPH_COMMON_CODED_BLOCK_H_
