#include "common/coded_block.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "common/kernels.h"

namespace ecg {

namespace {

/// Tags of a block.
constexpr uint8_t kRawBlock = 0;    // u64 length, then the bytes
constexpr uint8_t kCodedBlock = 1;  // order-0 rANS coding of the bytes

/// Symbol-presence bitmap of the coded block's frequency table.
constexpr size_t kSymbolMapBytes = 256 / 8;

/// Bytes of nsym 12-bit frequencies, packed little-endian.
size_t FreqListBytes(size_t nsym) { return (12 * nsym + 7) / 8; }

/// Byte histogram of p[0, n), over eight interleaved sub-histograms so a
/// repeated byte (ReLU zeros) does not serialize on one counter.
void ByteHistogram(const uint8_t* p, size_t n, uint32_t* hist) {
  constexpr size_t kWays = 8;
  uint32_t h[kWays][256] = {};
  size_t i = 0;
  for (; i + kWays <= n; i += kWays) {
#pragma GCC unroll 8
    for (size_t j = 0; j < kWays; ++j) ++h[j][p[i + j]];
  }
  for (; i < n; ++i) ++h[0][p[i]];
  for (size_t s = 0; s < 256; ++s) {
    hist[s] = 0;
    for (size_t j = 0; j < kWays; ++j) hist[s] += h[j][s];
  }
}

/// Scales a histogram of n > 0 bytes to rANS frequencies: every present
/// byte gets at least 1 and the sum is exactly 1 << kRansScaleBits. The
/// shortfall goes to the most frequent byte; an excess (from bytes raised
/// to 1) comes off the largest frequencies. Integer arithmetic only, so
/// the table, and with it the stream, is the same on every host.
void NormalizeFreqs(const uint32_t* hist, size_t n, uint32_t* freq) {
  constexpr uint64_t kM = uint64_t{1} << kern::kRansScaleBits;
  uint64_t sum = 0;
  uint32_t top = 0;
  for (uint32_t s = 0; s < 256; ++s) {
    freq[s] = hist[s] == 0 ? 0
                           : static_cast<uint32_t>(std::max<uint64_t>(
                                 1, hist[s] * kM / n));
    sum += freq[s];
    if (hist[s] > hist[top]) top = s;
  }
  if (sum < kM) freq[top] += static_cast<uint32_t>(kM - sum);
  while (sum > kM) {
    uint32_t big = 0;
    for (uint32_t s = 1; s < 256; ++s) {
      if (freq[s] > freq[big]) big = s;
    }
    const uint32_t take =
        static_cast<uint32_t>(std::min<uint64_t>(sum - kM, freq[big] / 2));
    freq[big] -= take;
    sum -= take;
  }
}

/// Order-0 entropy of the histogram under `freq`, in bytes: what the
/// rANS stream costs beyond its states, to within a few bytes.
double CodedBytesEstimate(const uint32_t* hist, const uint32_t* freq) {
  double bits = 0.0;
  for (uint32_t s = 0; s < 256; ++s) {
    if (hist[s] == 0) continue;
    bits += hist[s] * (kern::kRansScaleBits - std::log2(freq[s]));
  }
  return bits / 8.0;
}

/// Check word of a coded block, over the bytes it decodes to. The end
/// states alone cannot vouch for a stream: rANS decoders resynchronize, so
/// a corrupted stream can come back to the initial states after a burst of
/// wrong bytes (and a single-symbol stream decodes to any length).
/// Fletcher-style over little-endian 32-bit words (the tail zero-padded),
/// seeded with the length and folded to 32 bits: a changed word moves the
/// plain sum, and changes that cancel there still move the sum of prefix
/// sums.
uint32_t BlockChecksum(const uint8_t* p, size_t n) {
  uint32_t a = static_cast<uint32_t>(n ^ (uint64_t{n} >> 32)), b = 0;
  size_t i = 0;
  for (; i + sizeof(uint32_t) <= n; i += sizeof(uint32_t)) {
    uint32_t v;
    std::memcpy(&v, p + i, sizeof(v));
    a += v;
    b += a;
  }
  if (i < n) {
    uint32_t v = 0;
    std::memcpy(&v, p + i, n - i);
    a += v;
    b += a;
  }
  return a ^ (b * 0x9e3779b1u);
}

/// Bytes of a raw block's tag and length.
constexpr size_t kRawHeader = 1 + sizeof(uint64_t);

/// The coded form of a block: its frequency table, check word and stream.
struct Coding {
  uint32_t freq[256];
  size_t nsym = 0;
  uint32_t check = 0;
  const uint8_t* stream = nullptr;  // in the thread's scratch
  size_t len = 0;

  size_t Bytes() const {
    return 1 + kSymbolMapBytes + FreqListBytes(nsym) + 2 * sizeof(uint32_t) +
           len;
  }
};

/// Codes in[0, n) into *c; false when the raw block is no longer.
bool CodeBytes(const uint8_t* in, size_t n, Coding* c) {
  if (n == 0) return false;
  uint32_t hist[256];
  ByteHistogram(in, n, hist);
  NormalizeFreqs(hist, n, c->freq);
  for (uint32_t f : c->freq) c->nsym += f != 0;
  // Skip the encoder when the states plus the entropy already rule the
  // coding out.
  if (static_cast<double>(c->Bytes() + kern::kRansLanes * sizeof(uint32_t)) +
          CodedBytesEstimate(hist, c->freq) >=
      static_cast<double>(kRawHeader + n)) {
    return false;
  }
  // The stream fills the scratch from its end, so only the pages of the
  // largest coded stream become resident.
  thread_local ScratchBuffer scratch;
  const size_t cap = kern::RansEncodeCapacity(n);
  uint8_t* const buf = scratch.Get(cap);
  c->len = kern::Active().rans_encode(in, n, c->freq, buf, cap);
  c->stream = buf + cap - c->len;
  if (c->Bytes() >= kRawHeader + n) return false;
  c->check = BlockChecksum(in, n);
  return true;
}

/// Writes the coded block to out[0, c.Bytes()).
void WriteCoding(const Coding& c, uint8_t* out) {
  *out++ = kCodedBlock;
  uint8_t* const table = out;
  std::memset(table, 0, kSymbolMapBytes + FreqListBytes(c.nsym));
  uint8_t* list = table + kSymbolMapBytes;
  uint32_t acc = 0, acc_bits = 0;
  for (uint32_t s = 0; s < 256; ++s) {
    if (c.freq[s] == 0) continue;
    table[s / 8] |= static_cast<uint8_t>(1u << (s % 8));
    acc |= (c.freq[s] - 1) << acc_bits;
    for (acc_bits += 12; acc_bits >= 8; acc_bits -= 8, acc >>= 8) {
      *list++ = static_cast<uint8_t>(acc);
    }
  }
  if (acc_bits > 0) *list = static_cast<uint8_t>(acc);
  out = table + kSymbolMapBytes + FreqListBytes(c.nsym);
  const uint32_t len = static_cast<uint32_t>(c.len);
  std::memcpy(out, &c.check, sizeof(c.check));
  std::memcpy(out + sizeof(c.check), &len, sizeof(len));
  std::memcpy(out + 2 * sizeof(uint32_t), c.stream, c.len);
}

}  // namespace

void AppendCodedBlock(const uint8_t* in, size_t n, ByteWriter* w) {
  Coding c;
  if (CodeBytes(in, n, &c)) return WriteCoding(c, w->Extend(c.Bytes()));
  w->PutU8(kRawBlock);
  w->PutU64(n);
  if (n > 0) std::memcpy(w->Extend(n), in, n);
}

Status ParseCodedBlock(ByteReader* r, size_t n, uint8_t* out,
                       const uint8_t** bytes) {
  uint8_t tag = 0;
  ECG_RETURN_IF_ERROR(r->GetU8(&tag));
  if (tag == kRawBlock) {
    uint64_t len = 0;
    ECG_RETURN_IF_ERROR(r->GetU64(&len));
    if (len != n) {
      return Status::InvalidArgument("corrupt block: raw length " +
                                     std::to_string(len) + ", expected " +
                                     std::to_string(n));
    }
    return r->GetSpan(n, bytes);
  }
  if (tag != kCodedBlock) {
    return Status::InvalidArgument("corrupt block: tag " +
                                   std::to_string(tag));
  }
  const uint8_t* map = nullptr;
  ECG_RETURN_IF_ERROR(r->GetSpan(kSymbolMapBytes, &map));
  size_t nsym = 0;
  for (size_t s = 0; s < 256; ++s) nsym += (map[s / 8] >> (s % 8)) & 1u;
  const uint8_t* list = nullptr;
  ECG_RETURN_IF_ERROR(r->GetSpan(FreqListBytes(nsym), &list));
  // Ascending distinct symbols come from the bitmap; each frequency is
  // 1 + a 12-bit field, so only the sum and the padding are left to check.
  uint32_t freq[256] = {};
  uint32_t sum = 0;
  size_t bit = 0;
  for (uint32_t s = 0; s < 256; ++s) {
    if (((map[s / 8] >> (s % 8)) & 1u) == 0) continue;
    const uint32_t field =
        (static_cast<uint32_t>(list[bit / 8]) |
         static_cast<uint32_t>(list[bit / 8 + 1]) << 8) >> (bit % 8);
    freq[s] = (field & 0xfffu) + 1;
    sum += freq[s];
    bit += 12;
  }
  if (nsym % 2 == 1 && (list[bit / 8] >> 4) != 0) {
    return Status::InvalidArgument(
        "corrupt block: frequency table padding is not zero");
  }
  if (sum != (1u << kern::kRansScaleBits)) {
    return Status::InvalidArgument(
        "corrupt block: frequencies sum to " + std::to_string(sum) +
        ", expected " + std::to_string(1u << kern::kRansScaleBits));
  }
  uint32_t check = 0, len = 0;
  const uint8_t* stream = nullptr;
  ECG_RETURN_IF_ERROR(r->GetU32(&check));
  ECG_RETURN_IF_ERROR(r->GetU32(&len));
  ECG_RETURN_IF_ERROR(r->GetSpan(len, &stream));
  if (!kern::Active().rans_decode(stream, len, freq, n, out)) {
    return Status::InvalidArgument(
        "corrupt block: rANS stream of " + std::to_string(len) +
        " bytes does not decode to " + std::to_string(n) + " bytes");
  }
  if (BlockChecksum(out, n) != check) {
    return Status::InvalidArgument(
        "corrupt block: decoded bytes fail their check word");
  }
  *bytes = out;
  return Status::OK();
}

Status ParseCodedBlock(ByteReader* r, size_t n, uint8_t* out) {
  const uint8_t* bytes = nullptr;
  ECG_RETURN_IF_ERROR(ParseCodedBlock(r, n, out, &bytes));
  if (bytes != out && n > 0) std::memcpy(out, bytes, n);
  return Status::OK();
}

}  // namespace ecg
