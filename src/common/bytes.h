#ifndef ECGRAPH_COMMON_BYTES_H_
#define ECGRAPH_COMMON_BYTES_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace ecg {

/// Append-only little-endian byte sink used by every wire codec. The
/// simulated transport ships exactly these bytes, so message sizes in
/// CommStats are byte-accurate (this is what makes the compression-ratio
/// results exact rather than modelled).
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}

  /// Makes room for `n` more bytes, so a large payload written in pieces
  /// grows the buffer at most once (still geometrically).
  void Reserve(size_t n) {
    const size_t need = out_->size() + n;
    if (need > out_->capacity()) {
      out_->reserve(std::max(need, 2 * out_->capacity()));
    }
  }

  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutF32(float v) { PutRaw(&v, sizeof(v)); }

  void PutU32Vector(const std::vector<uint32_t>& v) {
    PutU64(v.size());
    PutRaw(v.data(), v.size() * sizeof(uint32_t));
  }
  void PutF32Vector(const std::vector<float>& v) {
    PutU64(v.size());
    PutRaw(v.data(), v.size() * sizeof(float));
  }
  void PutBytes(const std::vector<uint8_t>& v) {
    PutU64(v.size());
    PutRaw(v.data(), v.size());
  }
  /// Bulk write of `n` floats with no length prefix (caller knows n).
  void PutF32Array(const float* p, size_t n) { PutRaw(p, n * sizeof(float)); }

  /// Appends `n` zero bytes and returns where they start, for a codec that
  /// fills its payload in place; valid until the next write.
  uint8_t* Extend(size_t n) {
    out_->resize(out_->size() + n);
    return out_->data() + out_->size() - n;
  }
  /// Drops the last `n` bytes written (an in-place payload that came out
  /// shorter than the bound Extend reserved).
  void Unwrite(size_t n) { out_->resize(out_->size() - n); }

 private:
  void PutRaw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), p, p + n);
  }

  std::vector<uint8_t>* out_;
};

/// Bounds-checked reader over a byte buffer written by ByteWriter.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  size_t remaining() const { return size_ - pos_; }

  Status GetU8(uint8_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU32(uint32_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU64(uint64_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetF32(float* v) { return GetRaw(v, sizeof(*v)); }

  Status GetU32Vector(std::vector<uint32_t>* v) {
    uint64_t n = 0;
    ECG_RETURN_IF_ERROR(GetU64(&n));
    if (n > remaining() / sizeof(uint32_t)) {
      return Status::OutOfRange("u32 vector length exceeds buffer");
    }
    v->resize(n);
    return GetRaw(v->data(), n * sizeof(uint32_t));
  }
  Status GetF32Vector(std::vector<float>* v) {
    uint64_t n = 0;
    ECG_RETURN_IF_ERROR(GetU64(&n));
    if (n > remaining() / sizeof(float)) {
      return Status::OutOfRange("f32 vector length exceeds buffer");
    }
    v->resize(n);
    return GetRaw(v->data(), n * sizeof(float));
  }
  /// Bulk read of `n` floats (no length prefix).
  Status GetF32Array(float* p, size_t n) {
    if (n > remaining() / sizeof(float)) {
      return Status::OutOfRange("f32 array length exceeds buffer");
    }
    return GetRaw(p, n * sizeof(float));
  }
  /// The next `n` bytes in place (no copy); the reader moves past them.
  Status GetSpan(size_t n, const uint8_t** p) {
    if (n > remaining()) {
      return Status::OutOfRange("span of " + std::to_string(n) +
                                " bytes exceeds buffer at offset " +
                                std::to_string(pos_));
    }
    *p = data_ + pos_;
    pos_ += n;
    return Status::OK();
  }
  Status GetBytes(std::vector<uint8_t>* v) {
    uint64_t n = 0;
    ECG_RETURN_IF_ERROR(GetU64(&n));
    if (n > remaining()) {
      return Status::OutOfRange("byte vector length exceeds buffer");
    }
    v->resize(n);
    return GetRaw(v->data(), n);
  }

 private:
  // Length checks compare against remaining() rather than adding to pos_
  // or multiplying the element count, so a hostile u64 length cannot wrap.
  Status GetRaw(void* out, size_t n) {
    if (n > remaining()) {
      return Status::OutOfRange("read past end of buffer at offset " +
                                std::to_string(pos_));
    }
    if (n > 0) std::memcpy(out, data_ + pos_, n);  // out may be null at 0
    pos_ += n;
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace ecg

#endif  // ECGRAPH_COMMON_BYTES_H_
