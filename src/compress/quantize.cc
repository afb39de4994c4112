#include "compress/quantize.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <string>

#include "common/bitpack.h"
#include "common/kernels.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace ecg::compress {

namespace {

/// Minimum packed words per parallel chunk of the fused kernels. One word
/// covers up to 32 elements, so this keeps chunks in the tens-of-thousands
/// of floats — large enough that ParallelFor overhead vanishes, small
/// enough that a 4096x128 message still splits across the pool.
constexpr size_t kWordGrain = 1024;

/// Minimum flat elements per chunk of the min/max reduction.
constexpr size_t kElemGrain = 1 << 15;

/// Minimum rows per chunk of the row-wise scatter/gather kernels.
constexpr size_t kRowGrain = 16;

/// Rebuilds the uniform-grid midpoint table from (min, width, bits).
std::vector<float> MidpointTable(float min_value, float width, int bits) {
  std::vector<float> table(1u << bits);
  for (uint32_t b = 0; b < table.size(); ++b) {
    table[b] = min_value + width * (static_cast<float>(b) + 0.5f);
  }
  return table;
}

/// Bucket id of value v given the precomputed reciprocal bucket width.
/// `top` is num_buckets - 1.
inline uint32_t BucketOf(float v, float mn, float inv_width, uint32_t top) {
  const float rel = (v - mn) * inv_width;
  if (rel <= 0.0f) return 0u;
  const uint32_t id = static_cast<uint32_t>(rel);
  return id < top ? id : top;
}

/// Streams the elements of a contiguous buffer.
struct FlatCursor {
  const float* p;
  float Next() { return *p++; }
};

/// Streams the elements of a gathered row view (logical row i is
/// src.Row(indices[i])) in row-major order starting at flat element
/// `begin`, without a div/mod per element. Must only be constructed with
/// begin < indices.size() * cols.
class RowCursor {
 public:
  RowCursor(const tensor::Matrix& src, const std::vector<uint32_t>& indices,
            size_t begin)
      : src_(src.data()),
        cols_(src.cols()),
        indices_(indices),
        row_(begin / src.cols()),
        col_(begin % src.cols()) {
    ptr_ = src_ + static_cast<size_t>(indices_[row_]) * cols_;
  }

  float Next() {
    const float v = ptr_[col_];
    if (++col_ == cols_) {
      col_ = 0;
      ++row_;
      ptr_ = row_ < indices_.size()
                 ? src_ + static_cast<size_t>(indices_[row_]) * cols_
                 : nullptr;
    }
    return v;
  }

 private:
  const float* src_;
  const size_t cols_;
  const std::vector<uint32_t>& indices_;
  size_t row_;
  size_t col_;
  const float* ptr_;
};

/// Per-chunk bucket statistics for BucketValueMode::kDataMean.
struct BucketHist {
  std::vector<double> sums;
  std::vector<uint64_t> counts;
};

/// The fused quantize inner loop: bucket-assigns the elements backing
/// packed words [word_begin, word_end) and ORs the ids straight into the
/// output words (each word is owned by exactly one chunk, so no races and
/// no intermediate id vector). Accumulates the kDataMean histogram when
/// `hist` is non-null. BITS is a template parameter so the per-word loop
/// is fully unrolled with compile-time shift amounts.
template <int BITS, typename Cursor>
void PackWords(Cursor cursor, size_t count, size_t word_begin,
               size_t word_end, float mn, float inv_width, uint32_t* packed,
               BucketHist* hist) {
  constexpr size_t kPerWord = 32 / static_cast<size_t>(BITS);
  constexpr uint32_t kTop = (1u << BITS) - 1;
  size_t i = word_begin * kPerWord;
  for (size_t w = word_begin; w < word_end; ++w) {
    const size_t n = std::min(kPerWord, count - i);
    uint32_t word = 0;
    if (hist == nullptr && n == kPerWord) {
      // Hot path: a full word with no histogram — unrolled, constant
      // shifts, no per-element bookkeeping.
      for (size_t j = 0; j < kPerWord; ++j) {
        word |= BucketOf(cursor.Next(), mn, inv_width, kTop)
                << (j * BITS);
      }
      i += kPerWord;
    } else {
      int shift = 0;
      for (size_t j = 0; j < n; ++j, ++i, shift += BITS) {
        const float v = cursor.Next();
        const uint32_t id = BucketOf(v, mn, inv_width, kTop);
        word |= id << shift;
        if (hist) {
          hist->sums[id] += static_cast<double>(v);
          ++hist->counts[id];
        }
      }
    }
    packed[w] = word;
  }
}

/// Runtime-to-compile-time bit-width dispatch for the pack kernel.
template <typename Cursor>
void PackWordsDispatch(int bits, Cursor cursor, size_t count,
                       size_t word_begin, size_t word_end, float mn,
                       float inv_width, uint32_t* packed, BucketHist* hist) {
  switch (bits) {
    case 1:
      PackWords<1>(cursor, count, word_begin, word_end, mn, inv_width,
                   packed, hist);
      break;
    case 2:
      PackWords<2>(cursor, count, word_begin, word_end, mn, inv_width,
                   packed, hist);
      break;
    case 4:
      PackWords<4>(cursor, count, word_begin, word_end, mn, inv_width,
                   packed, hist);
      break;
    case 8:
      PackWords<8>(cursor, count, word_begin, word_end, mn, inv_width,
                   packed, hist);
      break;
    case 16:
      PackWords<16>(cursor, count, word_begin, word_end, mn, inv_width,
                    packed, hist);
      break;
    default:
      ECG_CHECK(false) << "unreachable bit width " << bits;
  }
}

/// Parallel min/max over a contiguous buffer; the per-chunk scan is the
/// dispatched kern::minmax kernel. Merging per-chunk bounds is
/// commutative, so the result is exact regardless of chunking. NaNs lose
/// every comparison and are skipped unless they land first in a chunk —
/// same contract as the std::minmax_element scan this replaces; the
/// finite-ness check downstream is on the bounds, not every element.
void MinMaxFlat(const float* data, size_t count, float* mn_out, float* mx_out) {
  std::mutex mu;
  float g_mn = data[0], g_mx = data[0];
  const kern::Kernels& k = kern::Active();
  ThreadPool::Global().ParallelFor(
      count, kElemGrain, [&](size_t begin, size_t end) {
        float mn, mx;
        k.minmax(data + begin, end - begin, &mn, &mx);
        std::lock_guard<std::mutex> lock(mu);
        if (mn < g_mn) g_mn = mn;
        if (mx > g_mx) g_mx = mx;
      });
  *mn_out = g_mn;
  *mx_out = g_mx;
}

/// Parallel min/max over a gathered row view.
void MinMaxRows(const tensor::Matrix& m, const std::vector<uint32_t>& rows,
                float* mn_out, float* mx_out) {
  std::mutex mu;
  const size_t cols = m.cols();
  float g_mn = m.Row(rows[0])[0], g_mx = g_mn;
  ThreadPool::Global().ParallelFor(
      rows.size(), kRowGrain, [&](size_t begin, size_t end) {
        float mn = m.Row(rows[begin])[0], mx = mn;
        for (size_t r = begin; r < end; ++r) {
          const float* row = m.Row(rows[r]);
          for (size_t c = 0; c < cols; ++c) {
            const float v = row[c];
            if (v < mn) mn = v;
            if (v > mx) mx = v;
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        if (mn < g_mn) g_mn = mn;
        if (mx > g_mx) g_mx = mx;
      });
  *mn_out = g_mn;
  *mx_out = g_mx;
}

/// Shared implementation of Quantize / QuantizeRows. `rows` selects a
/// gathered view of `m` when non-null; bucket assignment and wire bytes
/// are identical to quantizing the materialized GatherRows copy.
Result<QuantizedMatrix> QuantizeImpl(const tensor::Matrix& m,
                                     const std::vector<uint32_t>* rows,
                                     const QuantizerOptions& options) {
  if (!IsSupportedBitWidth(options.bits)) {
    return Status::InvalidArgument("unsupported quantizer bits " +
                                   std::to_string(options.bits));
  }
  if (rows != nullptr) {
    for (uint32_t r : *rows) {
      if (r >= m.rows()) {
        return Status::OutOfRange("quantize row " + std::to_string(r) +
                                  " out of range");
      }
    }
  }
  const size_t nrows = rows ? rows->size() : m.rows();
  const size_t cols = m.cols();
  const size_t count = nrows * cols;
  const uint32_t num_buckets = 1u << options.bits;

  float mn = 0.0f, mx = 0.0f;
  if (count > 0) {
    if (rows) {
      MinMaxRows(m, *rows, &mn, &mx);
    } else {
      MinMaxFlat(m.data(), count, &mn, &mx);
    }
    if (!std::isfinite(mn) || !std::isfinite(mx)) {
      return Status::InvalidArgument("quantizer input has non-finite values");
    }
  }
  const float range = mx - mn;
  const float width = range > 0.0f ? range / static_cast<float>(num_buckets)
                                   : 1.0f;
  const float inv_width = 1.0f / width;

  QuantizedMatrix q;
  q.rows = static_cast<uint32_t>(nrows);
  q.cols = static_cast<uint32_t>(cols);
  q.bits = options.bits;
  q.min_value = mn;
  q.bucket_width = width;
  q.packed_ids.assign(PackedWordCount(count, options.bits), 0u);

  const bool data_mean =
      options.value_mode == BucketValueMode::kDataMean && count > 0;

  // One fused pass: bucket ids computed and packed word-at-a-time. Chunks
  // are word-aligned so each output word has a single writer; the chunk
  // partition is fixed up front so the kDataMean histograms can be merged
  // in deterministic chunk order afterwards.
  const size_t num_words = q.packed_ids.size();
  const size_t max_chunks = ThreadPool::Global().num_threads() + 1;
  const size_t chunk_words =
      std::max(kWordGrain, (num_words + max_chunks - 1) / max_chunks);
  const size_t num_chunks = (num_words + chunk_words - 1) / chunk_words;
  const size_t per_word = 32 / static_cast<size_t>(options.bits);
  std::vector<BucketHist> hists(data_mean ? num_chunks : 0);
  ThreadPool::Global().ParallelFor(
      num_chunks, 1, [&](size_t chunk_begin, size_t chunk_end) {
        for (size_t c = chunk_begin; c < chunk_end; ++c) {
          const size_t wb = c * chunk_words;
          const size_t we = std::min(num_words, wb + chunk_words);
          BucketHist* hist = nullptr;
          if (data_mean) {
            hist = &hists[c];
            hist->sums.assign(num_buckets, 0.0);
            hist->counts.assign(num_buckets, 0);
          }
          if (rows) {
            PackWordsDispatch(options.bits, RowCursor(m, *rows, wb * per_word),
                              count, wb, we, mn, inv_width,
                              q.packed_ids.data(), hist);
          } else if (hist) {
            PackWordsDispatch(options.bits,
                              FlatCursor{m.data() + wb * per_word}, count, wb,
                              we, mn, inv_width, q.packed_ids.data(), hist);
          } else {
            // Contiguous input, no histogram: the dispatched flat kernel
            // (vectorizable block clamp + compile-time shifts; scalar and
            // SIMD variants are bit-identical by contract).
            kern::Active().pack_flat(options.bits, m.data(), count, wb, we,
                                     mn, inv_width, q.packed_ids.data());
          }
        }
      });

  q.bucket_values.resize(num_buckets);
  if (!data_mean) {
    q.implicit_midpoints = true;
    for (uint32_t b = 0; b < num_buckets; ++b) {
      q.bucket_values[b] = mn + width * (static_cast<float>(b) + 0.5f);
    }
  } else {
    // Data mean per bucket; empty buckets fall back to the midpoint.
    std::vector<double> sums(num_buckets, 0.0);
    std::vector<uint64_t> counts(num_buckets, 0);
    for (const BucketHist& hist : hists) {
      for (uint32_t b = 0; b < num_buckets; ++b) {
        sums[b] += hist.sums[b];
        counts[b] += hist.counts[b];
      }
    }
    for (uint32_t b = 0; b < num_buckets; ++b) {
      q.bucket_values[b] =
          counts[b] > 0
              ? static_cast<float>(sums[b] / static_cast<double>(counts[b]))
              : mn + width * (static_cast<float>(b) + 0.5f);
    }
  }
  return q;
}

/// Validates the fields every decode path depends on.
Status CheckDecodable(const QuantizedMatrix& q) {
  if (!IsSupportedBitWidth(q.bits) ||
      q.bucket_values.size() != (1u << q.bits)) {
    return Status::InvalidArgument("malformed quantized matrix");
  }
  const size_t count = static_cast<size_t>(q.rows) * q.cols;
  if (q.packed_ids.size() < PackedWordCount(count, q.bits)) {
    return Status::InvalidArgument("packed buffer too small for count");
  }
  return Status::OK();
}

/// ORs `nbits` bits of src starting at absolute bit src_bit into dst at
/// dst_bit. dst words must be zero-initialized.
void CopyBitRange(const uint32_t* src, size_t src_bit, uint32_t* dst,
                  size_t dst_bit, size_t nbits) {
  while (nbits > 0) {
    const size_t ss = src_bit & 31;
    const size_t ds = dst_bit & 31;
    const size_t take = std::min(nbits, 32 - std::max(ss, ds));
    const uint32_t mask =
        take >= 32 ? ~0u : ((1u << take) - 1);
    const uint32_t chunk = (src[src_bit >> 5] >> ss) & mask;
    dst[dst_bit >> 5] |= chunk << ds;
    src_bit += take;
    dst_bit += take;
    nbits -= take;
  }
}

/// Decodes q row by row: row i's elements go to row_out(i)[c] through
/// apply(element, bucket value). Supported widths never straddle a word,
/// so each element is one shift+mask. Rows are independent, so targets
/// must not overlap.
template <typename RowOut, typename Apply>
void DecodeRows(const QuantizedMatrix& q, const RowOut& row_out,
                const Apply& apply) {
  const uint32_t mask = (1u << q.bits) - 1;
  const int bits = q.bits;
  const size_t cols = q.cols;
  const size_t row_bits = cols * static_cast<size_t>(bits);
  const float* table = q.bucket_values.data();
  const uint32_t* packed = q.packed_ids.data();
  ThreadPool::Global().ParallelFor(
      q.rows, kRowGrain, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          size_t w = (i * row_bits) >> 5;
          int shift = static_cast<int>((i * row_bits) & 31);
          float* out = row_out(i);
          for (size_t c = 0; c < cols; ++c) {
            apply(out[c], table[(packed[w] >> shift) & mask]);
            shift += bits;
            if (shift == 32) {
              shift = 0;
              ++w;
            }
          }
        }
      });
}

}  // namespace

size_t QuantizedMatrix::WireBytes() const {
  // rows + cols + bits + table-mode flag + table (implicit: min & width;
  // explicit: length-prefixed floats) + length-prefixed packed IDs.
  const size_t table_bytes =
      implicit_midpoints ? 2 * sizeof(float)
                         : sizeof(uint64_t) +
                               bucket_values.size() * sizeof(float);
  return sizeof(rows) + sizeof(cols) + 1 + 1 + table_bytes +
         sizeof(uint64_t) + packed_ids.size() * sizeof(uint32_t);
}

void QuantizedMatrix::AppendTo(ecg::ByteWriter* w) const {
  w->PutU32(rows);
  w->PutU32(cols);
  w->PutU8(static_cast<uint8_t>(bits));
  w->PutU8(implicit_midpoints ? 1 : 0);
  if (implicit_midpoints) {
    w->PutF32(min_value);
    w->PutF32(bucket_width);
  } else {
    w->PutF32Vector(bucket_values);
  }
  w->PutU32Vector(packed_ids);
}

Status QuantizedMatrix::ParseFrom(ecg::ByteReader* r, QuantizedMatrix* out) {
  uint8_t bits8 = 0, implicit = 0;
  ECG_RETURN_IF_ERROR(r->GetU32(&out->rows));
  ECG_RETURN_IF_ERROR(r->GetU32(&out->cols));
  ECG_RETURN_IF_ERROR(r->GetU8(&bits8));
  ECG_RETURN_IF_ERROR(r->GetU8(&implicit));
  out->bits = bits8;
  out->implicit_midpoints = implicit != 0;
  if (!IsSupportedBitWidth(out->bits)) {
    return Status::InvalidArgument(
        "corrupt quantized matrix: unsupported bit width " +
        std::to_string(out->bits) + " (expected 1/2/4/8/16) for " +
        std::to_string(out->rows) + "x" + std::to_string(out->cols));
  }
  if (out->implicit_midpoints) {
    ECG_RETURN_IF_ERROR(r->GetF32(&out->min_value));
    ECG_RETURN_IF_ERROR(r->GetF32(&out->bucket_width));
    out->bucket_values =
        MidpointTable(out->min_value, out->bucket_width, out->bits);
  } else {
    ECG_RETURN_IF_ERROR(r->GetF32Vector(&out->bucket_values));
  }
  ECG_RETURN_IF_ERROR(r->GetU32Vector(&out->packed_ids));
  const size_t count = static_cast<size_t>(out->rows) * out->cols;
  if (out->bucket_values.size() != (1u << out->bits)) {
    return Status::InvalidArgument(
        "corrupt quantized matrix: bucket table has " +
        std::to_string(out->bucket_values.size()) + " entries, expected " +
        std::to_string(1u << out->bits) + " for bits=" +
        std::to_string(out->bits));
  }
  if (out->packed_ids.size() != PackedWordCount(count, out->bits)) {
    return Status::InvalidArgument(
        "corrupt quantized matrix: packed ids hold " +
        std::to_string(out->packed_ids.size()) + " words, expected " +
        std::to_string(PackedWordCount(count, out->bits)) + " for " +
        std::to_string(out->rows) + "x" + std::to_string(out->cols) +
        " at bits=" + std::to_string(out->bits));
  }
  return Status::OK();
}

Result<QuantizedMatrix> Quantize(const tensor::Matrix& m,
                                 const QuantizerOptions& options) {
  return QuantizeImpl(m, nullptr, options);
}

Result<QuantizedMatrix> QuantizeRows(const tensor::Matrix& m,
                                     const std::vector<uint32_t>& rows,
                                     const QuantizerOptions& options) {
  return QuantizeImpl(m, &rows, options);
}

Result<tensor::Matrix> Dequantize(const QuantizedMatrix& q) {
  ECG_RETURN_IF_ERROR(CheckDecodable(q));
  const size_t count = static_cast<size_t>(q.rows) * q.cols;
  tensor::Matrix out(q.rows, q.cols);
  // Fused unpack + table lookup, word-at-a-time: each chunk writes the
  // disjoint element range backing its packed words.
  const float* table = q.bucket_values.data();
  const uint32_t* packed = q.packed_ids.data();
  float* data = out.data();
  const kern::Kernels& k = kern::Active();
  ThreadPool::Global().ParallelFor(
      q.packed_ids.size(), kWordGrain, [&](size_t wb, size_t we) {
        k.unpack_flat(q.bits, packed, count, wb, we, table, data);
      });
  return out;
}

Status DequantizeInto(const QuantizedMatrix& q,
                      const std::vector<uint32_t>& rows,
                      tensor::Matrix* dst) {
  ECG_RETURN_IF_ERROR(CheckDecodable(q));
  if (rows.size() != q.rows || q.cols != dst->cols()) {
    return Status::InvalidArgument("DequantizeInto shape mismatch");
  }
  for (uint32_t r : rows) {
    if (r >= dst->rows()) {
      return Status::OutOfRange("DequantizeInto target row " +
                                std::to_string(r) + " out of range");
    }
  }
  // Decode straight into the target rows (the halo matrix), skipping the
  // intermediate dense matrix + AssignRows copy.
  DecodeRows(
      q, [&](size_t i) { return dst->Row(rows[i]); },
      [](float& out, float value) { out = value; });
  return Status::OK();
}

Status SubtractDequantized(const QuantizedMatrix& q, tensor::Matrix* m) {
  ECG_RETURN_IF_ERROR(CheckDecodable(q));
  if (m->rows() != q.rows || m->cols() != q.cols) {
    return Status::InvalidArgument("SubtractDequantized shape mismatch");
  }
  DecodeRows(
      q, [&](size_t i) { return m->Row(i); },
      [](float& out, float value) { out -= value; });
  return Status::OK();
}

Result<double> MeasureAlpha(const tensor::Matrix& x,
                            const QuantizerOptions& options) {
  ECG_ASSIGN_OR_RETURN(QuantizedMatrix q, Quantize(x, options));
  ECG_ASSIGN_OR_RETURN(tensor::Matrix rec, Dequantize(q));
  double err = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double d = static_cast<double>(x.data()[i]) - rec.data()[i];
    err += d * d;
  }
  const double norm = x.SquaredNorm();
  if (norm == 0.0) return 0.0;
  return std::sqrt(err / norm);
}

Result<double> BucketSaturationRate(const QuantizedMatrix& q) {
  ECG_RETURN_IF_ERROR(CheckDecodable(q));
  const size_t count = static_cast<size_t>(q.rows) * q.cols;
  if (count == 0) return 0.0;
  std::vector<uint32_t> ids;
  ECG_RETURN_IF_ERROR(UnpackBits(q.packed_ids, count, q.bits, &ids));
  const uint32_t top = (q.bits >= 32 ? ~0u : (1u << q.bits) - 1u);
  size_t saturated = 0;
  for (uint32_t id : ids) {
    if (id == 0 || id == top) ++saturated;
  }
  return static_cast<double>(saturated) / static_cast<double>(count);
}

Result<QuantizedMatrix> GatherQuantizedRows(
    const QuantizedMatrix& q, const std::vector<uint32_t>& rows) {
  ECG_RETURN_IF_ERROR(CheckDecodable(q));
  for (uint32_t r : rows) {
    if (r >= q.rows) {
      return Status::OutOfRange("gather row " + std::to_string(r) +
                                " out of range");
    }
  }
  QuantizedMatrix out;
  out.rows = static_cast<uint32_t>(rows.size());
  out.cols = q.cols;
  out.bits = q.bits;
  out.implicit_midpoints = q.implicit_midpoints;
  out.min_value = q.min_value;
  out.bucket_width = q.bucket_width;
  out.bucket_values = q.bucket_values;
  const size_t row_bits = q.cols * static_cast<size_t>(q.bits);
  out.packed_ids.assign(
      PackedWordCount(rows.size() * static_cast<size_t>(q.cols), q.bits), 0u);
  if (row_bits % 32 == 0) {
    // Each row is a whole number of packed words: a straight parallel
    // word copy per row (the common case — e.g. any 128-wide embedding).
    const size_t row_words = row_bits / 32;
    ThreadPool::Global().ParallelFor(
        rows.size(), kRowGrain, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            std::memcpy(out.packed_ids.data() + i * row_words,
                        q.packed_ids.data() + rows[i] * row_words,
                        row_words * sizeof(uint32_t));
          }
        });
  } else {
    // Unaligned rows: slice the bit ranges serially — adjacent output rows
    // share boundary words, so parallel ORs would race.
    for (size_t i = 0; i < rows.size(); ++i) {
      CopyBitRange(q.packed_ids.data(), rows[i] * row_bits,
                   out.packed_ids.data(), i * row_bits, row_bits);
    }
  }
  return out;
}

}  // namespace ecg::compress
