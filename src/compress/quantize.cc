#include "compress/quantize.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>

#include "common/bitpack.h"
#include "common/coded_block.h"
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

/// Minimum rows per chunk of the row-wise gather kernels.
constexpr size_t kRowGrain = 16;

/// Elements per block of the row-gathered encode and decode paths: a
/// multiple of 32, so a block that starts on a block boundary starts on a
/// packed-word boundary at every width, and 16 KiB of floats, so a block
/// stays in L1 between its gather and its pack (or its unpack and its
/// scatter).
constexpr size_t kBlockElems = 4096;

constexpr float kInf = std::numeric_limits<float>::infinity();

/// Rebuilds the uniform-grid midpoint table from (min, width, bits).
std::vector<float> MidpointTable(float min_value, float width, int bits) {
  std::vector<float> table(1u << bits);
  for (uint32_t b = 0; b < table.size(); ++b) {
    table[b] = min_value + width * (static_cast<float>(b) + 0.5f);
  }
  return table;
}

/// Merges one chunk's bounds into the call's (exact in any order).
struct BoundsMerger {
  std::mutex mu;
  float mn = kInf, mx = -kInf;
  void Merge(float lo, float hi) {
    std::lock_guard<std::mutex> lock(mu);
    if (lo < mn) mn = lo;
    if (hi > mx) mx = hi;
  }
};

/// Parallel min/max over a contiguous buffer; the per-chunk scan is the
/// dispatched kern::minmax kernel. Merging per-chunk bounds is
/// commutative, so the result is exact regardless of chunking. NaNs lose
/// every comparison and are skipped unless they land first in a chunk;
/// the finite-ness check downstream is on the bounds, not every element.
void MinMaxFlat(const float* data, size_t count, float* mn_out, float* mx_out) {
  BoundsMerger bounds;
  const kern::Kernels& k = kern::Active();
  ThreadPool::Global().ParallelFor(
      count, kElemGrain, [&](size_t begin, size_t end) {
        float mn, mx;
        k.minmax(data + begin, end - begin, &mn, &mx);
        bounds.Merge(mn, mx);
      });
  *mn_out = bounds.mn;
  *mx_out = bounds.mx;
}

/// Parallel kern::gather_rows over `rows` of m: bounds of the gathered
/// values (+ add), and the gathered rows themselves into `out` when it is
/// non-null.
void GatherBounds(const tensor::Matrix& m, const std::vector<uint32_t>& rows,
                  const tensor::Matrix* add, float* out, float* mn_out,
                  float* mx_out) {
  BoundsMerger bounds;
  const size_t cols = m.cols();
  const kern::Kernels& k = kern::Active();
  ThreadPool::Global().ParallelFor(
      rows.size(), kRowGrain, [&](size_t begin, size_t end) {
        float mn = kInf, mx = -kInf;
        k.gather_rows(m.data(), cols, rows.data() + begin, end - begin, cols,
                      add != nullptr ? add->Row(begin) : nullptr,
                      out != nullptr ? out + begin * cols : nullptr, &mn,
                      &mx);
        bounds.Merge(mn, mx);
      });
  *mn_out = bounds.mn;
  *mx_out = bounds.mx;
}

/// Copies flat elements [begin, end) of the gathered view (logical row i is
/// m.Row(rows[i])) into buf, one memcpy per row segment.
void GatherRange(const tensor::Matrix& m, const std::vector<uint32_t>& rows,
                 size_t begin, size_t end, float* buf) {
  const size_t cols = m.cols();
  size_t r = begin / cols, c = begin % cols;
  for (size_t e = begin; e < end;) {
    const size_t n = std::min(cols - c, end - e);
    std::memcpy(buf, m.Row(rows[r]) + c, n * sizeof(float));
    buf += n;
    e += n;
    ++r;
    c = 0;
  }
}

/// Where the quantizer reads its elements: a contiguous buffer, or a row
/// view of a matrix gathered block by block.
struct EncodeSource {
  const float* flat = nullptr;
  const tensor::Matrix* m = nullptr;
  const std::vector<uint32_t>* rows = nullptr;

  /// Elements [begin, end) as a contiguous span (buf holds >= end - begin
  /// floats when the source is a row view).
  const float* Block(size_t begin, size_t end, float* buf) const {
    if (flat != nullptr) return flat + begin;
    GatherRange(*m, *rows, begin, end, buf);
    return buf;
  }
};

/// Per-chunk bucket statistics for BucketValueMode::kDataMean.
struct BucketHist {
  std::vector<double> sums;
  std::vector<uint64_t> counts;
};

/// The pack pass shared by every quantize entry point, given the bounds.
/// Chunks are word-aligned so each output word has a single writer, and
/// the chunk partition is fixed up front so the kDataMean histograms merge
/// in chunk order; within a chunk, blocks of kBlockElems elements run
/// kern::pack_flat (and, for kDataMean, fold each element into its
/// bucket's sum in element order).
Result<QuantizedMatrix> EncodeBounded(const EncodeSource& src, size_t nrows,
                                      size_t cols, float mn, float mx,
                                      const QuantizerOptions& options) {
  const size_t count = nrows * cols;
  const uint32_t num_buckets = 1u << options.bits;
  if (count == 0) {
    mn = 0.0f;
    mx = 0.0f;
  } else if (!std::isfinite(mn) || !std::isfinite(mx)) {
    return Status::InvalidArgument("quantizer input has non-finite values");
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
  const size_t num_words = q.packed_ids.size();
  const size_t max_chunks = ThreadPool::Global().num_threads() + 1;
  const size_t chunk_words =
      std::max(kWordGrain, (num_words + max_chunks - 1) / max_chunks);
  const size_t num_chunks = (num_words + chunk_words - 1) / chunk_words;
  const size_t per_word = 32 / static_cast<size_t>(options.bits);
  const kern::Kernels& k = kern::Active();
  std::vector<BucketHist> hists(data_mean ? num_chunks : 0);
  ThreadPool::Global().ParallelFor(
      num_chunks, 1, [&](size_t chunk_begin, size_t chunk_end) {
        std::vector<float> buf(src.flat != nullptr ? 0 : kBlockElems);
        std::vector<uint32_t> ids(data_mean ? kBlockElems : 0);
        for (size_t c = chunk_begin; c < chunk_end; ++c) {
          const size_t end =
              std::min(count, (c + 1) * chunk_words * per_word);
          BucketHist* hist = data_mean ? &hists[c] : nullptr;
          if (hist != nullptr) {
            hist->sums.assign(num_buckets, 0.0);
            hist->counts.assign(num_buckets, 0);
          }
          for (size_t e = c * chunk_words * per_word; e < end;
               e += kBlockElems) {
            const size_t n = std::min(kBlockElems, end - e);
            const float* data = src.Block(e, e + n, buf.data());
            uint32_t* words = q.packed_ids.data() + e / per_word;
            k.pack_flat(options.bits, data, n, 0,
                        (n + per_word - 1) / per_word, mn, inv_width, words);
            if (hist == nullptr) continue;
            k.bitpack_unpack(words, n, options.bits, ids.data());
            for (size_t i = 0; i < n; ++i) {
              hist->sums[ids[i]] += static_cast<double>(data[i]);
              ++hist->counts[ids[i]];
            }
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

/// Argument checks shared by the row-view entry points.
Status CheckRowArgs(const tensor::Matrix& m, const std::vector<uint32_t>& rows,
                    const QuantizerOptions& options) {
  if (!IsSupportedBitWidth(options.bits)) {
    return Status::InvalidArgument("unsupported quantizer bits " +
                                   std::to_string(options.bits));
  }
  for (uint32_t r : rows) {
    if (r >= m.rows()) {
      return Status::OutOfRange("quantize row " + std::to_string(r) +
                                " out of range");
    }
  }
  return Status::OK();
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

/// Decodes elements [word_begin * per_word, ...) backing packed words
/// [word_begin, word_end) of q through one LUT into data (flat indexing,
/// assigned or subtracted), chunked over the pool.
void DecodeFlat(const QuantizedMatrix& q, const float* lut, bool subtract,
                float* data) {
  const size_t count = static_cast<size_t>(q.rows) * q.cols;
  const kern::Kernels& k = kern::Active();
  ThreadPool::Global().ParallelFor(
      PackedWordCount(count, q.bits), kWordGrain, [&](size_t wb, size_t we) {
        k.unpack_flat(q.bits, q.packed_ids.data(), count, wb, we, lut,
                      subtract, data);
      });
}

}  // namespace

size_t QuantizedMatrix::WireBytes() const {
  std::vector<uint8_t> buf;
  ecg::ByteWriter w(&buf);
  AppendTo(&w);
  return buf.size();
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
  AppendCodedBlock(reinterpret_cast<const uint8_t*>(packed_ids.data()),
                   packed_ids.size() * sizeof(uint32_t), w);
}

Status QuantizedMatrix::ParseFrom(ecg::ByteReader* r, const WireShape& limit,
                                  QuantizedMatrix* out) {
  uint8_t bits8 = 0, implicit = 0;
  ECG_RETURN_IF_ERROR(r->GetU32(&out->rows));
  ECG_RETURN_IF_ERROR(r->GetU32(&out->cols));
  ECG_RETURN_IF_ERROR(r->GetU8(&bits8));
  ECG_RETURN_IF_ERROR(r->GetU8(&implicit));
  out->bits = bits8;
  out->implicit_midpoints = implicit != 0;
  if (implicit > 1) {
    return Status::InvalidArgument("corrupt quantized matrix: table flag " +
                                   std::to_string(implicit));
  }
  if (!IsSupportedBitWidth(out->bits)) {
    return Status::InvalidArgument(
        "corrupt quantized matrix: unsupported bit width " +
        std::to_string(out->bits) + " (expected 1/2/4/8/16) for " +
        std::to_string(out->rows) + "x" + std::to_string(out->cols));
  }
  if (out->rows > limit.max_rows ||
      (limit.cols_up_to ? out->cols > limit.cols : out->cols != limit.cols)) {
    return Status::InvalidArgument(
        "quantized matrix is " + std::to_string(out->rows) + "x" +
        std::to_string(out->cols) + "; the receiver takes at most " +
        std::to_string(limit.max_rows) + " rows of " +
        (limit.cols_up_to ? "up to " : "") + std::to_string(limit.cols) +
        " columns");
  }
  if (out->implicit_midpoints) {
    ECG_RETURN_IF_ERROR(r->GetF32(&out->min_value));
    ECG_RETURN_IF_ERROR(r->GetF32(&out->bucket_width));
    out->bucket_values =
        MidpointTable(out->min_value, out->bucket_width, out->bits);
  } else {
    ECG_RETURN_IF_ERROR(r->GetF32Vector(&out->bucket_values));
  }
  if (out->bucket_values.size() != (1u << out->bits)) {
    return Status::InvalidArgument(
        "corrupt quantized matrix: bucket table has " +
        std::to_string(out->bucket_values.size()) + " entries, expected " +
        std::to_string(1u << out->bits) + " for bits=" +
        std::to_string(out->bits));
  }
  // The word count follows from the shape the limit has bounded.
  out->packed_ids.resize(PackedWordCount(
      static_cast<size_t>(out->rows) * out->cols, out->bits));
  return ParseCodedBlock(r, out->packed_ids.size() * sizeof(uint32_t),
                         reinterpret_cast<uint8_t*>(out->packed_ids.data()));
}

Result<QuantizedMatrix> Quantize(const tensor::Matrix& m,
                                 const QuantizerOptions& options) {
  if (!IsSupportedBitWidth(options.bits)) {
    return Status::InvalidArgument("unsupported quantizer bits " +
                                   std::to_string(options.bits));
  }
  float mn = 0.0f, mx = 0.0f;
  if (m.size() > 0) MinMaxFlat(m.data(), m.size(), &mn, &mx);
  EncodeSource src;
  src.flat = m.data();
  return EncodeBounded(src, m.rows(), m.cols(), mn, mx, options);
}

Result<QuantizedMatrix> QuantizeRows(const tensor::Matrix& m,
                                     const std::vector<uint32_t>& rows,
                                     const QuantizerOptions& options) {
  ECG_RETURN_IF_ERROR(CheckRowArgs(m, rows, options));
  float mn = 0.0f, mx = 0.0f;
  GatherBounds(m, rows, nullptr, nullptr, &mn, &mx);
  EncodeSource src;
  src.m = &m;
  src.rows = &rows;
  return EncodeBounded(src, rows.size(), m.cols(), mn, mx, options);
}

Result<QuantizedMatrix> GatherQuantizeRows(const tensor::Matrix& m,
                                           const std::vector<uint32_t>& rows,
                                           const tensor::Matrix* add,
                                           const QuantizerOptions& options,
                                           tensor::Matrix* gathered) {
  ECG_RETURN_IF_ERROR(CheckRowArgs(m, rows, options));
  if (add != nullptr &&
      (add->rows() != rows.size() || add->cols() != m.cols())) {
    return Status::InvalidArgument("GatherQuantizeRows fold shape mismatch");
  }
  if (gathered != add) gathered->Reset(rows.size(), m.cols());
  float mn = 0.0f, mx = 0.0f;
  GatherBounds(m, rows, add, gathered->data(), &mn, &mx);
  EncodeSource src;
  src.flat = gathered->data();
  return EncodeBounded(src, rows.size(), m.cols(), mn, mx, options);
}

Result<tensor::Matrix> Dequantize(const QuantizedMatrix& q) {
  ECG_RETURN_IF_ERROR(CheckDecodable(q));
  tensor::Matrix out(q.rows, q.cols);
  std::vector<float> storage;
  DecodeFlat(q, kern::BuildUnpackLut(q.bits, q.bucket_values.data(), &storage),
             /*subtract=*/false, out.data());
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
  // Rows that fill whole packed words decode straight into their target
  // rows (the halo matrix); otherwise whole-word blocks of kBlockElems
  // elements decode into an L1 buffer and scatter. No dense temporary.
  const size_t cols = q.cols;
  const size_t count = static_cast<size_t>(q.rows) * cols;
  if (count == 0) return Status::OK();
  std::vector<float> storage;
  const float* lut =
      kern::BuildUnpackLut(q.bits, q.bucket_values.data(), &storage);
  const size_t per_word = 32 / static_cast<size_t>(q.bits);
  const kern::Kernels& k = kern::Active();
  const size_t row_bits = cols * static_cast<size_t>(q.bits);
  if (row_bits % 32 == 0) {
    const size_t row_words = row_bits / 32;
    ThreadPool::Global().ParallelFor(
        q.rows, kRowGrain, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            k.unpack_flat(q.bits, q.packed_ids.data() + i * row_words, cols, 0,
                          row_words, lut, /*subtract=*/false,
                          dst->Row(rows[i]));
          }
        });
    return Status::OK();
  }
  ThreadPool::Global().ParallelFor(
      (count + kBlockElems - 1) / kBlockElems, 1,
      [&](size_t block_begin, size_t block_end) {
        std::vector<float> buf(kBlockElems);
        for (size_t b = block_begin; b < block_end; ++b) {
          const size_t begin = b * kBlockElems;
          const size_t n = std::min(kBlockElems, count - begin);
          k.unpack_flat(q.bits, q.packed_ids.data() + begin / per_word, n, 0,
                        (n + per_word - 1) / per_word, lut,
                        /*subtract=*/false, buf.data());
          size_t r = begin / cols, c = begin % cols;
          for (size_t e = 0; e < n; ++r, c = 0) {
            const size_t len = std::min(cols - c, n - e);
            std::memcpy(dst->Row(rows[r]) + c, buf.data() + e,
                        len * sizeof(float));
            e += len;
          }
        }
      });
  return Status::OK();
}

Status SubtractDequantized(const QuantizedMatrix& q, tensor::Matrix* m) {
  ECG_RETURN_IF_ERROR(CheckDecodable(q));
  if (m->rows() != q.rows || m->cols() != q.cols) {
    return Status::InvalidArgument("SubtractDequantized shape mismatch");
  }
  std::vector<float> storage;
  DecodeFlat(q, kern::BuildUnpackLut(q.bits, q.bucket_values.data(), &storage),
             /*subtract=*/true, m->data());
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
  // Counted on the packed words, a field at a time across the word: with
  // H the top bit of every field and L the rest, field f of x is nonzero
  // iff bit H of ((x & L) + L) | x is set — the add cannot carry out of a
  // field. Zero ids are zero fields of the word, top ids zero fields of
  // its complement. Fields past `count` in the final word are masked off.
  const int bits = q.bits;
  const size_t per_word = 32 / static_cast<size_t>(bits);
  uint32_t high = 0;
  for (size_t j = 0; j < per_word; ++j) high |= 1u << (j * bits + bits - 1);
  const uint32_t low = ~high;
  const auto nonzero_fields = [&](uint32_t x, uint32_t live) {
    // Bit count without a popcnt instruction in the baseline ISA (a
    // library call per word otherwise).
    uint32_t v = (((x & low) + low) | x) & live;
    v = v - ((v >> 1) & 0x55555555u);
    v = (v & 0x33333333u) + ((v >> 2) & 0x33333333u);
    return static_cast<size_t>(
        (((v + (v >> 4)) & 0x0F0F0F0Fu) * 0x01010101u) >> 24);
  };
  size_t nonzero = 0;
  const size_t full = count / per_word;
  for (size_t w = 0; w < full; ++w) {
    const uint32_t x = q.packed_ids[w];
    nonzero += nonzero_fields(x, high) + nonzero_fields(~x, high);
  }
  if (const size_t rest = count - full * per_word; rest > 0) {
    const uint32_t live =
        high & ((1u << (rest * static_cast<size_t>(bits))) - 1u);
    const uint32_t x = q.packed_ids[full];
    nonzero += nonzero_fields(x, live) + nonzero_fields(~x, live);
  }
  return static_cast<double>(2 * count - nonzero) /
         static_cast<double>(count);
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
