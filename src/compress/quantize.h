#ifndef ECGRAPH_COMPRESS_QUANTIZE_H_
#define ECGRAPH_COMPRESS_QUANTIZE_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "tensor/matrix.h"

namespace ecg::compress {

/// How the representative value of each bucket is chosen (Section IV-A).
enum class BucketValueMode {
  /// Average of the bucket's lower and upper bound (the paper's Fig. 3:
  /// bucket [0.6, 1.0] is represented by 0.8).
  kMidpoint,
  /// Mean of the actual values that fell into the bucket this message;
  /// tighter reconstruction at the same wire size (the bucket-value table
  /// is shipped either way). An ablation of the paper's design choice.
  kDataMean,
};

/// Knobs of the B-bit bucket quantizer C_bits(·).
struct QuantizerOptions {
  /// Number of bits per element; one of {1, 2, 4, 8, 16}.
  int bits = 2;
  BucketValueMode value_mode = BucketValueMode::kMidpoint;
};

/// A matrix compressed with the paper's bucket scheme: per-element bucket
/// IDs packed `bits` to the element, plus the table of 2^bits bucket
/// representative values. WireBytes() is its exact serialized size, i.e.
/// d·B bits per row plus the amortized 2^B·32-bit table of Section IV-A.
struct QuantizedMatrix {
  uint32_t rows = 0;
  uint32_t cols = 0;
  int bits = 0;
  /// True when bucket_values are exactly the midpoints of a uniform grid
  /// over [min_value, min_value + 2^bits * bucket_width]. Such tables are
  /// not shipped: the wire carries only (min, width) — 8 bytes instead of
  /// 2^B * 4, which matters at B=16 where an explicit table would exceed
  /// most payloads (the paper's 2^B*b table term, made implicit for the
  /// midpoint mode).
  bool implicit_midpoints = false;
  float min_value = 0.0f;
  float bucket_width = 1.0f;
  /// Representative value of each of the 2^bits buckets.
  std::vector<float> bucket_values;
  /// Bit-packed bucket IDs, row-major.
  std::vector<uint32_t> packed_ids;

  /// Exact number of bytes this message occupies on the wire.
  size_t WireBytes() const;

  /// Serializes into `w` (self-describing; ParseFrom inverts).
  void AppendTo(ecg::ByteWriter* w) const;
  static Status ParseFrom(ecg::ByteReader* r, QuantizedMatrix* out);
};

/// Compresses `m` with B-bit bucket quantization over the matrix's global
/// [min, max] range (the BP path's getMaxMin of Algorithm 6; for FP the
/// embeddings H are already in [0, inf) post-ReLU and the same global-range
/// scheme applies). Runs fused on the global ThreadPool: one min/max
/// reduction pass, then one pass that computes bucket IDs and packs them
/// straight into 32-bit words (no intermediate ID vector).
Result<QuantizedMatrix> Quantize(const tensor::Matrix& m,
                                 const QuantizerOptions& options);

/// Quantizes rows `rows[0], rows[1], ...` of `m` as if they had first been
/// copied out with GatherRows — same bucket assignment, same wire bytes —
/// but without materializing the gathered copy. This is what the exchangers
/// call on the send path: per peer they quantize a row subset of the owned
/// table, and the gather used to cost a full extra read+write of the
/// message before the quantizer even started.
Result<QuantizedMatrix> QuantizeRows(const tensor::Matrix& m,
                                     const std::vector<uint32_t>& rows,
                                     const QuantizerOptions& options);

/// Reconstructs the dense matrix from its quantized form. Fused parallel
/// unpack + bucket-table lookup (no intermediate ID vector).
Result<tensor::Matrix> Dequantize(const QuantizedMatrix& q);

/// Decodes row i of `q` directly into dst->Row(rows[i]) — the receive-path
/// dual of QuantizeRows. Replaces Dequantize + AssignRows on the halo
/// matrices, eliminating the intermediate dense matrix. `rows` must have
/// exactly q.rows entries; targets should be distinct (halo rows are), as
/// duplicate targets are written concurrently.
Status DequantizeInto(const QuantizedMatrix& q,
                      const std::vector<uint32_t>& rows,
                      tensor::Matrix* dst);

/// m -= Dequantize(q), fused: each element subtracts its bucket value as
/// it is unpacked, so no dense decoded temporary is materialized. This is
/// ResEC's residual update δ = (G + δ') − C(G + δ'); the result is bitwise
/// equal to Dequantize followed by tensor::SubInPlace. `m` must have q's
/// shape.
Status SubtractDequantized(const QuantizedMatrix& q, tensor::Matrix* m);

/// Measures the contraction factor alpha = ||x - C(x)|| / ||x|| of the
/// quantizer on matrix x (Eq. 13); used by the Theorem-1 validation bench.
Result<double> MeasureAlpha(const tensor::Matrix& x,
                            const QuantizerOptions& options);

/// Fraction of elements sitting in the two extreme buckets (id 0 or
/// 2^bits - 1) — the rows a wider [min, max] range or more bits would
/// reconstruct better. Telemetry for the obs stats registry; costs a full
/// unpack, so call only when stats collection is on.
Result<double> BucketSaturationRate(const QuantizedMatrix& q);

/// Extracts the given rows of a quantized matrix into a new quantized
/// matrix that reuses the same bucket table. This is ReqEC-FP's "filter out
/// the predicted embedding" (Algorithm 4 line 14): the selector evaluates
/// C(H) on the full send set, then only the non-predicted rows are shipped
/// — with the bucket table computed from the full set so both ends decode
/// identically. The row slices are copied directly out of the packed words
/// (whole-word memcpy when a row is word-aligned); the full ID table is
/// never unpacked.
Result<QuantizedMatrix> GatherQuantizedRows(
    const QuantizedMatrix& q, const std::vector<uint32_t>& rows);

}  // namespace ecg::compress

#endif  // ECGRAPH_COMPRESS_QUANTIZE_H_
