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

/// The largest message a receiver accepts: at most `max_rows` rows of
/// exactly `cols` columns (of up to `cols` with `cols_up_to`, for ReqEC's
/// one-row element responses). ParseFrom checks the header against it
/// before the header sizes anything.
struct WireShape {
  uint64_t max_rows = 0;
  uint64_t cols = 0;
  bool cols_up_to = false;
};

/// A matrix compressed with the paper's bucket scheme: per-element bucket
/// IDs packed `bits` to the element, plus the table of 2^bits bucket
/// representative values (Section IV-A). On the wire the packed IDs' bytes
/// are one coded block (common/coded_block.h): the words as they are or,
/// when shorter, an order-0 rANS coding of their bytes (DESIGN.md §8). The
/// IDs come back bit for bit either way, so only the size changes: at most
/// d·B bits per row plus the table and one tag byte, and far less for the
/// skewed IDs of ReLU activations and of gradients with zero rows.
/// WireBytes() is the exact serialized size.
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

  /// Exact number of bytes this message occupies on the wire (it encodes
  /// the message into a scratch buffer; for tests and benches).
  size_t WireBytes() const;

  /// Serializes into `w` (self-describing; ParseFrom inverts).
  void AppendTo(ecg::ByteWriter* w) const;
  /// Total on any input: a header outside `limit`, a malformed frequency
  /// table or a stream that does not decode exactly returns an error
  /// before anything is sized by it.
  static Status ParseFrom(ecg::ByteReader* r, const WireShape& limit,
                          QuantizedMatrix* out);
};

/// Compresses `m` with B-bit bucket quantization over the matrix's global
/// [min, max] range (the BP path's getMaxMin of Algorithm 6; for FP the
/// embeddings H are already in [0, inf) post-ReLU and the same global-range
/// scheme applies). Runs fused on the global ThreadPool: one min/max
/// reduction pass, then one pass that computes bucket IDs and packs them
/// straight into 32-bit words (no intermediate ID vector).
Result<QuantizedMatrix> Quantize(const tensor::Matrix& m,
                                 const QuantizerOptions& options);

/// Quantizes rows `rows[0], rows[1], ...` of `m` exactly as
/// Quantize(GatherRows(m, rows)) would — same bucket assignment, same wire
/// bytes — without materializing the gathered copy: one bounds pass over
/// the rows (kern::gather_rows), then fixed-size blocks of the row view are
/// gathered into an L1 buffer and packed flat (kern::pack_flat). This is
/// the send path of the uncompensated exchangers.
Result<QuantizedMatrix> QuantizeRows(const tensor::Matrix& m,
                                     const std::vector<uint32_t>& rows,
                                     const QuantizerOptions& options);

/// The send path of the compensated exchangers: *gathered =
/// GatherRows(m, rows), plus *add element by element when add is non-null
/// (ResEC's δ fold; add may be `gathered` itself, folding in place), then
/// quantized. Gather, fold and bounds are one pass over the rows; the
/// result equals Quantize(*gathered) bit for bit. ReqEC keeps *gathered as
/// its selector's truth, ResEC as the compensated gradient its residual is
/// taken from.
Result<QuantizedMatrix> GatherQuantizeRows(const tensor::Matrix& m,
                                           const std::vector<uint32_t>& rows,
                                           const tensor::Matrix* add,
                                           const QuantizerOptions& options,
                                           tensor::Matrix* gathered);

/// Reconstructs the dense matrix from its quantized form. Fused parallel
/// unpack + bucket-table lookup (no intermediate ID vector). Like every
/// decode below, it builds the kern::unpack_flat LUT once per call.
Result<tensor::Matrix> Dequantize(const QuantizedMatrix& q);

/// Decodes row i of `q` directly into dst->Row(rows[i]) — the receive-path
/// dual of QuantizeRows: whole-word blocks decode into an L1 buffer and
/// scatter to their rows, with no intermediate dense matrix. `rows` must
/// have exactly q.rows entries; targets should be distinct (halo rows
/// are), as duplicate targets are written concurrently.
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
/// reconstruct better. Telemetry for the obs stats registry, counted on the
/// packed words (no id vector).
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
