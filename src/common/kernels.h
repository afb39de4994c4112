#ifndef ECGRAPH_COMMON_KERNELS_H_
#define ECGRAPH_COMMON_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ecg::kern {

/// Runtime-dispatched kernel registry. Every hot inner loop of the
/// compression pipeline (quantize pack, dequantize unpack, min/max
/// reduction, bit packing), the int8 packed-domain GEMM and the float
/// tensor kernels (dense GEMM in all its transpose/row-subset forms, CSR
/// SpMM) goes through one of the function pointers below. The same
/// implementation source (kernels_impl.inc) is compiled once per
/// architecture variant — scalar, AVX2, AVX-512, NEON — each in its own
/// translation unit with per-file arch flags, and the table matching the
/// host CPU (or the ECG_KERNELS override) is selected at first use.
///
/// Bit-exactness contract: for identical finite inputs, every variant of
/// every kernel in this table produces byte-identical outputs to the
/// scalar variant. The element-wise float kernels hold this structurally.
/// The float reductions (gemm, spmm_rows) fix the order of every output
/// element's sum: it starts from the value already in the output and adds
/// its terms one at a time in ascending k (stored nonzero order for
/// SpMM), each term a separate multiply then add. Variants may tile,
/// block and vectorize across output elements, never within one sum. All
/// variant TUs compile with -ffp-contract=off, so no multiply-add is
/// fused. The integer kernels (bitpack, int8 GEMM accumulation) are exact
/// in any evaluation order. For non-finite inputs the float reductions
/// follow IEEE arithmetic with no zero-skipping (0 * inf is NaN): every
/// variant yields NaN in the same elements and identical bits in every
/// other element, while NaN sign and payload bits are unspecified.
/// tests/kern_test.cc enforces the contract across every registered
/// variant.
struct Kernels {
  /// Registry name: "scalar", "avx2", "avx512" or "neon".
  const char* name;

  /// Quantize hot loop for a contiguous buffer: clamps each element of
  /// data[word_begin*per_word, ...) to a bucket id in [0, 2^bits) via
  /// rel = (v - mn) * inv_width (min-then-max clamp order: NaN maps to
  /// the top bucket) and packs the ids little-endian into
  /// packed[word_begin, word_end). bits in {1, 2, 4, 8, 16}.
  void (*pack_flat)(int bits, const float* data, size_t count,
                    size_t word_begin, size_t word_end, float mn,
                    float inv_width, uint32_t* packed);

  /// Dequantize hot loop: decodes the ids backing
  /// packed[word_begin, word_end) through the 2^bits-entry table into
  /// data (flat indexing). bits in {1, 2, 4, 8, 16}.
  void (*unpack_flat)(int bits, const uint32_t* packed, size_t count,
                      size_t word_begin, size_t word_end, const float* table,
                      float* data);

  /// Serial min/max over data[0, count); count must be > 0. NaNs lose
  /// every comparison (same contract as the quantizer's reduction; the
  /// finite-ness check downstream is on the bounds).
  void (*minmax)(const float* data, size_t count, float* mn, float* mx);

  /// Bitpack word loop: packs values[0, count) (each < 2^bits,
  /// caller-validated) little-endian into out words. bits in
  /// {1, 2, 4, 8, 16}.
  void (*bitpack_pack)(const uint32_t* values, size_t count, int bits,
                       uint32_t* out);

  /// Bitpack decode loop: unpacks count ids from packed into out.
  void (*bitpack_unpack)(const uint32_t* packed, size_t count, int bits,
                         uint32_t* out);

  /// Int8 GEMM inner loop: acc[j] += sum_k a[k] * wt[j*wt_stride + k]
  /// for j in [0, n). Products and sums are exact in int32 (|a*b| <=
  /// 128*127, so k up to ~130k cannot overflow), hence bit-identical
  /// across variants regardless of accumulation order.
  void (*gemm_s8_row)(const int8_t* a, const int8_t* wt, size_t k, size_t n,
                      size_t wt_stride, int32_t* acc);

  /// Decodes count packed bucket ids (bits <= 8) into centered int8:
  /// out[i] = id[i] - 128 (mod 256, i.e. id XOR 0x80).
  void (*unpack_ids_s8)(int bits, const uint32_t* packed, size_t count,
                        int8_t* out);

  /// Dense GEMM: C(i, j) += sum over kk < k of A(i, kk) * B(kk, j), for
  /// j < n and m rows i: i = row_ids[0..m) (distinct) when row_ids is
  /// non-null, else i = 0..m-1. A(i, kk) is
  /// a[i * a_row_stride + kk * a_k_stride], so one entry serves A
  /// (k-stride 1) and A^T (row stride 1); B(kk, j) = b[kk * ldb + j];
  /// C(i, j) = c[i * ldc + j]. Each C element is summed in ascending kk
  /// from its prior value, one multiply then one add per term, with no
  /// zero skip (see the contract above).
  void (*gemm)(const float* a, size_t a_row_stride, size_t a_k_stride,
               const float* b, size_t ldb, float* c, size_t ldc,
               const uint32_t* row_ids, size_t m, size_t n, size_t k);

  /// CSR SpMM rows: for count rows r (r = row_ids[i], distinct, when
  /// row_ids is non-null, else r = i),
  /// y[r * n + j] += values[e] * X(col_idx[e], j) for the nonzeros e of
  /// row r in stored order, j < n. X is the stack
  /// [top ; bottom] of two row-major blocks of width n: X(c, .) is
  /// top + c * n when c < top_rows, else bottom + (c - top_rows) * n.
  void (*spmm_rows)(const uint64_t* row_ptr, const uint32_t* col_idx,
                    const float* values, const float* top, size_t top_rows,
                    const float* bottom, size_t n, const uint32_t* row_ids,
                    size_t count, float* y);
};

/// The table the runtime dispatch (or a force) selected. First call
/// resolves the ECG_KERNELS environment override ("scalar" | "avx2" |
/// "avx512" | "neon" | "auto"); unknown or unsupported values log a
/// warning and fall back to auto. Thread-safe.
const Kernels& Active();

/// Name of the active table (for telemetry / bench stamps).
const char* ActiveName();

/// Variants compiled into this binary AND supported by the host CPU, in
/// dispatch preference order (widest first, scalar last).
std::vector<const Kernels*> AvailableVariants();

/// Forces the active table by name for the rest of the process (the
/// --kernels= flag and the property tests). "auto" or "" clears the
/// force. Returns false (and leaves the selection unchanged) if the name
/// is unknown, not compiled in, or unsupported on this host.
bool ForceVariant(const std::string& name);

}  // namespace ecg::kern

#endif  // ECGRAPH_COMMON_KERNELS_H_
