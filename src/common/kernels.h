#ifndef ECGRAPH_COMMON_KERNELS_H_
#define ECGRAPH_COMMON_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ecg::kern {

/// Runtime-dispatched kernel registry. Every hot inner loop of the
/// compression pipeline (quantize pack, dequantize unpack, min/max
/// reduction, bit packing, the halo row gather, zero suppression, the
/// entropy coder of the packed ids, the ReqEC selector and predictor) and
/// the float tensor kernels (dense GEMM in all its transpose forms, CSR
/// SpMM) goes through one of the function pointers below. The same
/// implementation source (kernels_impl.inc) is compiled once per
/// architecture variant — scalar, AVX2, AVX-512, NEON — each in
/// its own translation unit with per-file arch flags, and the table
/// matching the host CPU (or the ECG_KERNELS override) is selected at
/// first use.
///
/// Bit-exactness contract: for identical finite inputs, every variant of
/// every kernel in this table produces byte-identical outputs to the
/// scalar variant. The element-wise float kernels hold this structurally.
/// The float reductions (gemm, spmm_rows, reqec_row_l1) fix the order of
/// every output element's sum: it starts from the value already in the
/// output (+0 for the selector distances) and adds its terms one at a time
/// in ascending k (stored nonzero order for SpMM, ascending column for the
/// selector), each term a separate multiply then add. Variants may tile,
/// block and vectorize across output elements, never within one sum. All
/// variant TUs compile with -ffp-contract=off, so no multiply-add is
/// fused. The min/max folds use a fixed lane count written in the shared
/// source, so even the sign of a zero bound is variant-independent. The
/// integer kernels (bitpack) are exact in any evaluation order; the rANS
/// coder fixes its 32-lane interleave in the shared source, so every
/// variant writes the same stream. For non-finite inputs the float
/// reductions follow IEEE arithmetic with no zero-skipping (0 * inf is
/// NaN): every variant yields NaN in the same elements and identical bits
/// in every other element, while NaN sign and payload bits are
/// unspecified. tests/kern_test.cc enforces the contract across every
/// registered variant.
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
  /// packed[word_begin, word_end) through `lut` (BuildUnpackLut's table
  /// for this width, built once per call site) into data (flat indexing):
  /// data[i] = value, or data[i] -= value with `subtract`. bits in
  /// {1, 2, 4, 8, 16}.
  void (*unpack_flat)(int bits, const uint32_t* packed, size_t count,
                      size_t word_begin, size_t word_end, const float* lut,
                      bool subtract, float* data);

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

  /// Halo row gather: out row i = src row rows[i] (+ add row i, one add
  /// per element, when add is non-null), for count rows cols wide; src
  /// rows are src_stride floats apart, out and add are dense; out may be
  /// add itself (in-place fold) or null (bounds only). When mn is
  /// non-null, every gathered value is folded into the caller-seeded
  /// *mn / *mx; NaN loses every comparison.
  void (*gather_rows)(const float* src, size_t src_stride,
                      const uint32_t* rows, size_t count, size_t cols,
                      const float* add, float* out, float* mn, float* mx);

  /// Zero suppression of n floats (the ReqEC trend payload): for i < n,
  /// bit bit0 + i of `map` (bit b is bit b % 8 of byte b / 8) is set iff
  /// the bits of src[i] are not all zero, and those floats' bits are
  /// written in order to `out`, which has room for n floats. The n map
  /// bits must be clear on entry; no other bit changes. Returns the count
  /// written.
  size_t (*nonzero_pack)(const float* src, size_t n, uint64_t bit0,
                         uint8_t* map, uint8_t* out);

  /// Inverse of nonzero_pack: for i < n, dst[i] gets the bits of the next
  /// float of `values` where map bit bit0 + i is set, +0.0 elsewhere.
  /// Reads only the floats it places; returns their count.
  size_t (*nonzero_unpack)(const uint8_t* map, uint64_t bit0, size_t n,
                           const uint8_t* values, float* dst);

  /// Order-0 rANS coding of the packed quantizer bytes (DESIGN.md §8):
  /// codes in[0, n) under `freq` (256 entries summing to
  /// 1 << kRansScaleBits, nonzero for every byte value that occurs in
  /// `in`) and writes the stream to the END of
  /// buf[0, cap), cap >= RansEncodeCapacity(n); returns its length. The
  /// stream is the kRansLanes initial decoder states (u32, lane order),
  /// then the 16-bit renormalisation words in the order the decoder reads
  /// them: byte i rides lane i % kRansLanes, lanes in ascending order
  /// within each group of kRansLanes bytes. buf bytes before the stream
  /// may be overwritten.
  size_t (*rans_encode)(const uint8_t* in, size_t n, const uint32_t* freq,
                        uint8_t* buf, size_t cap);

  /// Inverse of rans_encode: decodes n bytes from stream[0, size) into
  /// out under `freq` (as above). Total on any stream and table: returns
  /// false, leaving out unspecified, unless `freq` sums to
  /// 1 << kRansScaleBits, every initial state is in range, no read passes
  /// the stream's end, the stream is consumed exactly and every final
  /// state is back at its initial value.
  bool (*rans_decode)(const uint8_t* stream, size_t size,
                      const uint32_t* freq, size_t n, uint8_t* out);

  /// ReqEC vertex selector distances (Eqs. 8-10). For row i < count and
  /// column c < cols: v = truth[i * cols + c], cps = cps[i * cols + c] (the
  /// requester's decode of v's bucket), pdt = last + rate * step and
  /// avg = (pdt + cps) * 0.5, where last and rate are read at
  /// b * cols + c of the baseline row b = rows[i], or b = i when rows is
  /// null (so a baseline kept once per vertex is read in place).
  /// l1[3 i + 0/1/2] = the sum of |cps - v| / |pdt - v| / |avg - v| over
  /// c, each from +0 in ascending c.
  void (*reqec_row_l1)(const float* truth, const float* cps,
                       const float* last, const float* rate,
                       const uint32_t* rows, size_t count, size_t cols,
                       float step, float* l1);

  /// ReqEC element selector: for each of the count x cols elements
  /// (candidates and baseline rows as in reqec_row_l1),
  /// pick[i * cols + c] = 0 (cps), 1 (pdt) or 2 (avg), whichever has the
  /// smallest error, the earlier one on ties.
  void (*reqec_element_pick)(const float* truth, const float* cps,
                             const float* last, const float* rate,
                             const uint32_t* rows, size_t count, size_t cols,
                             float step, uint32_t* pick);

  /// ReqEC pdt candidate (Eq. 8): out[i] = last[i] + rate[i] * step for
  /// i < count, one multiply then one add (the selector's pdt, bit for
  /// bit). out must not overlap last or rate.
  void (*reqec_predict)(const float* last, const float* rate, size_t count,
                        float step, float* out);

  /// Dense GEMM: C(i, j) += sum over kk < k of A(i, kk) * B(kk, j), for
  /// i < m and j < n. A(i, kk) is a[i * a_row_stride + kk * a_k_stride],
  /// so one entry serves A (k-stride 1) and A^T (row stride 1);
  /// B(kk, j) = b[kk * ldb + j]; C(i, j) = c[i * ldc + j]. Each C element
  /// is summed in ascending kk from its prior value, one multiply then one
  /// add per term, with no zero skip (see the contract above).
  void (*gemm)(const float* a, size_t a_row_stride, size_t a_k_stride,
               const float* b, size_t ldb, float* c, size_t ldc, size_t m,
               size_t n, size_t k);

  /// CSR SpMM rows: for count rows i and j < n,
  /// y[i * n + j] += values[e] * X(col_idx[e], j) for the nonzeros e in
  /// [begin[i], end[i]), in stored order. Whole rows pass
  /// (row_ptr, row_ptr + 1). With a split offset s[i] inside each row, the
  /// prefix pass (row_ptr, s) then the suffix pass (s, row_ptr + 1) onto
  /// the same y is bitwise the whole-row pass. X is the stack
  /// [top ; bottom] of two row-major blocks of width n: X(c, .) is
  /// top + c * n when c < top_rows, else bottom + (c - top_rows) * n.
  void (*spmm_rows)(const uint64_t* begin, const uint64_t* end,
                    const uint32_t* col_idx, const float* values,
                    const float* top, size_t top_rows, const float* bottom,
                    size_t n, size_t count, float* y);
};

/// rANS coder geometry: probabilities in 12 bits, 32 interleaved states.
constexpr uint32_t kRansScaleBits = 12;
constexpr size_t kRansLanes = 32;

/// Bytes rans_encode may touch for an n-byte input: the states plus at
/// most one 16-bit word per byte.
constexpr size_t RansEncodeCapacity(size_t n) {
  return kRansLanes * sizeof(uint32_t) + 2 * n;
}

/// The table the runtime dispatch (or a force) selected. First call
/// resolves the ECG_KERNELS environment override ("scalar" | "avx2" |
/// "avx512" | "neon" | "auto"); unknown or unsupported values log a
/// warning and fall back to auto. Thread-safe.
const Kernels& Active();

/// Name of the active table (for telemetry / bench stamps).
const char* ActiveName();

/// The decode table unpack_flat reads for a 2^bits bucket table: for
/// bits <= 4 a per-byte expansion (256 * 8/bits floats, byte b decoding to
/// its 8/bits bucket values in order) built in `storage`; for 8 and 16
/// bits the bucket table itself. Build it once per decode call and share
/// it across every block and thread of that call.
const float* BuildUnpackLut(int bits, const float* table,
                            std::vector<float>* storage);

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
