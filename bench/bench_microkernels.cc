// Micro-kernel throughput (google-benchmark): the hot inner loops behind
// every experiment — bucket quantization at each bit width, bit packing,
// SpMM over an SBM adjacency, GEMM at GCN-typical shapes, and the wire
// round trip. Useful for spotting kernel regressions independently of the
// end-to-end harnesses.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/bitpack.h"
#include "common/bytes.h"
#include "common/kernels.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "common/trace.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "compress/int8_gemm.h"
#include "compress/quantize.h"
#include "core/trainer.h"
#include "dist/comm.h"
#include "dist/fault.h"
#include "graph/generator.h"
#include "graph/partition.h"
#include "tensor/csr.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace {

using ecg::compress::BucketValueMode;
using ecg::compress::QuantizerOptions;
using ecg::tensor::Matrix;

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  ecg::Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

void BM_Quantize(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const Matrix m = RandomMatrix(1024, 128, 1);
  QuantizerOptions opts{bits, BucketValueMode::kMidpoint};
  for (auto _ : state) {
    auto q = ecg::compress::Quantize(m, opts);
    benchmark::DoNotOptimize(q);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          m.size() * sizeof(float));
}
BENCHMARK(BM_Quantize)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_Dequantize(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const Matrix m = RandomMatrix(1024, 128, 2);
  auto q = ecg::compress::Quantize(
      m, QuantizerOptions{bits, BucketValueMode::kMidpoint});
  q.status().CheckOk();
  for (auto _ : state) {
    auto d = ecg::compress::Dequantize(*q);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          m.size() * sizeof(float));
}
BENCHMARK(BM_Dequantize)->Arg(2)->Arg(8);

void BM_PackBits(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  ecg::Rng rng(3);
  std::vector<uint32_t> values(1 << 16);
  for (auto& v : values) v = static_cast<uint32_t>(rng.NextBelow(1u << bits));
  std::vector<uint32_t> packed;
  for (auto _ : state) {
    ecg::PackBits(values, bits, &packed).CheckOk();
    benchmark::DoNotOptimize(packed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          values.size());
}
BENCHMARK(BM_PackBits)->Arg(2)->Arg(8);

void BM_UnpackBits(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  ecg::Rng rng(4);
  std::vector<uint32_t> values(1 << 16);
  for (auto& v : values) v = static_cast<uint32_t>(rng.NextBelow(1u << bits));
  std::vector<uint32_t> packed;
  ecg::PackBits(values, bits, &packed).CheckOk();
  std::vector<uint32_t> unpacked;
  for (auto _ : state) {
    ecg::UnpackBits(packed, values.size(), bits, &unpacked).CheckOk();
    benchmark::DoNotOptimize(unpacked);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          values.size());
}
BENCHMARK(BM_UnpackBits)->Arg(2)->Arg(8);

// The fused quantize+dequantize round trip at 1 thread (serial mode, as
// inside a simulated worker) vs the global pool. Args: {bits, pool}.
void BM_QuantizeRoundTripFused(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const bool use_pool = state.range(1) != 0;
  const Matrix m = RandomMatrix(4096, 128, 10);
  QuantizerOptions opts{bits, BucketValueMode::kMidpoint};
  ecg::ThreadPool::SetSerialMode(!use_pool);
  for (auto _ : state) {
    auto q = ecg::compress::Quantize(m, opts);
    auto d = ecg::compress::Dequantize(*q);
    benchmark::DoNotOptimize(d);
  }
  ecg::ThreadPool::SetSerialMode(false);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          m.size() * sizeof(float));
}
BENCHMARK(BM_QuantizeRoundTripFused)
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({8, 0})
    ->Args({8, 1});

/// Normalized adjacency of a seeded SBM (8 classes, the given degree).
ecg::tensor::CsrMatrix SbmAdjacency(uint32_t vertices, double avg_degree) {
  ecg::graph::SbmConfig cfg;
  cfg.num_vertices = vertices;
  cfg.num_classes = 8;
  cfg.avg_degree = avg_degree;
  cfg.feature_dim = 4;
  cfg.seed = 5;
  auto g = ecg::graph::GenerateSbm(cfg);
  g.status().CheckOk();
  std::vector<std::tuple<uint32_t, uint32_t, float>> trips;
  for (uint32_t v = 0; v < g->num_vertices(); ++v) {
    for (uint32_t u : g->Neighbors(v)) {
      trips.emplace_back(v, u, g->NormWeight(v, u));
    }
  }
  auto adj = ecg::tensor::CsrMatrix::FromTriplets(g->num_vertices(),
                                                  g->num_vertices(), trips);
  adj.status().CheckOk();
  return std::move(*adj);
}

void BM_SpMM(benchmark::State& state) {
  const ecg::tensor::CsrMatrix adj = SbmAdjacency(4000, 16.0);
  const Matrix x = RandomMatrix(adj.rows(), 64, 6);
  Matrix y;
  for (auto _ : state) {
    adj.SpMM(x, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          adj.nnz() * 64);
}
BENCHMARK(BM_SpMM);

void BM_Gemm(benchmark::State& state) {
  const size_t hidden = static_cast<size_t>(state.range(0));
  const Matrix a = RandomMatrix(4096, 128, 7);
  const Matrix b = RandomMatrix(128, hidden, 8);
  Matrix c;
  for (auto _ : state) {
    ecg::tensor::Gemm(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096 *
                          128 * hidden);
}
BENCHMARK(BM_Gemm)->Arg(16)->Arg(256);

void BM_WireRoundTrip(benchmark::State& state) {
  const Matrix m = RandomMatrix(512, 128, 9);
  auto q = ecg::compress::Quantize(
      m, QuantizerOptions{2, BucketValueMode::kMidpoint});
  q.status().CheckOk();
  for (auto _ : state) {
    std::vector<uint8_t> buf;
    ecg::ByteWriter w(&buf);
    q->AppendTo(&w);
    ecg::ByteReader r(buf);
    ecg::compress::QuantizedMatrix parsed;
    ecg::compress::QuantizedMatrix::ParseFrom(&r, &parsed).CheckOk();
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_WireRoundTrip);

// ---------------------------------------------------------------------------
// --compress_json mode: before/after comparison for the fused compression
// kernels. The "seed" reference below replicates the pre-fusion pipeline
// byte-for-byte: two-pass minmax + divide, an intermediate bucket-id
// vector, element-at-a-time PackBits/UnpackBits, and a separate lookup
// pass. It is timed single-threaded (the seed kernels had no threading).
// ---------------------------------------------------------------------------

struct SeedQuantized {
  uint32_t rows = 0, cols = 0;
  int bits = 0;
  float min_value = 0.0f, bucket_width = 0.0f;
  std::vector<float> bucket_values;
  std::vector<uint32_t> packed_ids;
};

SeedQuantized SeedQuantize(const Matrix& m, int bits) {
  const size_t count = m.size();
  const uint32_t num_buckets = 1u << bits;
  const auto [pmn, pmx] =
      std::minmax_element(m.data(), m.data() + count);
  const float mn = *pmn;
  const float range = *pmx - mn;
  const float width =
      range > 0.0f ? range / static_cast<float>(num_buckets) : 1.0f;
  std::vector<uint32_t> ids(count);
  const float* data = m.data();
  for (size_t i = 0; i < count; ++i) {
    const float rel = (data[i] - mn) / width;
    uint32_t id = rel <= 0.0f ? 0u : static_cast<uint32_t>(rel);
    ids[i] = std::min(id, num_buckets - 1);
  }
  SeedQuantized q;
  q.rows = static_cast<uint32_t>(m.rows());
  q.cols = static_cast<uint32_t>(m.cols());
  q.bits = bits;
  q.min_value = mn;
  q.bucket_width = width;
  q.bucket_values.resize(num_buckets);
  for (uint32_t b = 0; b < num_buckets; ++b) {
    q.bucket_values[b] = mn + width * (static_cast<float>(b) + 0.5f);
  }
  ecg::PackBits(ids, bits, &q.packed_ids).CheckOk();
  return q;
}

Matrix SeedDequantize(const SeedQuantized& q) {
  const size_t count = static_cast<size_t>(q.rows) * q.cols;
  std::vector<uint32_t> ids;
  ecg::UnpackBits(q.packed_ids, count, q.bits, &ids).CheckOk();
  Matrix out(q.rows, q.cols);
  float* data = out.data();
  for (size_t i = 0; i < count; ++i) data[i] = q.bucket_values[ids[i]];
  return out;
}

/// Wall time of the best of `reps` runs of fn, in milliseconds.
template <typename Fn>
double BestOfMs(int reps, const Fn& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    best = std::min(best, ms);
  }
  return best;
}

int RunCompressComparison(const std::string& json_path) {
  // Size the pool before its first use; an explicit ECG_THREADS wins.
  setenv("ECG_THREADS", "8", /*overwrite=*/0);
  const size_t threads = ecg::ThreadPool::Global().num_threads();

  constexpr size_t kRows = 4096, kCols = 128;
  constexpr int kReps = 20;
  const Matrix m = RandomMatrix(kRows, kCols, 11);

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  out << "{\n  \"stamp\": " << ecg::bench::BenchStampJson()
      << ",\n  \"matrix\": {\"rows\": " << kRows << ", \"cols\": " << kCols
      << "},\n  \"threads\": " << threads << ",\n  \"reps\": " << kReps
      << ",\n  \"configs\": [";

  bool first = true;
  for (int bits : {2, 8}) {
    QuantizerOptions opts{bits, BucketValueMode::kMidpoint};
    // Warm up every variant once before timing.
    SeedDequantize(SeedQuantize(m, bits));
    ecg::compress::Dequantize(*ecg::compress::Quantize(m, opts)).ok();

    const double seed_ms = BestOfMs(kReps, [&] {
      const Matrix d = SeedDequantize(SeedQuantize(m, bits));
      benchmark::DoNotOptimize(d.data());
    });
    ecg::ThreadPool::SetSerialMode(true);
    const double fused1_ms = BestOfMs(kReps, [&] {
      auto d = ecg::compress::Dequantize(*ecg::compress::Quantize(m, opts));
      benchmark::DoNotOptimize(d->data());
    });
    ecg::ThreadPool::SetSerialMode(false);
    const double fusedn_ms = BestOfMs(kReps, [&] {
      auto d = ecg::compress::Dequantize(*ecg::compress::Quantize(m, opts));
      benchmark::DoNotOptimize(d->data());
    });

    out << (first ? "" : ",") << "\n    {\"bits\": " << bits
        << ",\n     \"seed_roundtrip_ms\": " << seed_ms
        << ",\n     \"fused_1thread_roundtrip_ms\": " << fused1_ms
        << ",\n     \"fused_" << threads
        << "thread_roundtrip_ms\": " << fusedn_ms
        << ",\n     \"speedup_fused_1thread_vs_seed\": " << seed_ms / fused1_ms
        << ",\n     \"speedup_fused_" << threads
        << "thread_vs_seed\": " << seed_ms / fusedn_ms << "}";
    first = false;
    std::printf(
        "bits=%d  seed %.3f ms | fused x1 %.3f ms (%.2fx) | fused x%zu "
        "%.3f ms (%.2fx)\n",
        bits, seed_ms, fused1_ms, seed_ms / fused1_ms, threads, fusedn_ms,
        seed_ms / fusedn_ms);
  }
  out << "\n  ],";

  // Kernel-registry section: the runtime-dispatched variant vs the forced
  // scalar reference on the same fused round trip (the dispatch gain the
  // per-arch TUs buy over the portable build), plus the fused int8
  // packed-domain GEMM against its dequantize-then-float-GEMM equivalent.
  out << "\n  \"registry\": {\n    \"auto_variant\": \""
      << ecg::kern::ActiveName() << "\",\n    \"variants\": [";
  {
    bool vfirst = true;
    for (const ecg::kern::Kernels* v : ecg::kern::AvailableVariants()) {
      out << (vfirst ? "" : ", ") << "\"" << v->name << "\"";
      vfirst = false;
    }
  }
  out << "],\n    \"roundtrips\": [";
  bool rt_first = true;
  for (int bits : {2, 8}) {
    QuantizerOptions opts{bits, BucketValueMode::kMidpoint};
    ecg::ThreadPool::SetSerialMode(true);
    const double auto_ms = BestOfMs(kReps, [&] {
      auto d = ecg::compress::Dequantize(*ecg::compress::Quantize(m, opts));
      benchmark::DoNotOptimize(d->data());
    });
    ECG_CHECK(ecg::kern::ForceVariant("scalar"));
    const double scalar_ms = BestOfMs(kReps, [&] {
      auto d = ecg::compress::Dequantize(*ecg::compress::Quantize(m, opts));
      benchmark::DoNotOptimize(d->data());
    });
    ECG_CHECK(ecg::kern::ForceVariant("auto"));
    ecg::ThreadPool::SetSerialMode(false);
    out << (rt_first ? "" : ",") << "\n      {\"bits\": " << bits
        << ", \"auto_1thread_roundtrip_ms\": " << auto_ms
        << ", \"scalar_1thread_roundtrip_ms\": " << scalar_ms
        << ", \"speedup_auto_vs_scalar\": " << scalar_ms / auto_ms << "}";
    rt_first = false;
    std::printf("registry bits=%d  %s %.3f ms | scalar %.3f ms (%.2fx)\n",
                bits, ecg::kern::ActiveName(), auto_ms, scalar_ms,
                scalar_ms / auto_ms);
  }
  out << "\n    ],";

  // Int8 packed-domain GEMM gate: boundary-row transform at B=8 — the
  // fused DequantGemmRows consuming the packed payload vs DequantizeInto
  // followed by float GemmRows. Min-of-3 on the full pool, budget >= 1.5x.
  {
    constexpr size_t kN = 256;
    constexpr int kGemmReps = 3;
    const Matrix w = RandomMatrix(kCols, kN, 13);
    std::vector<uint32_t> rows(kRows);
    for (size_t i = 0; i < kRows; ++i) rows[i] = static_cast<uint32_t>(i);
    auto q8 = ecg::compress::QuantizeRows(
        m, rows, QuantizerOptions{8, BucketValueMode::kMidpoint});
    q8.status().CheckOk();
    const ecg::compress::Int8Panel panel = ecg::compress::PackWeightPanel(w);
    Matrix scratch(kRows, kCols);
    Matrix c_ref(kRows, kN), c_fused(kRows, kN);

    ecg::compress::DequantizeInto(*q8, rows, &scratch).CheckOk();  // warm
    ecg::tensor::GemmRows(scratch, w, rows, &c_ref);
    ecg::compress::DequantGemmRows(*q8, panel, rows, &c_fused).CheckOk();
    double max_abs_err = 0.0;
    for (size_t i = 0; i < c_ref.size(); ++i) {
      max_abs_err = std::max(
          max_abs_err, std::fabs(static_cast<double>(c_ref.data()[i]) -
                                 c_fused.data()[i]));
    }

    const double ref_ms = BestOfMs(kGemmReps, [&] {
      c_ref.Reset(kRows, kN);
      ecg::compress::DequantizeInto(*q8, rows, &scratch).CheckOk();
      ecg::tensor::GemmRows(scratch, w, rows, &c_ref);
      benchmark::DoNotOptimize(c_ref.data());
    });
    const double fused_ms = BestOfMs(kGemmReps, [&] {
      c_fused.Reset(kRows, kN);
      ecg::compress::DequantGemmRows(*q8, panel, rows, &c_fused).CheckOk();
      benchmark::DoNotOptimize(c_fused.data());
    });
    const double speedup = ref_ms / fused_ms;
    const bool int8_pass = speedup >= 1.5;
    out << "\n    \"int8_gemm\": {\"rows\": " << kRows << ", \"k\": " << kCols
        << ", \"n\": " << kN << ", \"bits\": 8, \"reps\": " << kGemmReps
        << ",\n      \"dequant_then_float_gemm_ms\": " << ref_ms
        << ",\n      \"fused_dequant_gemm_ms\": " << fused_ms
        << ",\n      \"speedup\": " << speedup
        << ",\n      \"max_abs_error\": " << max_abs_err
        << ",\n      \"budget_speedup\": 1.5,\n      \"pass\": "
        << (int8_pass ? "true" : "false") << "}\n  }\n}\n";
    std::printf(
        "int8 gemm B=8 %zux%zux%zu: dequant+gemm %.3f ms | fused %.3f ms "
        "(%.2fx, max err %.2e) -> %s\n",
        kRows, kCols, kN, ref_ms, fused_ms, speedup, max_abs_err,
        int8_pass ? "PASS (>=1.5x)" : "FAIL (<1.5x)");
  }
  return 0;
}

// ---------------------------------------------------------------------------
// --trace_overhead mode: cost of the observability hooks on the fused
// quantize round trip. Three variants of the same loop:
//   * bare      — no tracing hooks at all (reference);
//   * disabled  — the round trip wrapped in ECG_TRACE_SCOPE /
//                 ECG_TRACE_SCOPE_DETAIL exactly as the exchangers wrap
//                 their codec calls, with the tracer off. This is what
//                 every untraced run pays; budget < 2% over bare.
//   * enabled   — same hooks with the tracer recording (level 2,
//                 snapshot-only), for context on the recording cost.
// ---------------------------------------------------------------------------

int RunTraceOverhead(const std::string& json_path) {
  constexpr size_t kRows = 4096, kCols = 128;
  constexpr int kBits = 2;
  constexpr int kReps = 30;
  const Matrix m = RandomMatrix(kRows, kCols, 12);
  QuantizerOptions opts{kBits, BucketValueMode::kMidpoint};
  // Serial mode: the round trip runs the way it does inside a simulated
  // worker, so the scope cost is measured against the realistic baseline.
  ecg::ThreadPool::SetSerialMode(true);
  ecg::obs::Tracer::Global().Disable();

  const auto bare_pass = [&] {
    auto q = ecg::compress::Quantize(m, opts);
    auto d = ecg::compress::Dequantize(*q);
    benchmark::DoNotOptimize(d->data());
  };
  const auto hooked_pass = [&] {
    // Same hook density as fp_exchange: a phase span around the pass and
    // a detail span around each codec half.
    ECG_TRACE_SCOPE("fp_exchange", /*worker=*/0, /*layer=*/0);
    ecg::Result<ecg::compress::QuantizedMatrix> q = [&] {
      ECG_TRACE_SCOPE_DETAIL("fp_encode", 0, 0);
      return ecg::compress::Quantize(m, opts);
    }();
    ecg::Result<Matrix> d = [&] {
      ECG_TRACE_SCOPE_DETAIL("fp_decode", 0, 0);
      return ecg::compress::Dequantize(*q);
    }();
    benchmark::DoNotOptimize(d->data());
  };

  bare_pass();
  hooked_pass();  // warm both paths
  const double bare_ms = BestOfMs(kReps, bare_pass);
  const double disabled_ms = BestOfMs(kReps, hooked_pass);
  ecg::obs::Tracer::Global().Enable(/*level=*/2, /*chrome_trace_path=*/"");
  const double enabled_ms = BestOfMs(kReps, hooked_pass);
  const uint64_t recorded = ecg::obs::Tracer::Global().recorded_events();
  ecg::obs::Tracer::Global().Disable();
  ecg::ThreadPool::SetSerialMode(false);

  const double overhead_pct = (disabled_ms / bare_ms - 1.0) * 100.0;
  const double enabled_pct = (enabled_ms / bare_ms - 1.0) * 100.0;
  const bool pass = overhead_pct < 2.0;

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  out << "{\n  \"stamp\": " << ecg::bench::BenchStampJson()
      << ",\n  \"matrix\": {\"rows\": " << kRows << ", \"cols\": " << kCols
      << "},\n  \"bits\": " << kBits << ",\n  \"reps\": " << kReps
      << ",\n  \"bare_roundtrip_ms\": " << bare_ms
      << ",\n  \"traced_disabled_roundtrip_ms\": " << disabled_ms
      << ",\n  \"traced_enabled_roundtrip_ms\": " << enabled_ms
      << ",\n  \"disabled_overhead_pct\": " << overhead_pct
      << ",\n  \"enabled_overhead_pct\": " << enabled_pct
      << ",\n  \"enabled_events_recorded\": " << recorded
      << ",\n  \"budget_pct\": 2.0,\n  \"pass\": "
      << (pass ? "true" : "false") << "\n}\n";
  std::printf(
      "trace overhead: bare %.3f ms | hooks disabled %.3f ms (%+.2f%%) | "
      "hooks enabled %.3f ms (%+.2f%%)  -> %s\n",
      bare_ms, disabled_ms, overhead_pct, enabled_ms, enabled_pct,
      pass ? "PASS (<2%)" : "FAIL (>=2%)");
  return pass ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --metrics_overhead mode: cost of the metrics-plane hooks (PR 7). Two
// levels:
//   * micro — the fused quantize round trip instrumented the way the
//     exchangers instrument it (a StatsEnabled-gated RecordStat, a
//     MetricsEnabled-gated histogram Observe). With the plane off, the
//     hooks must cost < 0.5% over the bare loop (one relaxed load and a
//     predictable branch each, no allocation). A/B-timing a 0.4 ms pass
//     cannot resolve a two-load cost against scheduler noise, so the gate
//     divides an amplified hook-only loop (2^20 iterations) by the bare
//     pass; the A/B numbers are still reported for context.
//   * train — wall-clock of a small distributed train with the metrics
//     plane on (live registry + bridge) vs the same train with only
//     memory-mode stats. The baseline already pays the stats
//     instrumentation (saturation scans, residual norms — budgeted when
//     that plane landed); the delta is what the *metrics* plane adds per
//     epoch, and must stay < 2%. min-of-reps on both sides absorbs
//     scheduler noise; a fully-dark run is also timed for context.
// Emits BENCH_obs.json; the CI obs-gate job fails on either budget.
// ---------------------------------------------------------------------------

/// One small distributed train per call; the fixture (graph, partition,
/// options) is built once so repeated calls time only the train.
class TrainOverheadFixture {
 public:
  TrainOverheadFixture() {
    ecg::graph::SbmConfig c;
    c.num_vertices = 4000;
    c.num_classes = 4;
    c.avg_degree = 6.0;
    c.feature_dim = 32;
    c.homophily = 0.8;
    c.degree_skew = 0.0;
    c.seed = 11;
    auto g = ecg::graph::GenerateSbm(c);
    ECG_CHECK(g.ok()) << g.status();
    g_ = std::move(*g);
    ECG_CHECK(ecg::graph::AssignSplits(&g_, 2000, 1000, 1000, 5).ok());
    auto part = ecg::graph::HashPartition(g_, 4);
    ECG_CHECK(part.ok()) << part.status();
    part_ = std::move(*part);
    opt_.model.num_layers = 2;
    opt_.model.hidden_dim = 64;
    opt_.fp_mode = ecg::core::FpMode::kCompressed;
    opt_.bp_mode = ecg::core::BpMode::kResEc;
    // Long enough that fixed-cost scheduler hiccups (~1 ms) are small
    // against the run, short enough for several paired rounds.
    opt_.epochs = 8;
  }

  double WallSeconds() {
    const auto t0 = std::chrono::steady_clock::now();
    auto r = ecg::core::DistributedTrainer(g_, part_, opt_).Train();
    const auto t1 = std::chrono::steady_clock::now();
    ECG_CHECK(r.ok()) << r.status();
    return std::chrono::duration<double>(t1 - t0).count();
  }

 private:
  ecg::graph::Graph g_;
  ecg::graph::Partition part_;
  ecg::core::TrainOptions opt_;
};

int RunMetricsOverhead(const std::string& json_path) {
  constexpr size_t kRows = 4096, kCols = 128;
  constexpr int kBits = 2;
  constexpr int kReps = 30;
  const Matrix m = RandomMatrix(kRows, kCols, 12);
  QuantizerOptions opts{kBits, BucketValueMode::kMidpoint};
  ecg::ThreadPool::SetSerialMode(true);
  ecg::obs::MetricsRegistry::Global().Disable();
  ecg::obs::StatsRegistry::Global().Disable();

  const auto bare_pass = [&] {
    auto q = ecg::compress::Quantize(m, opts);
    auto d = ecg::compress::Dequantize(*q);
    benchmark::DoNotOptimize(d->data());
  };
  const auto hooked_pass = [&] {
    // Hook density as in fp_exchange: one stat record per codec half,
    // one histogram observation per pass.
    auto q = ecg::compress::Quantize(m, opts);
    if (ecg::obs::StatsEnabled()) {
      ecg::obs::RecordStat("fp.bench_encode_values",
                           static_cast<double>(m.size()), 0, 0);
    }
    auto d = ecg::compress::Dequantize(*q);
    if (ecg::obs::MetricsEnabled()) {
      ecg::obs::MetricsRegistry::Global()
          .GetHistogram("ecg_bench_roundtrip_values",
                        "Values pushed through the bench round trip.", {})
          ->Observe(static_cast<double>(m.size()));
    }
    benchmark::DoNotOptimize(d->data());
  };

  bare_pass();
  hooked_pass();  // warm both paths
  // Interleaved rounds: bare and hooked share thermal/scheduler weather,
  // so the min-of-mins difference isolates the hook cost instead of the
  // machine's mood at two different moments.
  double bare_ms = std::numeric_limits<double>::infinity();
  double disabled_ms = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 4; ++round) {
    bare_ms = std::min(bare_ms, BestOfMs(kReps, bare_pass));
    disabled_ms = std::min(disabled_ms, BestOfMs(kReps, hooked_pass));
  }
  // Amplified measurement of the two disabled hooks a pass executes.
  constexpr int kHookIters = 1 << 20;
  const auto hook_only = [&] {
    for (int i = 0; i < kHookIters; ++i) {
      bool seen = ecg::obs::StatsEnabled();
      benchmark::DoNotOptimize(seen);
      seen = ecg::obs::MetricsEnabled();
      benchmark::DoNotOptimize(seen);
    }
  };
  hook_only();
  const double hook_pair_ns =
      BestOfMs(10, hook_only) * 1e6 / kHookIters;  // both hooks, one iter
  ecg::obs::MetricsRegistry::Global().Enable();
  ecg::obs::StatsRegistry::Global().Enable("");
  const double enabled_ms = BestOfMs(kReps, hooked_pass);
  ecg::obs::MetricsRegistry::Global().Disable();
  ecg::obs::StatsRegistry::Global().Disable();
  ecg::obs::MetricsRegistry::Global().Reset();
  ecg::obs::StatsRegistry::Global().Reset();
  ecg::ThreadPool::SetSerialMode(false);

  // Train-level. Dark run first (context), then interleaved rounds of the
  // stats-only baseline and stats + metrics: the pair differs only by the
  // metrics plane, and sharing each round's scheduler weather keeps the
  // delta attributable to it. Serial mode takes the thread-pool scheduler
  // out of the measurement: a 2% budget is meaningless when pool jitter
  // alone is ±4% of a run this short.
  ecg::ThreadPool::SetSerialMode(true);
  TrainOverheadFixture train;
  double train_dark_s = std::numeric_limits<double>::infinity();
  double train_base_s = std::numeric_limits<double>::infinity();
  double train_on_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {
    train_dark_s = std::min(train_dark_s, train.WallSeconds());
  }
  // Median of the per-round (on - base) deltas: each pair shares its
  // round's weather, and the median shrugs off the rounds where a
  // descheduling event hit one side.
  constexpr int kTrainRounds = 7;
  std::vector<double> deltas;
  deltas.reserve(kTrainRounds);
  for (int rep = 0; rep < kTrainRounds; ++rep) {
    ecg::obs::StatsRegistry::Global().Enable("");
    const double base = train.WallSeconds();
    ecg::obs::MetricsRegistry::Global().Enable();
    const double on = train.WallSeconds();
    ecg::obs::MetricsRegistry::Global().Disable();
    train_base_s = std::min(train_base_s, base);
    train_on_s = std::min(train_on_s, on);
    deltas.push_back(on - base);
  }
  std::sort(deltas.begin(), deltas.end());
  const double median_delta_s = deltas[deltas.size() / 2];
  ecg::obs::StatsRegistry::Global().Disable();
  ecg::obs::MetricsRegistry::Global().Reset();
  ecg::obs::StatsRegistry::Global().Reset();
  ecg::ThreadPool::SetSerialMode(false);

  // Gate on the amplified hook cost relative to a real codec pass; the
  // A/B difference below is reported but too noise-prone to gate on.
  const double disabled_pct = hook_pair_ns / (bare_ms * 1e6) * 100.0;
  const double ab_disabled_pct = (disabled_ms / bare_ms - 1.0) * 100.0;
  const double enabled_pct = (enabled_ms / bare_ms - 1.0) * 100.0;
  const double train_pct = median_delta_s / train_base_s * 100.0;
  const bool disabled_pass = disabled_pct < 0.5;
  const bool train_pass = train_pct < 2.0;
  const bool pass = disabled_pass && train_pass;

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  out << "{\n  \"stamp\": " << ecg::bench::BenchStampJson()
      << ",\n  \"micro\": {\"rows\": " << kRows << ", \"cols\": " << kCols
      << ", \"bits\": " << kBits << ", \"reps\": " << kReps
      << ",\n    \"bare_roundtrip_ms\": " << bare_ms
      << ",\n    \"hooked_disabled_roundtrip_ms\": " << disabled_ms
      << ",\n    \"hooked_enabled_roundtrip_ms\": " << enabled_ms
      << ",\n    \"hook_pair_ns\": " << hook_pair_ns
      << ",\n    \"disabled_overhead_pct\": " << disabled_pct
      << ",\n    \"ab_disabled_overhead_pct\": " << ab_disabled_pct
      << ",\n    \"enabled_overhead_pct\": " << enabled_pct
      << ",\n    \"disabled_budget_pct\": 0.5"
      << ",\n    \"disabled_pass\": " << (disabled_pass ? "true" : "false")
      << "},\n  \"train\": {\"rounds\": 7"
      << ",\n    \"dark_wall_seconds\": " << train_dark_s
      << ",\n    \"stats_only_wall_seconds\": " << train_base_s
      << ",\n    \"stats_and_metrics_wall_seconds\": " << train_on_s
      << ",\n    \"median_paired_delta_seconds\": " << median_delta_s
      << ",\n    \"metrics_overhead_pct\": " << train_pct
      << ",\n    \"metrics_budget_pct\": 2.0"
      << ",\n    \"enabled_pass\": " << (train_pass ? "true" : "false")
      << "},\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::printf(
      "metrics overhead (micro): bare %.3f ms | hooks off %.3f ms "
      "(A/B %+.2f%%, amplified %.4f%%) | hooks on %.3f ms (%+.2f%%)\n",
      bare_ms, disabled_ms, ab_disabled_pct, disabled_pct, enabled_ms,
      enabled_pct);
  std::printf(
      "metrics overhead (train): dark %.3f s | stats %.3f s | "
      "stats+metrics %.3f s (metrics median-paired %+.2f%%)\n",
      train_dark_s, train_base_s, train_on_s, train_pct);
  std::printf("metrics budgets (off < 0.5%% micro, on < 2%% train): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --fault_overhead mode: cost of the fault-injection hooks on the message
// hub hot path. Four variants of the same Send/Recv loop:
//   * seedref   — an inline replica of the pre-fault-tolerance hub (plain
//                 mutex + map<(from,tag), deque> push/pop, no injector
//                 branch, no framing) as the reference;
//   * disabled  — the real MessageHub with no injector attached. This is
//                 what every fault-free run pays; budget < 1% over seedref.
//   * framed    — an empty injector attached: every payload is framed
//                 (envelope + CRC32C) and received via TryRecv, no faults.
//   * chaos     — a 2% drop schedule, exercising NACK/retransmit.
// ---------------------------------------------------------------------------

struct SeedHubRef {
  explicit SeedHubRef(uint32_t parties) : parties(parties), stats(parties) {}

  const uint32_t parties;
  ecg::dist::CommStats stats;
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::pair<uint32_t, uint64_t>, std::vector<uint8_t>> messages;

  void Send(uint32_t from, uint32_t to, uint64_t tag,
            std::vector<uint8_t> payload) {
    ECG_CHECK(from < parties && to < parties) << "bad worker id in Send";
    stats.RecordSend(from, to, payload.size());
    {
      std::lock_guard<std::mutex> lock(mu);
      const auto key = std::make_pair(from, tag);
      ECG_CHECK(messages.find(key) == messages.end())
          << "duplicate message from " << from << " tag " << tag;
      messages.emplace(key, std::move(payload));
    }
    cv.notify_all();
  }
  std::vector<uint8_t> Recv(uint32_t to, uint32_t from, uint64_t tag) {
    ECG_CHECK(from < parties && to < parties) << "bad worker id in Recv";
    std::unique_lock<std::mutex> lock(mu);
    const auto key = std::make_pair(from, tag);
    cv.wait(lock, [&] { return messages.count(key) > 0; });
    auto it = messages.find(key);
    std::vector<uint8_t> payload = std::move(it->second);
    messages.erase(it);
    return payload;
  }
};

struct FaultOverheadRow {
  size_t payload_bytes = 0;
  double seed_ms = 0.0, disabled_ms = 0.0, framed_ms = 0.0, chaos_ms = 0.0;

  double DisabledPct() const { return (disabled_ms / seed_ms - 1.0) * 100.0; }
  double FramedPct() const { return (framed_ms / seed_ms - 1.0) * 100.0; }
  double ChaosPct() const { return (chaos_ms / seed_ms - 1.0) * 100.0; }
};

FaultOverheadRow MeasureFaultOverhead(size_t payload_bytes,
                                      uint32_t messages, int reps) {
  const std::vector<uint8_t> payload(payload_bytes, 0x5A);
  FaultOverheadRow row;
  row.payload_bytes = payload_bytes;

  SeedHubRef seedref(2);
  row.seed_ms = BestOfMs(reps, [&] {
    for (uint32_t i = 0; i < messages; ++i) {
      const uint64_t tag = ecg::dist::MessageHub::MakeTag(i, 0, 2);
      seedref.Send(0, 1, tag, payload);
      benchmark::DoNotOptimize(seedref.Recv(1, 0, tag).data());
    }
  });

  ecg::dist::MessageHub hub(2);
  row.disabled_ms = BestOfMs(reps, [&] {
    for (uint32_t i = 0; i < messages; ++i) {
      const uint64_t tag = ecg::dist::MessageHub::MakeTag(i, 0, 2);
      hub.Send(0, 1, tag, payload);
      benchmark::DoNotOptimize(hub.Recv(1, 0, tag).data());
    }
  });

  ecg::dist::FaultInjector empty;
  hub.set_fault_injector(&empty);
  row.framed_ms = BestOfMs(reps, [&] {
    for (uint32_t i = 0; i < messages; ++i) {
      const uint64_t tag = ecg::dist::MessageHub::MakeTag(i, 0, 2);
      hub.Send(0, 1, tag, payload);
      std::vector<uint8_t> out;
      hub.TryRecv(1, 0, tag, &out).CheckOk();
      benchmark::DoNotOptimize(out.data());
    }
  });

  auto chaos = ecg::dist::FaultInjector::Parse("drop=0.02,seed=3,retries=3");
  chaos.status().CheckOk();
  hub.set_fault_injector(&*chaos);
  row.chaos_ms = BestOfMs(reps, [&] {
    for (uint32_t i = 0; i < messages; ++i) {
      const uint64_t tag = ecg::dist::MessageHub::MakeTag(i, 0, 2);
      hub.Send(0, 1, tag, payload);
      std::vector<uint8_t> out;
      // A permanently lost message (p^4 per message) is fine to skip: the
      // bench measures transport cost, not delivery guarantees.
      (void)hub.TryRecv(1, 0, tag, &out);
      benchmark::DoNotOptimize(out.data());
    }
  });
  hub.set_fault_injector(nullptr);
  return row;
}

int RunFaultOverhead(const std::string& json_path) {
  constexpr int kReps = 30;
  // Small control row (per-message constants dominate) and a realistic row
  // sized like a quantized halo slice (where the budget applies: the paper
  // system ships tens-of-KB messages, so a nanosecond-scale hook constant
  // must disappear into the copy cost).
  const FaultOverheadRow small = MeasureFaultOverhead(4096, 2000, kReps);
  const FaultOverheadRow real = MeasureFaultOverhead(65536, 500, kReps);
  const bool pass = real.DisabledPct() < 1.0;

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  out << "{\n  \"stamp\": " << ecg::bench::BenchStampJson()
      << ",\n  \"reps\": " << kReps << ",\n  \"rows\": [";
  bool first = true;
  for (const FaultOverheadRow* r : {&small, &real}) {
    out << (first ? "" : ",") << "\n    {\"payload_bytes\": "
        << r->payload_bytes << ",\n     \"seedref_pass_ms\": " << r->seed_ms
        << ",\n     \"disabled_pass_ms\": " << r->disabled_ms
        << ",\n     \"framed_pass_ms\": " << r->framed_ms
        << ",\n     \"chaos_drop2pct_pass_ms\": " << r->chaos_ms
        << ",\n     \"disabled_overhead_pct\": " << r->DisabledPct()
        << ",\n     \"framed_overhead_pct\": " << r->FramedPct()
        << ",\n     \"chaos_overhead_pct\": " << r->ChaosPct() << "}";
    first = false;
  }
  out << "\n  ],\n  \"budget_pct\": 1.0,\n  \"gated_payload_bytes\": "
      << real.payload_bytes << ",\n  \"pass\": " << (pass ? "true" : "false")
      << "\n}\n";
  for (const FaultOverheadRow* r : {&small, &real}) {
    std::printf(
        "fault overhead @%-6zuB: seedref %.3f ms | disabled %.3f ms "
        "(%+.2f%%) | framed %.3f ms (%+.2f%%) | 2%% drop %.3f ms (%+.2f%%)\n",
        r->payload_bytes, r->seed_ms, r->disabled_ms, r->DisabledPct(),
        r->framed_ms, r->FramedPct(), r->chaos_ms, r->ChaosPct());
  }
  std::printf("disabled-path budget (<1%% at %zuB): %s\n",
              real.payload_bytes, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --gemm mode: the float tensor kernels of the registry on the benchmark
// workloads' hot shapes, timed under every variant with the pool in serial
// mode (as inside a simulated worker), and each variant's output compared
// with memcmp against the forced-scalar reference. Exits non-zero on any
// mismatch; the timings are recorded, not gated.
// ---------------------------------------------------------------------------

struct GemmCase {
  std::string name;
  std::string op;  // "gemm", "gemmt_a", "gemmt_b" or "spmm"
  Matrix a, b;
};

/// ReLU'd Gaussian: about half the entries are exact zeros, like a
/// hidden activation.
Matrix ReluMatrix(size_t rows, size_t cols, uint64_t seed) {
  Matrix m = RandomMatrix(rows, cols, seed);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = std::max(m.data()[i], 0.0f);
  }
  return m;
}

int RunGemmBench(const std::string& json_path) {
  constexpr int kReps = 5;
  // Per-worker shapes of the benchmark workloads (4 workers): reddit-sim
  // layer 1 is 4000 owned rows x 602 features -> hidden 16; products-sim
  // is 8000 owned rows, 100 features, hidden 64.
  std::vector<GemmCase> cases;
  cases.push_back({"reddit.l1.gemm", "gemm", RandomMatrix(4000, 602, 21),
                   RandomMatrix(602, 16, 22)});
  cases.push_back({"reddit.l1.gemmt_a", "gemmt_a",
                   RandomMatrix(4000, 602, 21), RandomMatrix(4000, 16, 23)});
  cases.push_back({"products.l1.gemm", "gemm", RandomMatrix(8000, 100, 24),
                   RandomMatrix(100, 64, 25)});
  cases.push_back({"products.l2.gemm", "gemm", ReluMatrix(8000, 64, 26),
                   RandomMatrix(64, 64, 27)});
  cases.push_back({"products.l2.gemmt_a", "gemmt_a", ReluMatrix(8000, 64, 26),
                   RandomMatrix(8000, 64, 28)});
  cases.push_back({"products.l2.gemmt_b", "gemmt_b", RandomMatrix(8000, 64, 28),
                   RandomMatrix(64, 64, 27)});
  cases.push_back({"sbm.spmm.h16", "spmm", RandomMatrix(8000, 16, 29), {}});
  cases.push_back({"sbm.spmm.h64", "spmm", ReluMatrix(8000, 64, 30), {}});
  const ecg::tensor::CsrMatrix adj = SbmAdjacency(8000, 16.0);

  auto run = [&](const GemmCase& c, Matrix* out) {
    if (c.op == "gemm") {
      ecg::tensor::Gemm(c.a, c.b, out);
    } else if (c.op == "gemmt_a") {
      ecg::tensor::GemmTransposeA(c.a, c.b, out);
    } else if (c.op == "gemmt_b") {
      ecg::tensor::GemmTransposeB(c.a, c.b, out);
    } else {
      adj.SpMM(c.a, out);
    }
  };

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  ecg::ThreadPool::SetSerialMode(true);
  const auto variants = ecg::kern::AvailableVariants();
  bool all_equal = true;
  out << "{\n  \"stamp\": " << ecg::bench::BenchStampJson()
      << ",\n  \"reps\": " << kReps << ",\n  \"serial\": true"
      << ",\n  \"cases\": [";
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    const GemmCase& c = cases[ci];
    ECG_CHECK(ecg::kern::ForceVariant("scalar"));
    Matrix ref;
    run(c, &ref);
    out << (ci == 0 ? "" : ",") << "\n    {\"name\": \"" << c.name
        << "\", \"op\": \"" << c.op << "\", \"a\": [" << c.a.rows() << ", "
        << c.a.cols() << "]";
    if (c.op != "spmm") {
      out << ", \"b\": [" << c.b.rows() << ", " << c.b.cols() << "]";
    } else {
      out << ", \"nnz\": " << adj.nnz();
    }
    out << ",\n     \"variants\": [";
    double scalar_ms = 0.0;
    for (size_t vi = variants.size(); vi-- > 0;) {  // scalar first
      const ecg::kern::Kernels* v = variants[vi];
      ECG_CHECK(ecg::kern::ForceVariant(v->name));
      Matrix got;
      const double ms = BestOfMs(kReps, [&] {
        run(c, &got);
        benchmark::DoNotOptimize(got.data());
      });
      const bool equal =
          got.rows() == ref.rows() && got.cols() == ref.cols() &&
          (ref.size() == 0 ||
           std::memcmp(got.data(), ref.data(), ref.size() * sizeof(float)) ==
               0);
      all_equal = all_equal && equal;
      if (vi + 1 == variants.size()) scalar_ms = ms;
      out << (vi + 1 == variants.size() ? "" : ", ") << "{\"variant\": \""
          << v->name << "\", \"ms\": " << ms
          << ", \"speedup_vs_scalar\": " << scalar_ms / ms
          << ", \"memcmp_equal\": " << (equal ? "true" : "false") << "}";
      std::printf("%-20s %-8s %-7s %9.3f ms  %6.2fx  %s\n", c.name.c_str(),
                  c.op.c_str(), v->name, ms, scalar_ms / ms,
                  equal ? "memcmp-equal" : "MISMATCH vs scalar");
    }
    out << "]}";
  }
  ECG_CHECK(ecg::kern::ForceVariant("auto"));
  ecg::ThreadPool::SetSerialMode(false);
  out << "\n  ],\n  \"all_memcmp_equal\": " << (all_equal ? "true" : "false")
      << "\n}\n";
  std::printf("gemm/spmm variants vs scalar: %s\n",
              all_equal ? "all memcmp-equal" : "MISMATCH");
  return all_equal ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --overlap mode: end-to-end simulated makespan of the split-phase
// overlapped schedule vs the sequential one. Comm-bound configuration on
// purpose — uncompressed (Non-cp) fp32 halos over the default NetworkModel
// — so the interior-compute window is the only thing that can hide wire
// time. The partition is aligned with the SBM's planted communities: the
// bench gates the overlap schedule, not partitioner quality, and the
// planted clustering makes the cut (and with it the interior fraction that
// earns overlap credit) a controlled function of homophily instead of
// whatever MetisLike converges to on a given seed. Budget: the overlapped
// schedule must cut the simulated makespan by at least 10% at 8 workers.
// Compute charges are measured thread-CPU, so load spikes inflate
// individual runs; each schedule is run three times and the minimum
// makespan — the clean-machine envelope — is compared.

struct OverlapRow {
  uint32_t workers = 0;
  double off_seconds = 0.0;
  double on_seconds = 0.0;
  double ReductionPct() const {
    return off_seconds > 0.0
               ? (off_seconds - on_seconds) / off_seconds * 100.0
               : 0.0;
  }
};

OverlapRow MeasureOverlapMakespan(uint32_t workers) {
  ecg::graph::SbmConfig c;
  c.num_vertices = 12000;
  c.num_classes = 8;
  // Low degree keeps the interior fraction high: a row is interior only if
  // every neighbor is owned, so P(interior) falls off like
  // homophily^degree. Degree 4 at homophily 0.85 leaves roughly half the
  // rows earning overlap credit while the cut still pushes real halo
  // traffic.
  c.avg_degree = 4.0;
  c.feature_dim = 64;
  c.homophily = 0.85;
  c.degree_skew = 0.0;
  c.seed = 7;
  auto g = ecg::graph::GenerateSbm(c);
  ECG_CHECK(g.ok()) << g.status();
  ECG_CHECK(ecg::graph::AssignSplits(&*g, 6000, 2400, 2400, 5).ok());
  // Community-aligned ownership (class mod parts): the cut is then
  // ~(1-homophily) of the edges by construction, a dial the config above
  // sets deliberately.
  ecg::graph::Partition part;
  part.num_parts = workers;
  part.owner.resize(g->num_vertices());
  part.members.resize(workers);
  for (uint32_t v = 0; v < g->num_vertices(); ++v) {
    const uint32_t p =
        static_cast<uint32_t>(g->labels()[v]) % workers;
    part.owner[v] = p;
    part.members[p].push_back(v);
  }

  ecg::core::TrainOptions opt;
  // Four layers: the middle exchanges carry hidden-width halos whose
  // windows also hold hidden x hidden interior transforms — the
  // best-hidden case. The first window is narrow on the wire (feature
  // dim) and the last is credit-poor (hidden x classes transform), so
  // deeper stacks raise the hidable share.
  opt.model.num_layers = 4;
  opt.model.hidden_dim = 256;
  opt.fp_mode = ecg::core::FpMode::kExact;
  opt.bp_mode = ecg::core::BpMode::kExact;
  opt.epochs = 3;
  // One simulated core: compute is charged at the measured rate
  // (Speedup 1.0), which is also what the schedule can hide. More cores
  // shrink the charge but not the wire time, thinning the credit.
  opt.machine.cores = 1;

  OverlapRow row;
  row.workers = workers;
  row.off_seconds = std::numeric_limits<double>::infinity();
  row.on_seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    opt.overlap = false;
    auto off = ecg::core::DistributedTrainer(*g, part, opt).Train();
    ECG_CHECK(off.ok()) << off.status();
    opt.overlap = true;
    auto on = ecg::core::DistributedTrainer(*g, part, opt).Train();
    ECG_CHECK(on.ok()) << on.status();
    row.off_seconds = std::min(row.off_seconds, off->total_sim_seconds);
    row.on_seconds = std::min(row.on_seconds, on->total_sim_seconds);
  }
  return row;
}

int RunOverlapBench(const std::string& json_path) {
  const OverlapRow w4 = MeasureOverlapMakespan(4);
  const OverlapRow w8 = MeasureOverlapMakespan(8);
  const bool pass = w8.ReductionPct() >= 10.0;

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  out << "{\n  \"stamp\": " << ecg::bench::BenchStampJson()
      << ",\n  \"rows\": [";
  bool first = true;
  for (const OverlapRow* r : {&w4, &w8}) {
    out << (first ? "" : ",") << "\n    {\"workers\": " << r->workers
        << ",\n     \"sequential_sim_seconds\": " << r->off_seconds
        << ",\n     \"overlapped_sim_seconds\": " << r->on_seconds
        << ",\n     \"reduction_pct\": " << r->ReductionPct() << "}";
    first = false;
  }
  out << "\n  ],\n  \"budget_reduction_pct\": 10.0,\n  \"gated_workers\": 8"
      << ",\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  for (const OverlapRow* r : {&w4, &w8}) {
    std::printf(
        "overlap @%u workers: sequential %.3f s | overlapped %.3f s "
        "(-%.1f%%)\n",
        r->workers, r->off_seconds, r->on_seconds, r->ReductionPct());
  }
  std::printf("overlap budget (>=10%% reduction at 8 workers): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ecg::obs::InitObservabilityFromArgs(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "bench_microkernels [mode] [google-benchmark args]\n"
          "modes (each writes a BENCH_*.json stamped with commit/kernel "
          "variant/threads):\n"
          "  --compress_json[=PATH]   fused codec vs seed pipeline; also "
          "the kernel-registry\n"
          "                           auto-vs-scalar round trips and the "
          "fused int8 GEMM gate\n"
          "                           (the trainers' --int8_gemm path, "
          "budget >= 1.5x)\n"
          "  --trace_overhead[=PATH]  observability hook cost (budget < "
          "2%%)\n"
          "  --metrics_overhead[=PATH] metrics-plane hook cost (off < "
          "0.5%% micro, on < 2%% train)\n"
          "  --fault_overhead[=PATH]  fault-injection hook cost (budget < "
          "1%%)\n"
          "  --overlap[=PATH]         overlapped vs sequential makespan "
          "(budget >= 10%%)\n"
          "  --gemm[=PATH]            float GEMM/SpMM kernels per variant on "
          "the workload\n"
          "                           shapes (fails on any memcmp mismatch "
          "with scalar)\n"
          "kernel dispatch:\n"
          "  --kernels=NAME           force a registry variant: "
          "scalar|avx2|avx512|neon|auto\n"
          "  ECG_KERNELS=NAME         environment equivalent (flag wins)\n"
          "Without a mode, runs the google-benchmark micro-kernel suite.\n");
      return 0;
    }
    if (arg.rfind("--compress_json", 0) == 0) {
      std::string path = "BENCH_compress.json";
      const auto eq = arg.find('=');
      if (eq != std::string::npos) path = arg.substr(eq + 1);
      return RunCompressComparison(path);
    }
    if (arg.rfind("--trace_overhead", 0) == 0) {
      std::string path = "BENCH_trace_overhead.json";
      const auto eq = arg.find('=');
      if (eq != std::string::npos) path = arg.substr(eq + 1);
      return RunTraceOverhead(path);
    }
    if (arg.rfind("--metrics_overhead", 0) == 0) {
      std::string path = "BENCH_obs.json";
      const auto eq = arg.find('=');
      if (eq != std::string::npos) path = arg.substr(eq + 1);
      return RunMetricsOverhead(path);
    }
    if (arg.rfind("--fault_overhead", 0) == 0) {
      std::string path = "BENCH_fault_overhead.json";
      const auto eq = arg.find('=');
      if (eq != std::string::npos) path = arg.substr(eq + 1);
      return RunFaultOverhead(path);
    }
    if (arg.rfind("--gemm", 0) == 0) {
      std::string path = "BENCH_gemm.json";
      const auto eq = arg.find('=');
      if (eq != std::string::npos) path = arg.substr(eq + 1);
      return RunGemmBench(path);
    }
    if (arg.rfind("--overlap", 0) == 0) {
      std::string path = "BENCH_overlap.json";
      const auto eq = arg.find('=');
      if (eq != std::string::npos) path = arg.substr(eq + 1);
      return RunOverlapBench(path);
    }
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
