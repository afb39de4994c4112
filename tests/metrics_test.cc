#include "common/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/metrics_http.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/trainer.h"
#include "dist/cluster.h"
#include "dist/elastic.h"
#include "dist/fault.h"
#include "dist/param_server.h"
#include "graph/datasets.h"
#include "recv_from.h"

// Allocation counter for the disabled-path check: with the plane off, the
// instrumentation shape `if (MetricsEnabled()) {...}` and RecordStat must
// never reach an allocation.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ecg::obs {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().Reset();
    StatsRegistry::Global().Reset();
    MetricsRegistry::Global().Enable();
  }
  void TearDown() override {
    MetricsRegistry::Global().Disable();
    MetricsRegistry::Global().Reset();
    StatsRegistry::Global().Disable();
    StatsRegistry::Global().Reset();
  }
};

// ---- counters / gauges ---------------------------------------------------

TEST_F(MetricsTest, CounterAccumulatesAcrossThreads) {
  Counter* c = MetricsRegistry::Global().GetCounter("t_c", "help");
  constexpr int kThreads = 8, kIncs = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kIncs; ++i) c->Inc(1.5);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(c->Value(), kThreads * kIncs * 1.5);
}

TEST_F(MetricsTest, GaugeIsLastWriteWins) {
  Gauge* g = MetricsRegistry::Global().GetGauge("t_g", "help");
  g->Set(3.25);
  EXPECT_DOUBLE_EQ(g->Value(), 3.25);
  g->Set(-1.0);
  EXPECT_DOUBLE_EQ(g->Value(), -1.0);
}

TEST_F(MetricsTest, HandlesAreStablePerLabelSet) {
  Counter* a = MetricsRegistry::Global().GetCounter("t_l", "h",
                                                    {{"peer", "1"}});
  Counter* b = MetricsRegistry::Global().GetCounter("t_l", "h",
                                                    {{"peer", "2"}});
  Counter* a2 = MetricsRegistry::Global().GetCounter("t_l", "h",
                                                     {{"peer", "1"}});
  EXPECT_NE(a, b);
  EXPECT_EQ(a, a2);
}

// ---- histogram buckets ---------------------------------------------------

TEST_F(MetricsTest, BucketIndexEdges) {
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-5.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1e-300), 0);  // underflow
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);
}

TEST_F(MetricsTest, BucketBoundsAreConsistent) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    // Log-uniform across the whole covered range.
    const int e = Histogram::kMinExp +
                  static_cast<int>(rng.NextBelow(
                      Histogram::kMaxExp - Histogram::kMinExp - 1));
    const double v = std::ldexp(1.0 + rng.NextDouble(), e);
    const int b = Histogram::BucketIndex(v);
    ASSERT_GT(b, 0) << v;
    ASSERT_LT(b, Histogram::kNumBuckets - 1) << v;
    // Buckets are half-open: v in [upper(b-1), upper(b)).
    ASSERT_LT(v, Histogram::BucketUpperBound(b)) << v;
    ASSERT_GE(v, Histogram::BucketUpperBound(b - 1)) << v;
  }
}

// ---- quantile property test vs exact sorted reference --------------------

void CheckQuantiles(const std::vector<double>& samples, double rel_tol) {
  Histogram h;
  for (double v : samples) h.Observe(v);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const size_t rank = std::min(
        sorted.size() - 1,
        static_cast<size_t>(
            std::ceil(q * static_cast<double>(sorted.size()))) -
            1);
    const double exact = sorted[rank];
    const double est = h.Quantile(q);
    // The estimate is the inclusive upper bound of the exact sample's
    // bucket: never below the exact value, at most one sub-bucket above.
    EXPECT_GE(est, exact * (1.0 - 1e-12)) << "q=" << q;
    EXPECT_LE(est, exact * (1.0 + rel_tol) + 1e-12) << "q=" << q;
  }
}

TEST_F(MetricsTest, QuantileMatchesSortedReferenceUniform) {
  Rng rng(1);
  std::vector<double> s(20000);
  for (double& v : s) v = rng.NextDouble() * 100.0 + 1e-3;
  CheckQuantiles(s, 1.0 / Histogram::kSubBuckets);
}

TEST_F(MetricsTest, QuantileMatchesSortedReferenceLognormal) {
  Rng rng(2);
  std::vector<double> s(20000);
  for (double& v : s) v = std::exp(rng.NextGaussian() * 3.0);
  CheckQuantiles(s, 1.0 / Histogram::kSubBuckets);
}

TEST_F(MetricsTest, QuantileMatchesSortedReferenceExponentialTail) {
  Rng rng(3);
  std::vector<double> s(20000);
  for (double& v : s) {
    v = -std::log(1.0 - rng.NextDouble() * (1.0 - 1e-12)) * 0.01;
  }
  CheckQuantiles(s, 1.0 / Histogram::kSubBuckets);
}

TEST_F(MetricsTest, QuantileOfConstantSeriesIsTight) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Observe(0.125);  // exact power of two
  // 0.125 is the lower bound of its bucket; the estimate is the bucket's
  // upper bound, one sub-bucket (1/32) above.
  const double expected = 0.125 * 33.0 / 32.0;
  for (double q : {0.5, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), expected);
  }
  EXPECT_EQ(h.TotalCount(), 1000u);
  EXPECT_DOUBLE_EQ(h.Sum(), 125.0);
}

TEST_F(MetricsTest, QuantileOfEmptyHistogramIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

// ---- multi-thread merge determinism --------------------------------------

TEST_F(MetricsTest, ConcurrentObserveMergesExactly) {
  constexpr int kThreads = 8, kPerThread = 50000;
  // Reference: the union of all threads' samples recorded serially.
  Histogram serial;
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(100 + t);
    for (int i = 0; i < kPerThread; ++i) {
      serial.Observe(std::exp(rng.NextGaussian()));
    }
  }

  for (int round = 0; round < 3; ++round) {
    Histogram concurrent;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&concurrent, t] {
        Rng rng(100 + t);
        for (int i = 0; i < kPerThread; ++i) {
          concurrent.Observe(std::exp(rng.NextGaussian()));
        }
      });
    }
    for (auto& t : threads) t.join();

    // Counts merge exactly regardless of interleaving: every bucket equals
    // the serial reference, so every quantile is identical too.
    uint64_t a[Histogram::kNumBuckets], b[Histogram::kNumBuckets];
    serial.SnapshotBuckets(a);
    concurrent.SnapshotBuckets(b);
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      ASSERT_EQ(a[i], b[i]) << "bucket " << i << " round " << round;
    }
    EXPECT_EQ(serial.TotalCount(), concurrent.TotalCount());
    EXPECT_NEAR(serial.Sum(), concurrent.Sum(),
                std::abs(serial.Sum()) * 1e-9);
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      EXPECT_DOUBLE_EQ(serial.Quantile(q), concurrent.Quantile(q));
    }
  }
}

// ---- Prometheus exposition ----------------------------------------------

/// Strict line-level validator for text format 0.0.4: every line is a
/// comment (# HELP / # TYPE with a known type) or a sample
/// `name{labels} value` with a parseable float value; every sample's
/// family was announced by a preceding TYPE line.
void ValidatePrometheusText(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::vector<std::string> typed_families;
  auto family_of = [](const std::string& sample_name) {
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const size_t n = std::strlen(suffix);
      if (sample_name.size() > n &&
          sample_name.compare(sample_name.size() - n, n, suffix) == 0) {
        return sample_name.substr(0, sample_name.size() - n);
      }
    }
    return sample_name;
  };
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    ASSERT_FALSE(line.empty()) << "blank line " << lineno;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, family;
      ls >> hash >> kind >> family;
      ASSERT_TRUE(kind == "HELP" || kind == "TYPE") << line;
      ASSERT_FALSE(family.empty()) << line;
      if (kind == "TYPE") {
        std::string type;
        ls >> type;
        ASSERT_TRUE(type == "counter" || type == "gauge" ||
                    type == "histogram" || type == "summary" ||
                    type == "untyped")
            << line;
        typed_families.push_back(family);
      }
      continue;
    }
    // Sample: metric_name[{labels}] value
    size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    const std::string name = line.substr(0, name_end);
    for (char c : name) {
      ASSERT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << line;
    }
    size_t value_pos;
    if (line[name_end] == '{') {
      const size_t close = line.find('}', name_end);
      ASSERT_NE(close, std::string::npos) << line;
      // Labels: key="value" pairs separated by commas; quotes must pair.
      const std::string labels = line.substr(name_end + 1,
                                             close - name_end - 1);
      ASSERT_EQ(std::count(labels.begin(), labels.end(), '"') % 2, 0)
          << line;
      ASSERT_NE(labels.find('='), std::string::npos) << line;
      value_pos = close + 2;
      ASSERT_EQ(line[close + 1], ' ') << line;
    } else {
      value_pos = name_end + 1;
    }
    const std::string value = line.substr(value_pos);
    ASSERT_FALSE(value.empty()) << line;
    if (value != "+Inf" && value != "-Inf" && value != "NaN") {
      char* end = nullptr;
      std::strtod(value.c_str(), &end);
      ASSERT_EQ(*end, '\0') << "unparseable value in: " << line;
    }
    // Family must be announced (build_info included — it is written with
    // HELP/TYPE like everything else).
    const std::string fam = family_of(name);
    ASSERT_TRUE(std::find(typed_families.begin(), typed_families.end(),
                          fam) != typed_families.end())
        << "sample before TYPE: " << line;
  }
  ASSERT_FALSE(typed_families.empty());
}

TEST_F(MetricsTest, PrometheusTextIsValidAndGolden) {
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("ecg_test_bytes_total", "Bytes moved.",
                 {{"peer", "1"}, {"layer", "0"}})
      ->Inc(4096);
  reg.GetGauge("ecg_test_loss", "Epoch loss.")->Set(0.5);
  Histogram* h = reg.GetHistogram("ecg_test_seconds", "Span seconds.");
  h->Observe(0.25);
  h->Observe(0.5);
  h->Observe(2.0);

  const std::string text = reg.PrometheusText();
  ValidatePrometheusText(text);

  // Golden fragments (the full text embeds the volatile commit hash).
  EXPECT_NE(text.find("# TYPE ecg_build_info gauge"), std::string::npos);
  EXPECT_NE(text.find("ecg_build_info{commit=\""), std::string::npos);
  EXPECT_NE(text.find("# HELP ecg_test_bytes_total Bytes moved.\n"
                      "# TYPE ecg_test_bytes_total counter\n"
                      "ecg_test_bytes_total{layer=\"0\",peer=\"1\"} 4096\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ecg_test_loss gauge\necg_test_loss 0.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ecg_test_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("ecg_test_seconds_bucket{le=\"+Inf\"} 3\n"
                      "ecg_test_seconds_sum 2.75\n"
                      "ecg_test_seconds_count 3\n"),
            std::string::npos);
  // Cumulative buckets: each power-of-two value is the lower bound of its
  // bucket, whose upper bound is value * 33/32.
  EXPECT_NE(text.find("ecg_test_seconds_bucket{le=\"0.2578125\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("ecg_test_seconds_bucket{le=\"0.515625\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("ecg_test_seconds_bucket{le=\"2.0625\"} 3\n"),
            std::string::npos);
}

TEST_F(MetricsTest, StatsBridgePublishesLayerPeerSeries) {
  StatsRegistry::Global().Enable("");
  RecordStat("comm.sent_bytes", 1024.0, /*epoch=*/3, /*layer=*/1,
             /*peer=*/2);
  RecordStat("fp.saturation", 0.125, /*epoch=*/3, /*layer=*/1);
  const std::string text = MetricsRegistry::Global().PrometheusText();
  ValidatePrometheusText(text);
  // Stat '.' become '_'; layer/peer survive as labels; epoch is dropped.
  EXPECT_NE(
      text.find(
          "ecg_comm_sent_bytes_count{layer=\"1\",peer=\"2\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("ecg_fp_saturation_sum{layer=\"1\"} 0.125"),
            std::string::npos);
  EXPECT_EQ(text.find("epoch="), std::string::npos);
}

/// Sum of the values of every sample line of `text` that starts with
/// `series` (e.g. "ecg_comm_sent_bytes_sum") and contains `label` ("" for
/// any label set).
double SumSamples(const std::string& text, const std::string& series,
                  const std::string& label = "") {
  std::istringstream in(text);
  double total = 0.0;
  for (std::string line; std::getline(in, line);) {
    if (line.compare(0, series.size(), series) != 0) continue;
    const char next = line[series.size()];
    if (next != ' ' && next != '{') continue;
    if (!label.empty() && line.find(label) == std::string::npos) continue;
    total += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
  return total;
}

TEST_F(MetricsTest, SentBytesPerWorkerMatchTheHub) {
  // `comm.sent_bytes` carries the sender as `worker`, so each worker's
  // bridged sums add up to the hub's own per-sender accounting, lossy
  // links included.
  StatsRegistry::Global().Enable("");
  auto inj = dist::FaultInjector::Parse("drop=0.2,seed=7");
  ASSERT_TRUE(inj.ok());
  dist::SimulatedCluster cluster(3, dist::NetworkModel{});
  cluster.hub().set_fault_injector(&*inj);
  const Status status = cluster.Run([](dist::WorkerContext* ctx) {
    const uint32_t me = ctx->worker_id();
    for (uint32_t epoch = 0; epoch < 4; ++epoch) {
      const uint64_t tag = dist::MessageHub::MakeTag(epoch, 1, 1);
      for (uint32_t to = 0; to < 3; ++to) {
        if (to != me) {
          ctx->Send(to, tag, std::vector<uint8_t>(8 * (me + 1) + to + epoch));
        }
      }
      for (uint32_t from = 0; from < 3; ++from) {
        std::vector<uint8_t> out;
        if (from != me) (void)test::RecvFrom(ctx, from, tag, &out);
      }
    }
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_GT(inj->counters().nacks.load(), 0u);

  const std::string text = MetricsRegistry::Global().PrometheusText();
  ValidatePrometheusText(text);
  for (uint32_t w = 0; w < 3; ++w) {
    const std::string label = "worker=\"" + std::to_string(w) + "\"";
    EXPECT_DOUBLE_EQ(SumSamples(text, "ecg_comm_sent_bytes_sum", label),
                     static_cast<double>(cluster.stats().BytesSent(w)))
        << label;
  }
  // One backoff sample per NACK, booked at the receiver that issued it.
  EXPECT_DOUBLE_EQ(SumSamples(text, "ecg_fault_backoff_seconds_count"),
                   static_cast<double>(inj->counters().nacks.load()));
}

TEST_F(MetricsTest, ElasticFaultyTrainingExposesOneConsistentPlane) {
  StatsRegistry::Global().Enable("");
  elastic::MembershipLog::Global().Reset();
  auto inj = dist::FaultInjector::Parse("drop=0.05,seed=7");
  ASSERT_TRUE(inj.ok());
  dist::ScopedFaultInjector scoped(&*inj);

  core::TrainOptions opt;
  opt.model.num_layers = 2;
  opt.model.hidden_dim = 16;
  opt.epochs = 10;
  opt.fp_mode = core::FpMode::kReqEc;
  opt.bp_mode = core::BpMode::kResEc;
  opt.exchange.fp_bits = 4;
  opt.exchange.bp_bits = 4;
  opt.elastic = "leave@epoch=4:worker=1,downtime=0.01";
  auto r = core::TrainDistributed(*graph::LoadDataset("tiny"), 3, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->epochs.size(), 10u);

  const std::string text = MetricsRegistry::Global().PrometheusText();
  ValidatePrometheusText(text);
  const auto log = elastic::MembershipLog::Global().Snapshot();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(SumSamples(text, "ecg_elastic_migrated_rows_sum"),
                   static_cast<double>(log[0].moved_rows));
  EXPECT_DOUBLE_EQ(SumSamples(text, "ecg_elastic_repartition_seconds_count"),
                   1.0);
  // The transition's kind lives in the membership log, not in a label.
  EXPECT_EQ(text.find("kind="), std::string::npos);
  // One parameter-server apply per epoch, observed once.
  EXPECT_DOUBLE_EQ(SumSamples(text, "ecg_ps_apply_seconds_count"), 10.0);
  EXPECT_DOUBLE_EQ(SumSamples(text, "ecg_fault_backoff_seconds_count"),
                   static_cast<double>(inj->counters().nacks.load()));
  EXPECT_GT(inj->counters().nacks.load(), 0u);
  EXPECT_EQ(text.find("ecg_hub_sent_bytes_total"), std::string::npos);
  EXPECT_EQ(text.find("ecg_fault_nack"), std::string::npos);
  elastic::MembershipLog::Global().Reset();
}

TEST_F(MetricsTest, OneOptimizerStepIsOneApplySample) {
  StatsRegistry::Global().Enable("");
  dist::ParameterServerGroup ps({{4, 3}}, /*num_servers=*/1,
                                /*num_workers=*/1, 0.1f, /*seed=*/7);
  ps.Push(0, {tensor::Matrix(4, 3)}, {tensor::Matrix(1, 3)});
  const std::string text = MetricsRegistry::Global().PrometheusText();
  ValidatePrometheusText(text);
  EXPECT_NE(text.find("\necg_ps_apply_seconds_count 1\n"), std::string::npos);
}

// ---- disabled path -------------------------------------------------------

TEST_F(MetricsTest, DisabledPathAllocatesNothing) {
  MetricsRegistry::Global().Disable();
  StatsRegistry::Global().Disable();
  Histogram* h = MetricsRegistry::Global().GetHistogram("t_dis", "h");

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    // The three shapes every instrumentation site uses.
    if (MetricsEnabled()) h->Observe(1.0);
    RecordStat("comm.sent_bytes", 1.0, 0, 0, 1);
    if (StatsEnabled()) {
      ADD_FAILURE() << "stats must be disabled here";
    }
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

TEST_F(MetricsTest, EnabledObserveOnCachedHandleAllocatesNothing) {
  Histogram* h = MetricsRegistry::Global().GetHistogram("t_hot", "h");
  h->Observe(1.0);  // touch once
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    if (MetricsEnabled()) h->Observe(static_cast<double>(i));
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

// ---- snapshot file and HTTP endpoint ------------------------------------

TEST_F(MetricsTest, SnapshotFileIsWrittenAtomically) {
  MetricsRegistry::Global().GetCounter("ecg_snap_total", "h")->Inc(7);
  const std::string path =
      ::testing::TempDir() + "/metrics_snapshot_test.prom";
  ASSERT_TRUE(MetricsRegistry::Global().WriteSnapshotFile(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("ecg_snap_total 7"), std::string::npos);
  std::remove(path.c_str());
}

std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(MetricsTest, HttpEndpointServesPrometheusText) {
  MetricsRegistry::Global().GetCounter("ecg_http_total", "h")->Inc(3);
  auto& server = MetricsHttpServer::Global();
  ASSERT_TRUE(server.Start(0).ok());  // ephemeral port
  ASSERT_TRUE(server.running());
  const uint16_t port = server.port();
  ASSERT_GT(port, 0);

  const std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("ecg_http_total 3"), std::string::npos);
  EXPECT_NE(metrics.find("ecg_build_info{"), std::string::npos);

  EXPECT_NE(HttpGet(port, "/healthz").find("ok"), std::string::npos);
  EXPECT_NE(HttpGet(port, "/nope").find("404"), std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace ecg::obs
