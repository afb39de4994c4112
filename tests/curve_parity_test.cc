// Recorded-curve parity: every epoch's loss, accuracies and byte counts of
// the full-batch trainer, the sampling trainer and the ML-centered
// baseline on `tiny`, folded into one FNV-1a digest per run and compared
// with the digest recorded for it. A change that moves any activation,
// gradient or wire byte of any of these trainers moves its digest.
// `sim_seconds` is left out: it is measured CPU time.

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <string>

#include "baselines/ml_centered.h"
#include "core/sampling_trainer.h"
#include "core/trainer.h"
#include "graph/datasets.h"

namespace ecg::core {
namespace {

constexpr uint32_t kEpochs = 8;
constexpr uint32_t kWorkers = 3;

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t CurveDigest(const TrainResult& r) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const EpochMetrics& m : r.epochs) {
    for (const double v : {m.loss, m.train_acc, m.val_acc, m.test_acc}) {
      h = Fnv(h, &v, sizeof(v));
    }
    h = Fnv(h, &m.comm_bytes, sizeof(m.comm_bytes));
    h = Fnv(h, &m.param_bytes, sizeof(m.param_bytes));
  }
  return h;
}

ExchangeConfig ParityExchange() {
  ExchangeConfig config;
  config.trend_period = 4;  // a ReqEC trend epoch inside the run
  config.delay_rounds = 3;  // two Delayed refreshes inside the run
  return config;
}

GcnConfig Model(GnnKind kind, int layers) {
  GcnConfig model;
  model.kind = kind;
  model.num_layers = layers;
  model.hidden_dim = 8;
  return model;
}

struct FullBatchCase {
  GnnKind kind;
  FpMode fp;
  BpMode bp;
  int layers;
  uint64_t digest;
};

std::string CaseName(const FullBatchCase& c) {
  return std::string(GnnKindName(c.kind)) + " " + FpModeName(c.fp) + "/" +
         BpModeName(c.bp) + " L=" + std::to_string(c.layers);
}

uint64_t FullBatchDigest(const FullBatchCase& c, bool overlap,
                         bool cache_features) {
  const graph::Graph g = *graph::LoadDataset("tiny");
  TrainOptions opt;
  opt.model = Model(c.kind, c.layers);
  opt.fp_mode = c.fp;
  opt.bp_mode = c.bp;
  opt.exchange = ParityExchange();
  opt.epochs = kEpochs;
  opt.overlap = overlap;
  opt.cache_features = cache_features;
  auto r = TrainDistributed(g, kWorkers, opt);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? CurveDigest(*r) : 0;
}

// Overlap only decides how owned-step compute is credited against wire
// time, so both settings must reproduce the one recorded curve.
TEST(CurveParityTest, FullBatchMatchesRecordedDigests) {
  constexpr GnnKind kGcn = GnnKind::kGcn;
  constexpr GnnKind kSage = GnnKind::kSage;
  constexpr FpMode kFpExact = FpMode::kExact, kFpCp = FpMode::kCompressed,
                   kReqEc = FpMode::kReqEc, kDelayed = FpMode::kDelayed;
  constexpr BpMode kBpExact = BpMode::kExact, kBpCp = BpMode::kCompressed,
                   kResEc = BpMode::kResEc;
  const FullBatchCase cases[] = {
      {kGcn, kFpExact, kBpExact, 2, 0xedecc175a7d55c73ull},
      {kGcn, kFpCp, kBpCp, 2, 0x6c3d02415a283dffull},
      {kGcn, kReqEc, kResEc, 2, 0x5d1a324339c05ad5ull},
      {kGcn, kDelayed, kBpExact, 2, 0x3b8e9d9e695bd4b1ull},
      {kGcn, kFpExact, kBpExact, 3, 0xc37970c9f224bb64ull},
      {kGcn, kFpCp, kBpCp, 3, 0x76279dac7ee065aaull},
      {kGcn, kReqEc, kResEc, 3, 0xbb7a7841ad2cee38ull},
      {kGcn, kDelayed, kBpExact, 3, 0x77acdbb5ff78d4dbull},
      {kSage, kFpExact, kBpExact, 2, 0xc22e4f059be05b84ull},
      {kSage, kFpCp, kBpCp, 2, 0x81ace6ee52849704ull},
      {kSage, kReqEc, kResEc, 2, 0x6147445d0e405fb3ull},
      {kSage, kDelayed, kBpExact, 2, 0x3027d5652450a745ull},
      {kSage, kFpExact, kBpExact, 3, 0xd692e286eac26e05ull},
      {kSage, kFpCp, kBpCp, 3, 0xdd92e555858714e6ull},
      {kSage, kReqEc, kResEc, 3, 0xb6a70f3d37986009ull},
      {kSage, kDelayed, kBpExact, 3, 0x26ddaaa9db4830a3ull},
  };
  for (const FullBatchCase& c : cases) {
    for (const bool overlap : {true, false}) {
      const uint64_t digest = FullBatchDigest(c, overlap, true);
      EXPECT_EQ(digest, c.digest) << CaseName(c) << " overlap=" << overlap
                                  << ": 0x" << std::hex << digest << "ull";
    }
  }
}

// Without the feature cache, layer 1 exchanges H^0 every epoch and
// rebuilds P¹ through the split schedule instead of reusing it.
TEST(CurveParityTest, FullBatchUncachedFeaturesMatchesRecordedDigest) {
  const FullBatchCase c = {GnnKind::kGcn, FpMode::kCompressed,
                           BpMode::kCompressed, 2, 0xa44cd03922151a4eull};
  const uint64_t digest = FullBatchDigest(c, true, false);
  EXPECT_EQ(digest, c.digest) << "0x" << std::hex << digest << "ull";
}

TEST(CurveParityTest, SamplingMatchesRecordedDigests) {
  struct Case {
    bool online;
    FpMode fp;
    BpMode bp;
    uint64_t digest;
  };
  const Case cases[] = {
      {false, FpMode::kExact, BpMode::kExact, 0xab20d022d1f96605ull},
      {false, FpMode::kCompressed, BpMode::kCompressed, 0x2f3b78fa85f1c42cull},
      {true, FpMode::kExact, BpMode::kExact, 0x6c604a70ee22841full},
      {true, FpMode::kCompressed, BpMode::kCompressed, 0xf26fffab13dc0b94ull},
  };
  const graph::Graph g = *graph::LoadDataset("tiny");
  for (const Case& c : cases) {
    SamplingTrainOptions opt;
    opt.model = Model(GnnKind::kGcn, 2);
    opt.fanouts = {4, 4};
    opt.fp_mode = c.fp;
    opt.bp_mode = c.bp;
    opt.exchange = ParityExchange();
    opt.online_sampling = c.online;
    opt.epochs = kEpochs;
    auto r = TrainSampled(g, kWorkers, opt);
    ASSERT_TRUE(r.ok()) << r.status();
    const uint64_t digest = CurveDigest(*r);
    EXPECT_EQ(digest, c.digest)
        << "online=" << c.online << " " << FpModeName(c.fp) << ": 0x"
        << std::hex << digest << "ull";
  }
}

TEST(CurveParityTest, MlCenteredMatchesRecordedDigests) {
  struct Case {
    Fanouts fanouts;
    uint64_t digest;
  };
  const Case cases[] = {
      {{}, 0xfd28ff1d0392a535ull},
      {{3, 3}, 0x9d54930717e4f80dull},
  };
  const graph::Graph g = *graph::LoadDataset("tiny");
  for (const Case& c : cases) {
    baselines::MlCenteredOptions opt;
    opt.model = Model(GnnKind::kGcn, 2);
    opt.fanouts = c.fanouts;
    opt.epochs = kEpochs;
    auto r = baselines::TrainMlCentered(g, kWorkers, opt);
    ASSERT_TRUE(r.ok()) << r.status();
    const uint64_t digest = CurveDigest(*r);
    EXPECT_EQ(digest, c.digest) << "fanouts=" << c.fanouts.size() << ": 0x"
                                << std::hex << digest << "ull";
  }
}

}  // namespace
}  // namespace ecg::core
