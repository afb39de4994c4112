// Recorded-curve parity: every epoch's loss, accuracies and byte counts of
// the full-batch trainer, the sampling trainer and the ML-centered
// baseline on `tiny`, folded into two FNV-1a digests per run and compared
// with the digests recorded for it. The values digest folds the loss, the
// accuracies and the parameter bytes; the comm digest folds the halo
// exchanges' wire bytes. A change that moves any activation or gradient of
// any of these trainers moves the first; a change of wire format alone
// moves only the second. `sim_seconds` is left out: it is measured CPU
// time.

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

struct Digests {
  uint64_t values;
  uint64_t comm;
};

Digests CurveDigest(const TrainResult& r) {
  Digests d{0xcbf29ce484222325ull, 0xcbf29ce484222325ull};
  for (const EpochMetrics& m : r.epochs) {
    for (const double v : {m.loss, m.train_acc, m.val_acc, m.test_acc}) {
      d.values = Fnv(d.values, &v, sizeof(v));
    }
    d.values = Fnv(d.values, &m.param_bytes, sizeof(m.param_bytes));
    d.comm = Fnv(d.comm, &m.comm_bytes, sizeof(m.comm_bytes));
  }
  return d;
}

/// Compares both digests of one run with the recorded pair, printing the
/// measured ones in source form on a mismatch.
void ExpectDigests(const Digests& got, const Digests& want,
                   const std::string& what) {
  EXPECT_EQ(got.values, want.values)
      << what << " values: 0x" << std::hex << got.values << "ull";
  EXPECT_EQ(got.comm, want.comm)
      << what << " comm: 0x" << std::hex << got.comm << "ull";
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
  Digests digests;
};

std::string CaseName(const FullBatchCase& c) {
  return std::string(GnnKindName(c.kind)) + " " + FpModeName(c.fp) + "/" +
         BpModeName(c.bp) + " L=" + std::to_string(c.layers);
}

Digests FullBatchDigest(const FullBatchCase& c, bool overlap,
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
  return r.ok() ? CurveDigest(*r) : Digests{0, 0};
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
      {kGcn, kFpExact, kBpExact, 2,
       {0xac77c693c1e73493ull, 0x475011f97b00ff25ull}},
      {kGcn, kFpCp, kBpCp, 2, {0x49d6a77582c0a183ull, 0x752227b47d956f25ull}},
      {kGcn, kReqEc, kResEc, 2, {0xf521d1c99a1842b4ull, 0xd5f535c038e2571eull}},
      {kGcn, kDelayed, kBpExact, 2,
       {0x4a8139158c7ab855ull, 0x1270ec92e2397d1dull}},
      {kGcn, kFpExact, kBpExact, 3,
       {0xf220692182a43d88ull, 0x35200d7c7557afa5ull}},
      {kGcn, kFpCp, kBpCp, 3, {0xe4c27074e138b7e2ull, 0xb141775deca0ad25ull}},
      {kGcn, kReqEc, kResEc, 3, {0xb9d850390035d2c5ull, 0x7c64d034f1e4c3d4ull}},
      {kGcn, kDelayed, kBpExact, 3,
       {0x8a1541fb60e819f7ull, 0x382d46e97c0fdd55ull}},
      {kSage, kFpExact, kBpExact, 2,
       {0xbb23a474bec595ccull, 0x47ccff90afd17ba5ull}},
      {kSage, kFpCp, kBpCp, 2, {0x7e5080b9024ea418ull, 0xddad8740f6cb6b65ull}},
      {kSage, kReqEc, kResEc, 2,
       {0x5c51374178f90b2bull, 0x644012989c639600ull}},
      {kSage, kDelayed, kBpExact, 2,
       {0x4379301277ec505ull, 0xa6080e587e920f1dull}},
      {kSage, kFpExact, kBpExact, 3,
       {0xd56378bbe42ce2c9ull, 0xb29d112e66b8ff25ull}},
      {kSage, kFpCp, kBpCp, 3, {0xce450d6ffeca808aull, 0x2bb62366d43ea265ull}},
      {kSage, kReqEc, kResEc, 3,
       {0x85dfde30f65d17f4ull, 0xd1985e13f9103d83ull}},
      {kSage, kDelayed, kBpExact, 3,
       {0x32f6c1a013cf0973ull, 0x80ec0cfa656773d5ull}},
  };
  for (const FullBatchCase& c : cases) {
    for (const bool overlap : {true, false}) {
      ExpectDigests(FullBatchDigest(c, overlap, true), c.digests,
                    CaseName(c) + " overlap=" + std::to_string(overlap));
    }
  }
}

// Without the feature cache, layer 1 exchanges H^0 every epoch and
// rebuilds P¹ through the split schedule instead of reusing it.
TEST(CurveParityTest, FullBatchUncachedFeaturesMatchesRecordedDigest) {
  const FullBatchCase c = {GnnKind::kGcn, FpMode::kCompressed,
                           BpMode::kCompressed, 2,
                           {0xfaef49d3169682a2ull, 0x44d8ed4aaf8dd6b5ull}};
  ExpectDigests(FullBatchDigest(c, true, false), c.digests, CaseName(c));
}

TEST(CurveParityTest, SamplingMatchesRecordedDigests) {
  struct Case {
    bool online;
    FpMode fp;
    BpMode bp;
    Digests digests;
  };
  const Case cases[] = {
      {false, FpMode::kExact, BpMode::kExact,
       {0xfa10815475a3dedfull, 0xd18497bfa3fea15full}},
      {false, FpMode::kCompressed, BpMode::kCompressed,
       {0x1170114fff257a04ull, 0xce2a0e1f15de4721ull}},
      {true, FpMode::kExact, BpMode::kExact,
       {0xfa10815475a3dedfull, 0xb147cf84ce0b0adull}},
      {true, FpMode::kCompressed, BpMode::kCompressed,
       {0x1170114fff257a04ull, 0x9b0523ac62fb8e79ull}},
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
    ExpectDigests(CurveDigest(*r), c.digests,
                  "online=" + std::to_string(c.online) + " " +
                      FpModeName(c.fp));
  }
}

TEST(CurveParityTest, MlCenteredMatchesRecordedDigests) {
  struct Case {
    Fanouts fanouts;
    Digests digests;
  };
  const Case cases[] = {
      {{}, {0x9c1a4431b82cac75ull, 0xb9b23f3a46fd0825ull}},
      {{3, 3}, {0xaf4a9444804f12dull, 0xb9b23f3a46fd0825ull}},
  };
  const graph::Graph g = *graph::LoadDataset("tiny");
  for (const Case& c : cases) {
    baselines::MlCenteredOptions opt;
    opt.model = Model(GnnKind::kGcn, 2);
    opt.fanouts = c.fanouts;
    opt.epochs = kEpochs;
    auto r = baselines::TrainMlCentered(g, kWorkers, opt);
    ASSERT_TRUE(r.ok()) << r.status();
    ExpectDigests(CurveDigest(*r), c.digests,
                  "fanouts=" + std::to_string(c.fanouts.size()));
  }
}

}  // namespace
}  // namespace ecg::core
