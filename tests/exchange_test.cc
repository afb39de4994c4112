#include "core/exchange.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bitpack.h"
#include "common/bytes.h"
#include "common/coded_block.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/halo.h"
#include "core/wire_util.h"
#include "dist/cluster.h"
#include "dist/elastic.h"
#include "dist/fault.h"
#include "graph/datasets.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "recv_from.h"
#include "tensor/ops.h"
#include "trend_payload.h"

namespace ecg::core {
namespace {

using dist::SimulatedCluster;
using dist::WorkerContext;
using tensor::Matrix;

constexpr size_t kDim = 8;

/// A 6-vertex ring split between two workers so every worker has remote
/// neighbours: worker 0 owns {0,1,2}, worker 1 owns {3,4,5}.
struct TwoWorkerFixture {
  graph::Graph g;
  graph::Partition partition;
  std::vector<WorkerPlan> plans;

  TwoWorkerFixture() {
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (uint32_t v = 0; v < 6; ++v) edges.emplace_back(v, (v + 1) % 6);
    tensor::Matrix features(6, kDim);
    g = *graph::Graph::Build(6, edges, std::move(features),
                             {0, 0, 0, 1, 1, 1}, 2);
    partition.num_parts = 2;
    partition.owner = {0, 0, 0, 1, 1, 1};
    partition.members = {{0, 1, 2}, {3, 4, 5}};
    EXPECT_TRUE(BuildWorkerPlans(g, partition, &plans).ok());
  }
};

/// Fills owned rows with value_fn(global_id, dim_index).
Matrix MakeOwned(const WorkerPlan& plan,
                 const std::function<float(uint32_t, size_t)>& value_fn) {
  Matrix m(plan.num_owned(), kDim);
  for (size_t r = 0; r < plan.num_owned(); ++r) {
    for (size_t c = 0; c < kDim; ++c) {
      m.At(r, c) = value_fn(plan.owned[r], c);
    }
  }
  return m;
}

/// Runs `epochs` rounds of FP exchange on the fixture and hands each
/// worker's halo to `check(worker, epoch, plan, halo)` after every round.
void RunFpRounds(
    TwoWorkerFixture* fx, FpMode mode, const ExchangeConfig& config,
    uint32_t epochs,
    const std::function<float(uint32_t, size_t, uint32_t)>& value_fn,
    const std::function<void(uint32_t, uint32_t, const WorkerPlan&,
                             const Matrix&)>& check) {
  SimulatedCluster cluster(2, dist::NetworkModel{});
  auto status = cluster.Run([&](WorkerContext* ctx) -> Status {
    const WorkerPlan& plan = fx->plans[ctx->worker_id()];
    auto ex = MakeFpExchanger(mode, config, /*num_layers=*/2, plan);
    Matrix halo(plan.num_halo(), kDim);
    for (uint32_t epoch = 0; epoch < epochs; ++epoch) {
      const Matrix owned = MakeOwned(plan, [&](uint32_t v, size_t c) {
        return value_fn(v, c, epoch);
      });
      ECG_RETURN_IF_ERROR(ex->Exchange(ctx, plan, epoch, 1, owned, &halo));
      check(ctx->worker_id(), epoch, plan, halo);
    }
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status;
}

TEST(ExchangeTest, ActivePeersAreSymmetricInFixture) {
  TwoWorkerFixture fx;
  EXPECT_EQ(fx.plans[0].send_rows[1].size(), 2u);  // vertices 0 and 2
  EXPECT_EQ(fx.plans[1].send_rows[0].size(), 2u);  // vertices 3 and 5
  EXPECT_EQ(fx.plans[0].num_halo(), 2u);
  EXPECT_EQ(fx.plans[1].num_halo(), 2u);
}

TEST(ExchangeTest, ExactFpDeliversExactRows) {
  TwoWorkerFixture fx;
  auto value = [](uint32_t v, size_t c, uint32_t) {
    return static_cast<float>(v * 10 + c);
  };
  RunFpRounds(&fx, FpMode::kExact, {}, 3, value,
              [&](uint32_t, uint32_t epoch, const WorkerPlan& plan,
                  const Matrix& halo) {
                for (size_t i = 0; i < plan.num_halo(); ++i) {
                  for (size_t c = 0; c < kDim; ++c) {
                    EXPECT_EQ(halo.At(i, c), value(plan.halo[i], c, epoch));
                  }
                }
              });
}

TEST(ExchangeTest, CompressedFpWithinQuantizationError) {
  TwoWorkerFixture fx;
  ExchangeConfig config;
  config.fp_bits = 4;
  auto value = [](uint32_t v, size_t c, uint32_t) {
    return static_cast<float>(v) + 0.1f * static_cast<float>(c);
  };
  // Values per message span < 6.0; 4-bit buckets -> error <= 6/16/2.
  const float tol = 6.0f / 16.0f / 2.0f + 1e-4f;
  RunFpRounds(&fx, FpMode::kCompressed, config, 2, value,
              [&](uint32_t, uint32_t epoch, const WorkerPlan& plan,
                  const Matrix& halo) {
                for (size_t i = 0; i < plan.num_halo(); ++i) {
                  for (size_t c = 0; c < kDim; ++c) {
                    EXPECT_NEAR(halo.At(i, c), value(plan.halo[i], c, epoch),
                                tol);
                  }
                }
              });
}

TEST(ExchangeTest, CompressedFpShipsFewerBytesThanExact) {
  TwoWorkerFixture fx;
  uint64_t exact_bytes = 0, compressed_bytes = 0;
  {
    SimulatedCluster cluster(2, dist::NetworkModel{});
    ASSERT_TRUE(cluster
                    .Run([&](WorkerContext* ctx) -> Status {
                      const WorkerPlan& plan = fx.plans[ctx->worker_id()];
                      auto ex = MakeFpExchanger(FpMode::kExact, {}, 2, plan);
                      Matrix owned = MakeOwned(
                          plan, [](uint32_t v, size_t c) {
                            return static_cast<float>(v + c);
                          });
                      Matrix halo(plan.num_halo(), kDim);
                      return ex->Exchange(ctx, plan, 0, 1, owned, &halo);
                    })
                    .ok());
    exact_bytes = cluster.stats().TotalBytes();
  }
  {
    ExchangeConfig config;
    config.fp_bits = 2;
    SimulatedCluster cluster(2, dist::NetworkModel{});
    ASSERT_TRUE(cluster
                    .Run([&](WorkerContext* ctx) -> Status {
                      const WorkerPlan& plan = fx.plans[ctx->worker_id()];
                      auto ex = MakeFpExchanger(FpMode::kCompressed, config,
                                                2, plan);
                      Matrix owned = MakeOwned(
                          plan, [](uint32_t v, size_t c) {
                            return static_cast<float>(v + c);
                          });
                      Matrix halo(plan.num_halo(), kDim);
                      return ex->Exchange(ctx, plan, 0, 1, owned, &halo);
                    })
                    .ok());
    compressed_bytes = cluster.stats().TotalBytes();
  }
  EXPECT_LT(compressed_bytes, exact_bytes);
}

TEST(ExchangeTest, DelayedFpRefreshesOnlyScheduledRows) {
  TwoWorkerFixture fx;
  ExchangeConfig config;
  config.delay_rounds = 2;
  // Values change every epoch; with r=2 only half the halo tracks the
  // current epoch, the other half is one epoch stale (except epoch 0).
  auto value = [](uint32_t v, size_t, uint32_t epoch) {
    return static_cast<float>(v) + 100.0f * static_cast<float>(epoch);
  };
  RunFpRounds(&fx, FpMode::kDelayed, config, 4, value,
              [&](uint32_t, uint32_t epoch, const WorkerPlan& plan,
                  const Matrix& halo) {
                size_t fresh = 0, stale = 0;
                for (size_t i = 0; i < plan.num_halo(); ++i) {
                  const float now = value(plan.halo[i], 0, epoch);
                  if (halo.At(i, 0) == now) {
                    ++fresh;
                  } else {
                    ++stale;
                  }
                }
                if (epoch == 0) {
                  EXPECT_EQ(fresh, plan.num_halo());
                } else {
                  EXPECT_EQ(fresh, 1u) << "epoch " << epoch;
                  EXPECT_EQ(stale, 1u) << "epoch " << epoch;
                }
              });
}

TEST(ExchangeTest, ReqEcTrendEpochsDeliverExactValues) {
  TwoWorkerFixture fx;
  ExchangeConfig config;
  config.fp_bits = 2;
  config.trend_period = 4;  // trend epochs: 3, 7, ...
  auto value = [](uint32_t v, size_t c, uint32_t epoch) {
    return std::sin(static_cast<float>(v + c)) +
           0.25f * static_cast<float>(epoch);
  };
  RunFpRounds(&fx, FpMode::kReqEc, config, 8, value,
              [&](uint32_t, uint32_t epoch, const WorkerPlan& plan,
                  const Matrix& halo) {
                if ((epoch + 1) % 4 != 0) return;
                for (size_t i = 0; i < plan.num_halo(); ++i) {
                  for (size_t c = 0; c < kDim; ++c) {
                    EXPECT_FLOAT_EQ(halo.At(i, c),
                                    value(plan.halo[i], c, epoch))
                        << "trend epoch " << epoch;
                  }
                }
              });
}

TEST(ExchangeTest, ReqEcPredictsLinearTrendsPerfectly) {
  TwoWorkerFixture fx;
  ExchangeConfig config;
  config.fp_bits = 1;       // terrible quantizer: predictions must win
  config.trend_period = 3;  // trend at 2, 5, 8...
  auto value = [](uint32_t v, size_t c, uint32_t epoch) {
    // Perfectly linear in epoch: after two trend snapshots, M_cr is exact
    // and the predictor reproduces embeddings with zero error.
    return static_cast<float>(v + c) + 2.0f * static_cast<float>(epoch);
  };
  RunFpRounds(&fx, FpMode::kReqEc, config, 9, value,
              [&](uint32_t, uint32_t epoch, const WorkerPlan& plan,
                  const Matrix& halo) {
                if (epoch < 6) return;  // after second trend snapshot
                for (size_t i = 0; i < plan.num_halo(); ++i) {
                  for (size_t c = 0; c < kDim; ++c) {
                    EXPECT_NEAR(halo.At(i, c), value(plan.halo[i], c, epoch),
                                1e-3f)
                        << "epoch " << epoch;
                  }
                }
              });
}

TEST(ExchangeTest, BitTunerGrowsBitsWhenPredictionsDominate) {
  TwoWorkerFixture fx;
  ExchangeConfig config;
  config.fp_bits = 2;
  config.adaptive_bits = true;
  config.trend_period = 3;
  // Linear trend again: after the first trend group predictions dominate
  // (proportion > 0.6), so the Bit-Tuner must double B towards each peer.
  SimulatedCluster cluster(2, dist::NetworkModel{});
  auto status = cluster.Run([&](WorkerContext* ctx) -> Status {
    const WorkerPlan& plan = fx.plans[ctx->worker_id()];
    auto ex = MakeFpExchanger(FpMode::kReqEc, config, /*num_layers=*/2, plan);
    const uint32_t peer = 1 - ctx->worker_id();
    EXPECT_EQ(ex->BitsTowards(0, peer), 2);
    Matrix halo(plan.num_halo(), kDim);
    for (uint32_t epoch = 0; epoch < 9; ++epoch) {
      const Matrix owned = MakeOwned(plan, [&](uint32_t v, size_t c) {
        return static_cast<float>(v + c) + 3.0f * static_cast<float>(epoch);
      });
      // layer 1 == last FP layer for a 2-layer model -> tuner runs.
      ECG_RETURN_IF_ERROR(ex->Exchange(ctx, plan, epoch, 1, owned, &halo));
    }
    EXPECT_GT(ex->BitsTowards(0, peer), 2);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status;
}

TEST(ExchangeTest, BitTunerSaturatesAtTheSixteenBitCeiling) {
  TwoWorkerFixture fx;
  ExchangeConfig config;
  config.fp_bits = 2;
  config.adaptive_bits = true;
  config.trend_period = 3;
  // A steep linear trend keeps predictions dominating every epoch, so the
  // tuner doubles 2 -> 4 -> 8 -> 16 and must then hold at the ceiling —
  // 16 is the widest id the packed codecs can encode, so overshooting
  // would fault in the quantizer, and the old `b < 16` guard silently
  // capped growth one doubling early on any non-power-of-two start.
  SimulatedCluster cluster(2, dist::NetworkModel{});
  auto status = cluster.Run([&](WorkerContext* ctx) -> Status {
    const WorkerPlan& plan = fx.plans[ctx->worker_id()];
    auto ex = MakeFpExchanger(FpMode::kReqEc, config, /*num_layers=*/2, plan);
    const uint32_t peer = 1 - ctx->worker_id();
    Matrix halo(plan.num_halo(), kDim);
    for (uint32_t epoch = 0; epoch < 12; ++epoch) {
      const Matrix owned = MakeOwned(plan, [&](uint32_t v, size_t c) {
        return static_cast<float>(v + c) + 3.0f * static_cast<float>(epoch);
      });
      ECG_RETURN_IF_ERROR(ex->Exchange(ctx, plan, epoch, 1, owned, &halo));
      EXPECT_LE(ex->BitsTowards(0, peer), kBitTunerMaxBits);
    }
    EXPECT_EQ(ex->BitsTowards(0, peer), kBitTunerMaxBits);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status;
}

/// All three selector granularities must deliver halos whose error never
/// exceeds the compression-only error (the selector can always fall back
/// to cps), and the element-wise schema must be at least as accurate as
/// vertex-wise on mixed drifting/noisy streams.
class SelectorGranularityTest
    : public ::testing::TestWithParam<SelectorGranularity> {};

TEST_P(SelectorGranularityTest, ReconstructionBeatsCompressionOnly) {
  TwoWorkerFixture fx;
  ExchangeConfig config;
  config.fp_bits = 1;
  config.trend_period = 3;
  config.selector = GetParam();
  // Half the coordinates drift linearly (predictable), half stay noisy.
  auto value = [](uint32_t v, size_t c, uint32_t epoch) {
    if (c < kDim / 2) {
      return static_cast<float>(v) + 1.5f * static_cast<float>(epoch);
    }
    return std::sin(static_cast<float>(v * 31 + c * 7 + epoch * 13));
  };
  double total_err = 0.0;
  RunFpRounds(&fx, FpMode::kReqEc, config, 9, value,
              [&](uint32_t worker, uint32_t epoch, const WorkerPlan& plan,
                  const Matrix& halo) {
                if (worker != 0 || epoch < 6) return;
                for (size_t i = 0; i < plan.num_halo(); ++i) {
                  for (size_t c = 0; c < kDim; ++c) {
                    total_err += std::fabs(halo.At(i, c) -
                                           value(plan.halo[i], c, epoch));
                  }
                }
              });
  // Compression-only reference at the same bit width.
  double cp_err = 0.0;
  RunFpRounds(&fx, FpMode::kCompressed, config, 9, value,
              [&](uint32_t worker, uint32_t epoch, const WorkerPlan& plan,
                  const Matrix& halo) {
                if (worker != 0 || epoch < 6) return;
                for (size_t i = 0; i < plan.num_halo(); ++i) {
                  for (size_t c = 0; c < kDim; ++c) {
                    cp_err += std::fabs(halo.At(i, c) -
                                        value(plan.halo[i], c, epoch));
                  }
                }
              });
  EXPECT_LT(total_err, cp_err * 1.001)
      << "granularity " << static_cast<int>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllSchemas, SelectorGranularityTest,
                         ::testing::Values(SelectorGranularity::kElement,
                                           SelectorGranularity::kVertex,
                                           SelectorGranularity::kMatrix));

TEST(ExchangeTest, ElementSelectorBeatsVertexOnMixedCoordinates) {
  TwoWorkerFixture fx;
  auto run = [&](SelectorGranularity granularity) {
    ExchangeConfig config;
    config.fp_bits = 1;
    config.trend_period = 3;
    config.selector = granularity;
    auto value = [](uint32_t v, size_t c, uint32_t epoch) {
      // Per-coordinate mix: even coords drift linearly, odd are noisy.
      if (c % 2 == 0) {
        return static_cast<float>(v + c) + 2.0f * epoch;
      }
      return 10.0f * std::sin(static_cast<float>(v * 17 + c * 3 +
                                                 epoch * 11));
    };
    double err = 0.0;
    RunFpRounds(&fx, FpMode::kReqEc, config, 9, value,
                [&](uint32_t worker, uint32_t epoch, const WorkerPlan& plan,
                    const Matrix& halo) {
                  if (worker != 0 || epoch < 6) return;
                  for (size_t i = 0; i < plan.num_halo(); ++i) {
                    for (size_t c = 0; c < kDim; ++c) {
                      err += std::fabs(halo.At(i, c) -
                                       value(plan.halo[i], c, epoch));
                    }
                  }
                });
    return err;
  };
  const double element_err = run(SelectorGranularity::kElement);
  const double vertex_err = run(SelectorGranularity::kVertex);
  // Per-coordinate decisions dominate when drift is per-coordinate.
  EXPECT_LT(element_err, vertex_err * 0.75);
}

TEST(ExchangeTest, ExactBpDeliversExactRows) {
  TwoWorkerFixture fx;
  SimulatedCluster cluster(2, dist::NetworkModel{});
  auto status = cluster.Run([&](WorkerContext* ctx) -> Status {
    const WorkerPlan& plan = fx.plans[ctx->worker_id()];
    auto ex = MakeBpExchanger(BpMode::kExact, {}, 2, plan);
    const Matrix owned = MakeOwned(plan, [](uint32_t v, size_t c) {
      return static_cast<float>(v) - static_cast<float>(c);
    });
    Matrix halo(plan.num_halo(), kDim);
    ECG_RETURN_IF_ERROR(ex->Exchange(ctx, plan, 0, 2, owned, &halo));
    for (size_t i = 0; i < plan.num_halo(); ++i) {
      for (size_t c = 0; c < kDim; ++c) {
        EXPECT_EQ(halo.At(i, c),
                  static_cast<float>(plan.halo[i]) - static_cast<float>(c));
      }
    }
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status;
}

TEST(ExchangeTest, ResEcErrorFeedbackAveragesOutBias) {
  // With a CONSTANT gradient stream and coarse 1-bit quantization, plain
  // compression repeats the same biased reconstruction forever, while
  // ResEC-BP's residual carry makes the time-average converge to the true
  // gradient (the whole point of Eqs. 11-12).
  TwoWorkerFixture fx;
  const uint32_t epochs = 64;
  auto run = [&](BpMode mode, Matrix* avg_out) {
    ExchangeConfig config;
    config.bp_bits = 1;
    SimulatedCluster cluster(2, dist::NetworkModel{});
    Matrix sums[2] = {Matrix(fx.plans[0].num_halo(), kDim),
                      Matrix(fx.plans[1].num_halo(), kDim)};
    auto status = cluster.Run([&](WorkerContext* ctx) -> Status {
      const WorkerPlan& plan = fx.plans[ctx->worker_id()];
      auto ex = MakeBpExchanger(mode, config, 2, plan);
      const Matrix owned = MakeOwned(plan, [](uint32_t v, size_t c) {
        return 0.123f * static_cast<float>(v) + 0.017f * c;
      });
      Matrix halo(plan.num_halo(), kDim);
      for (uint32_t epoch = 0; epoch < epochs; ++epoch) {
        ECG_RETURN_IF_ERROR(ex->Exchange(ctx, plan, epoch, 2, owned, &halo));
        tensor::AddInPlace(&sums[ctx->worker_id()], halo);
      }
      return Status::OK();
    });
    EXPECT_TRUE(status.ok()) << status;
    *avg_out = sums[0];
    tensor::ScaleInPlace(avg_out, 1.0f / epochs);
  };

  Matrix avg_plain, avg_ec;
  run(BpMode::kCompressed, &avg_plain);
  run(BpMode::kResEc, &avg_ec);

  const WorkerPlan& plan = fx.plans[0];
  double err_plain = 0.0, err_ec = 0.0;
  for (size_t i = 0; i < plan.num_halo(); ++i) {
    for (size_t c = 0; c < kDim; ++c) {
      const float truth = 0.123f * static_cast<float>(plan.halo[i]) +
                          0.017f * static_cast<float>(c);
      err_plain += std::fabs(avg_plain.At(i, c) - truth);
      err_ec += std::fabs(avg_ec.At(i, c) - truth);
    }
  }
  EXPECT_LT(err_ec, err_plain / 4)
      << "EC avg err " << err_ec << " vs plain " << err_plain;
}

/// Every exchange mode that ships the whole send set as rows: Non-cp and
/// Cp in both directions, and ResEC-BP.
struct RowMode {
  const char* name;
  bool fp;
  FpMode fp_mode;
  BpMode bp_mode;
};
constexpr RowMode kRowModes[] = {
    {"fp_exact", true, FpMode::kExact, BpMode::kExact},
    {"fp_cp", true, FpMode::kCompressed, BpMode::kExact},
    {"bp_exact", false, FpMode::kExact, BpMode::kExact},
    {"bp_cp", false, FpMode::kExact, BpMode::kCompressed},
    {"bp_resec", false, FpMode::kExact, BpMode::kResEc},
};
/// ReqEC-FP, which the helpers below also drive.
constexpr RowMode kReqEcMode{"fp_reqec", true, FpMode::kReqEc,
                             BpMode::kExact};

/// Runs `epochs` epochs of `mode` on the fixture's two workers, exchanging
/// H^1, H^2 (FP) or G^3, G^2 (BP) with 3 layers. Before each exchange
/// `before(worker, epoch, layer, ex)` sees the exchanger; after it
/// `after(worker, epoch, layer, plan, halo)` sees the halo. BP halos start
/// each exchange at zero, as the trainers' do. `messages` (optional) gets
/// the number of messages the workers sent.
void RunRowMode(
    TwoWorkerFixture* fx, const RowMode& mode, const ExchangeConfig& config,
    dist::FaultInjector* injector, uint32_t epochs,
    const std::function<void(uint32_t, uint32_t, uint16_t,
                             const HaloExchanger&)>& before,
    const std::function<void(uint32_t, uint32_t, uint16_t,
                             const WorkerPlan&, const Matrix&)>& after,
    uint64_t* messages = nullptr) {
  SimulatedCluster cluster(2, dist::NetworkModel{});
  cluster.hub().set_fault_injector(injector);
  const Status status = cluster.Run([&](WorkerContext* ctx) -> Status {
    const uint32_t me = ctx->worker_id();
    const WorkerPlan& plan = fx->plans[me];
    std::unique_ptr<HaloExchanger> ex =
        mode.fp ? MakeFpExchanger(mode.fp_mode, config, 3, plan)
                : MakeBpExchanger(mode.bp_mode, config, 3, plan);
    std::vector<Matrix> halos(4, Matrix(plan.num_halo(), kDim));
    for (uint32_t epoch = 0; epoch < epochs; ++epoch) {
      for (uint16_t layer : mode.fp ? std::vector<uint16_t>{1, 2}
                                    : std::vector<uint16_t>{3, 2}) {
        const Matrix owned = MakeOwned(plan, [&](uint32_t v, size_t c) {
          return 0.25f * static_cast<float>(v * 3 + c * layer) -
                 0.5f * static_cast<float>((v + c + epoch) % 5);
        });
        Matrix& halo = halos[layer];
        if (!mode.fp) halo.Reset(plan.num_halo(), kDim);
        before(me, epoch, layer, *ex);
        ECG_RETURN_IF_ERROR(
            ex->Exchange(ctx, plan, epoch, layer, owned, &halo));
        after(me, epoch, layer, plan, halo);
      }
    }
    return Status::OK();
  });
  if (messages != nullptr) *messages = cluster.stats().TotalMessages();
  ASSERT_TRUE(status.ok()) << mode.name << ": " << status;
}

TEST(ExchangeTest, LostRowMessagesDegradePerDirection) {
  // Worker 0's epoch-1 messages to worker 1 are permanently lost. FP keeps
  // the stale halo rows; BP skips the lost gradient; ResEC's sender folds
  // the whole compensated gradient into its residual.
  for (const RowMode& mode : kRowModes) {
    SCOPED_TRACE(mode.name);
    auto inj = dist::FaultInjector::Parse("drop=1@epoch=1:from=0:to=1");
    ASSERT_TRUE(inj.ok());
    obs::StatsRegistry& stats = obs::StatsRegistry::Global();
    stats.Reset();
    stats.Enable();
    ExchangeConfig config;
    config.fp_bits = config.bp_bits = 4;
    TwoWorkerFixture fx;
    std::mutex mu;
    std::map<uint16_t, Matrix> epoch0_halo;  // worker 1's, by layer
    RunRowMode(
        &fx, mode, config, &*inj, 3,
        [](uint32_t, uint32_t, uint16_t, const HaloExchanger&) {},
        [&](uint32_t worker, uint32_t epoch, uint16_t layer,
            const WorkerPlan& plan, const Matrix& halo) {
          if (worker != 1) return;
          std::lock_guard<std::mutex> lock(mu);
          if (epoch == 0) epoch0_halo[layer] = halo;
          if (epoch != 1) return;
          for (uint32_t row : plan.recv_halo_rows[0]) {
            for (size_t c = 0; c < kDim; ++c) {
              EXPECT_EQ(halo.At(row, c),
                        mode.fp ? epoch0_halo[layer].At(row, c) : 0.0f)
                  << "layer " << layer << " row " << row;
            }
          }
        });
    const auto snapshot = stats.Snapshot();
    stats.Disable();
    stats.Reset();
    auto count = [&](const char* name, uint16_t layer, int32_t peer) {
      auto it = snapshot.find(obs::StatKey{name, 1, layer, peer});
      return it == snapshot.end() ? 0.0 : it->second.sum;
    };
    const dist::FaultCounters& c = inj->counters();
    const bool resec = !mode.fp && mode.bp_mode == BpMode::kResEc;
    for (uint16_t layer : mode.fp ? std::vector<uint16_t>{1, 2}
                                  : std::vector<uint16_t>{3, 2}) {
      // The receiver (worker 1) books the loss against sender peer 0.
      EXPECT_EQ(count("fault.degraded_stale", layer, 0), mode.fp ? 1.0 : 0.0);
      EXPECT_EQ(count("fault.degraded_skip", layer, 0), mode.fp ? 0.0 : 1.0);
      // The sender (worker 0) books the fold against receiver peer 1.
      EXPECT_EQ(count("fault.degraded_resec", layer, 1), resec ? 1.0 : 0.0);
    }
    EXPECT_EQ(c.lost.load(), 2u);
    EXPECT_EQ(c.degraded_stale.load(), mode.fp ? 2u : 0u);
    EXPECT_EQ(c.degraded_resec.load(), resec ? 2u : 0u);
    EXPECT_EQ(c.degraded_pdt.load(), 0u);
  }
}

TEST(ExchangeTest, BitsTowardsIsTheWidthOnTheWire) {
  // For every row mode and for ReqEC, BitsTowards(layer, peer) before an
  // exchange is the `<dir>.bits` the sender records for the same (epoch,
  // layer, peer): the configured width, the solver's or the Bit-Tuner's
  // width, or 32 for raw float32 rows. ReqEC's trend responses ship exact
  // rows (recorded as 32), so only its other epochs compare. Every mode
  // sends one message per (layer, active peer) and epoch.
  ExchangeConfig alloc;
  alloc.fp_bits = alloc.bp_bits = 4;
  alloc.trend_period = 2;
  alloc.bit_alloc = true;
  ExchangeConfig reqec_alloc = alloc;
  reqec_alloc.trend_period = 3;
  ExchangeConfig reqec_adapt = reqec_alloc;
  reqec_adapt.bit_alloc = false;
  reqec_adapt.adaptive_bits = true;
  struct Case {
    RowMode mode;
    const ExchangeConfig* config;
    uint32_t epochs;
    bool adaptive;  // widths move off the configured one
  };
  std::vector<Case> cases;
  for (const RowMode& mode : kRowModes) {
    cases.push_back(
        {mode, &alloc, 6, !mode.fp && mode.bp_mode == BpMode::kResEc});
  }
  cases.push_back({kReqEcMode, &reqec_alloc, 12, true});
  cases.push_back({kReqEcMode, &reqec_adapt, 12, true});
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << c.mode.name << " bit_alloc=" << c.config->bit_alloc);
    const bool reqec_mode = c.mode.fp && c.mode.fp_mode == FpMode::kReqEc;
    obs::StatsRegistry& stats = obs::StatsRegistry::Global();
    stats.Reset();
    stats.Enable();
    TwoWorkerFixture fx;
    std::mutex mu;
    std::map<obs::StatKey, int> expected;
    uint64_t messages = 0;
    RunRowMode(
        &fx, c.mode, *c.config, nullptr, c.epochs,
        [&](uint32_t worker, uint32_t epoch, uint16_t layer,
            const HaloExchanger& ex) {
          if (reqec_mode && (epoch + 1) % c.config->trend_period == 0) return;
          const uint32_t peer = 1 - worker;
          std::lock_guard<std::mutex> lock(mu);
          expected[obs::StatKey{
              std::string(c.mode.fp ? "fp" : "bp") + ".bits", epoch, layer,
              static_cast<int32_t>(peer)}] = ex.BitsTowards(layer, peer);
        },
        [](uint32_t, uint32_t, uint16_t, const WorkerPlan&, const Matrix&) {},
        &messages);
    const auto snapshot = stats.Snapshot();
    stats.Disable();
    stats.Reset();
    EXPECT_EQ(messages, c.epochs * 2u * 2u);  // 2 layers, 2 workers
    const uint32_t compared =
        reqec_mode ? c.epochs - c.epochs / c.config->trend_period : c.epochs;
    ASSERT_EQ(expected.size(), compared * 2u * 2u);
    std::set<int> widths;
    for (const auto& [key, bits] : expected) {
      widths.insert(bits);
      auto it = snapshot.find(key);
      ASSERT_NE(it, snapshot.end()) << key.name << " epoch " << key.epoch;
      EXPECT_EQ(it->second.last, bits)
          << key.name << " epoch " << key.epoch << " layer " << key.layer
          << " peer " << key.peer;
    }
    EXPECT_EQ(widths.size() > 1, c.adaptive);
  }
}

/// A ResEC checkpoint of 3 layers for `plan` whose residual toward `peer`
/// on layer 2 is `bad`; every other residual is empty (a cold start).
std::vector<uint8_t> ResEcBlob(const WorkerPlan& plan, uint32_t peer,
                               const Matrix& bad) {
  std::vector<uint8_t> blob;
  ByteWriter w(&blob);
  const uint32_t workers = static_cast<uint32_t>(plan.send_rows.size());
  for (uint16_t l = 0; l <= 3; ++l) {
    for (uint32_t p = 0; p < workers; ++p) {
      EncodeMatrix(l == 2 && p == peer ? bad : Matrix(), &w);
    }
  }
  for (uint16_t l = 0; l <= 3; ++l) {
    w.PutU32Vector(std::vector<uint32_t>(workers, 2));
  }
  return blob;
}

TEST(ExchangeTest, ResEcRejectsAMisshapenResidual) {
  // A residual restored from a checkpoint must fit its (layer, peer)
  // group: one row per send row, as wide as the gradient it folds into.
  // Only an empty one is a cold start.
  TwoWorkerFixture fx;
  const size_t rows = fx.plans[0].send_rows[1].size();
  const Matrix cases[] = {Matrix(), Matrix(rows, kDim),
                          Matrix(rows + 1, kDim), Matrix(rows, kDim + 1)};
  const bool fits[] = {true, true, false, false};
  for (size_t i = 0; i < std::size(cases); ++i) {
    SCOPED_TRACE(i);
    SimulatedCluster cluster(2, dist::NetworkModel{});
    const Status status = cluster.Run([&](WorkerContext* ctx) -> Status {
      if (ctx->worker_id() != 0) return Status::OK();
      const WorkerPlan& plan = fx.plans[0];
      auto ex = MakeBpExchanger(BpMode::kResEc, {}, 3, plan);
      const std::vector<uint8_t> blob = ResEcBlob(plan, 1, cases[i]);
      ByteReader r(blob);
      ECG_RETURN_IF_ERROR(ex->LoadState(&r));
      const Matrix owned = MakeOwned(plan, [](uint32_t v, size_t c) {
        return 0.1f * static_cast<float>(v + c);
      });
      // Start only sends: worker 1 never receives, so nothing blocks.
      return ex->Start(ctx, plan, 0, 2, owned);
    });
    if (fits[i]) {
      EXPECT_TRUE(status.ok()) << status;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    }
  }
}

// ReqEC checkpoint and response decoding must be total: a blob or a
// baseline that does not fit the plan is an InvalidArgument, never an
// out-of-bounds read.

/// A ReqEC checkpoint whose responder baselines are sound but whose
/// requester baselines are one row short of the halo slice they predict.
std::vector<uint8_t> ShortRequesterBaselineBlob(const WorkerPlan& plan) {
  std::vector<uint8_t> blob;
  ByteWriter w(&blob);
  const uint32_t workers = static_cast<uint32_t>(plan.send_rows.size());
  for (uint16_t l = 0; l < 2; ++l) {
    for (uint32_t p = 0; p < workers; ++p) {
      const bool active = ActivePeer(plan, p);
      const size_t rows = plan.send_rows[p].size();
      w.PutU8(active ? 1 : 0);  // responder
      EncodeMatrix(Matrix(rows, kDim), &w);
      EncodeMatrix(Matrix(rows, kDim), &w);
      const size_t short_rows = active ? plan.recv_halo_rows[p].size() - 1 : 0;
      w.PutU8(active ? 1 : 0);  // requester
      EncodeMatrix(Matrix(short_rows, kDim), &w);
      EncodeMatrix(Matrix(short_rows, kDim), &w);
    }
  }
  for (uint16_t l = 0; l < 2; ++l) {
    w.PutU32Vector(std::vector<uint32_t>(workers, 2));
  }
  return blob;
}

TEST(ExchangeTest, ReqEcRejectsABaselineShorterThanTheHaloSlice) {
  for (SelectorGranularity selector :
       {SelectorGranularity::kVertex, SelectorGranularity::kElement}) {
    SCOPED_TRACE(static_cast<int>(selector));
    TwoWorkerFixture fx;
    ExchangeConfig config;
    config.trend_period = 4;  // epoch 1 is a selected (non-trend) epoch
    config.selector = selector;
    SimulatedCluster cluster(2, dist::NetworkModel{});
    const Status status = cluster.Run([&](WorkerContext* ctx) -> Status {
      const WorkerPlan& plan = fx.plans[ctx->worker_id()];
      auto ex = MakeFpExchanger(FpMode::kReqEc, config, 2, plan);
      const std::vector<uint8_t> blob = ShortRequesterBaselineBlob(plan);
      ByteReader r(blob);
      ECG_RETURN_IF_ERROR(ex->LoadState(&r));
      const Matrix owned = MakeOwned(plan, [](uint32_t v, size_t c) {
        return 0.01f * static_cast<float>(v + c);
      });
      Matrix halo(plan.num_halo(), kDim);
      return ex->Exchange(ctx, plan, /*epoch=*/1, 1, owned, &halo);
    });
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  }
}

/// A selected response (vertex or element schema) for two halo rows of
/// width kDim whose selector and element count are consistent, but whose
/// compressed subset is `rows` x `cols`.
std::vector<uint8_t> SelectedResponse(bool element, uint32_t rows,
                                      uint32_t cols) {
  const uint8_t kind = element ? 3 : 1;
  // Vertex: row 0 compressed, row 1 predicted (one row's worth shipped).
  // Element: every coordinate compressed.
  const std::vector<uint32_t> slt =
      element ? std::vector<uint32_t>(2 * kDim, kCps)
              : std::vector<uint32_t>{kCps, kPdt};
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutU8(kind);
  w.PutU8(2);
  w.PutU64(slt.size());
  std::vector<uint32_t> packed;
  EXPECT_TRUE(PackBits(slt, 2, &packed).ok());
  AppendCodedBlock(reinterpret_cast<const uint8_t*>(packed.data()),
                   packed.size() * sizeof(uint32_t), &w);
  Matrix subset(rows, cols);
  for (size_t i = 0; i < subset.size(); ++i) {
    subset.data()[i] = static_cast<float>(i);
  }
  auto q =
      compress::Quantize(subset, {2, compress::BucketValueMode::kMidpoint});
  EXPECT_TRUE(q.ok());
  q->AppendTo(&w);
  return buf;
}

// ---------------------------------------------------------------------
// ReqEC selector: the fused pass against a verbatim copy of the op
// sequence it replaced (three candidate matrices, then three RowL1Distance
// passes or an element loop), on every width, both bucket-value modes and
// every granularity, with exact candidate ties.

struct OldSelection {
  std::vector<uint32_t> slt;
  compress::QuantizedMatrix shipped;
  size_t predicted = 0;
};

/// The previous BuildResponse, minus the wire framing.
OldSelection OldBuildResponseSelection(const Matrix& h_send,
                                       const Matrix& h_last,
                                       const Matrix& m_cr, uint32_t step,
                                       const compress::QuantizedMatrix& q_full,
                                       SelectorGranularity selector) {
  OldSelection out;
  Matrix h_cps = *compress::Dequantize(q_full);
  Matrix h_pdt = h_last;
  tensor::Axpy(static_cast<float>(step), m_cr, &h_pdt);
  Matrix h_avg = h_pdt;
  tensor::AddInPlace(&h_avg, h_cps);
  tensor::ScaleInPlace(&h_avg, 0.5f);
  if (selector == SelectorGranularity::kElement) {
    const size_t count = h_send.size();
    std::vector<uint32_t> full_ids;
    EXPECT_TRUE(
        UnpackBits(q_full.packed_ids, count, q_full.bits, &full_ids).ok());
    out.slt.assign(count, kCps);
    std::vector<uint32_t> shipped_ids;
    for (size_t i = 0; i < count; ++i) {
      const float truth = h_send.data()[i];
      const float e_cps = std::fabs(h_cps.data()[i] - truth);
      const float e_pdt = std::fabs(h_pdt.data()[i] - truth);
      const float e_avg = std::fabs(h_avg.data()[i] - truth);
      uint32_t pick = kCps;
      float best = e_cps;
      if (e_pdt < best) {
        pick = kPdt;
        best = e_pdt;
      }
      if (e_avg < best) pick = kAvg;
      out.slt[i] = pick;
      if (pick == kPdt) {
        ++out.predicted;
      } else {
        shipped_ids.push_back(full_ids[i]);
      }
    }
    out.shipped = q_full;
    out.shipped.rows = 1;
    out.shipped.cols = static_cast<uint32_t>(shipped_ids.size());
    EXPECT_TRUE(
        PackBits(shipped_ids, q_full.bits, &out.shipped.packed_ids).ok());
    return out;
  }
  const std::vector<float> s_cps = tensor::RowL1Distance(h_cps, h_send);
  const std::vector<float> s_pdt = tensor::RowL1Distance(h_pdt, h_send);
  const std::vector<float> s_avg = tensor::RowL1Distance(h_avg, h_send);
  const size_t n = h_send.rows();
  out.slt.assign(n, kCps);
  if (selector == SelectorGranularity::kVertex) {
    for (size_t i = 0; i < n; ++i) {
      uint32_t best = kCps;
      float best_s = s_cps[i];
      if (s_pdt[i] < best_s) {
        best = kPdt;
        best_s = s_pdt[i];
      }
      if (s_avg[i] < best_s) best = kAvg;
      out.slt[i] = best;
    }
  } else {
    double t_cps = 0, t_pdt = 0, t_avg = 0;
    for (size_t i = 0; i < n; ++i) {
      t_cps += s_cps[i];
      t_pdt += s_pdt[i];
      t_avg += s_avg[i];
    }
    uint32_t best = kCps;
    if (t_pdt < t_cps && t_pdt <= t_avg) best = kPdt;
    if (t_avg < t_cps && t_avg < t_pdt) best = kAvg;
    std::fill(out.slt.begin(), out.slt.end(), best);
  }
  std::vector<uint32_t> shipped;
  for (uint32_t i = 0; i < n; ++i) {
    if (out.slt[i] == kPdt) {
      ++out.predicted;
    } else {
      shipped.push_back(i);
    }
  }
  out.shipped = *compress::GatherQuantizedRows(q_full, shipped);
  return out;
}

std::vector<uint8_t> Wire(const compress::QuantizedMatrix& q) {
  std::vector<uint8_t> out;
  ByteWriter w(&out);
  q.AppendTo(&w);
  return out;
}

TEST(ExchangeTest, FusedSelectorMatchesTheOpSequenceItReplaced) {
  using compress::BucketValueMode;
  Rng rng(17);
  Matrix h_owned(400, 13);
  for (size_t i = 0; i < h_owned.size(); ++i) {
    h_owned.data()[i] =
        std::max(0.0f, static_cast<float>(rng.NextGaussian()));
  }
  std::vector<uint32_t> rows(300);
  for (auto& r : rows) r = static_cast<uint32_t>(rng.NextBelow(400));
  const uint32_t step = 3;
  for (int bits : {1, 2, 4, 8, 16}) {
    for (auto mode : {BucketValueMode::kMidpoint, BucketValueMode::kDataMean}) {
      const compress::QuantizerOptions opt{bits, mode};
      Matrix truth;
      auto q = compress::GatherQuantizeRows(h_owned, rows, nullptr, opt,
                                            &truth);
      ASSERT_TRUE(q.ok());
      const Matrix h_send = tensor::GatherRows(h_owned, rows);
      auto q_old = compress::Quantize(h_send, opt);
      ASSERT_TRUE(q_old.ok());
      ASSERT_EQ(Wire(*q), Wire(*q_old));
      const Matrix cps = *compress::Dequantize(*q);
      // Mixed baseline: noisy trends, then exact ties — rows whose pdt
      // (and so avg) equals cps, and rows whose pdt is the truth.
      Matrix h_last(rows.size(), 13), m_cr(rows.size(), 13);
      for (size_t i = 0; i < h_last.size(); ++i) {
        h_last.data()[i] = h_send.data()[i] +
                           0.3f * static_cast<float>(rng.NextGaussian());
        m_cr.data()[i] = 0.05f * static_cast<float>(rng.NextGaussian());
      }
      for (size_t i = 0; i < 40 * 13; ++i) {
        h_last.data()[i] = cps.data()[i];
        m_cr.data()[i] = 0.0f;
      }
      for (size_t i = 40 * 13; i < 80 * 13; ++i) {
        h_last.data()[i] = h_send.data()[i];
        m_cr.data()[i] = 0.0f;
      }
      // All-tie baseline: every candidate equals cps, so the matrix-wide
      // totals tie too.
      const Matrix tie_rate(rows.size(), 13);
      for (SelectorGranularity selector :
           {SelectorGranularity::kVertex, SelectorGranularity::kElement,
            SelectorGranularity::kMatrix}) {
        for (const Matrix* last : {&std::as_const(h_last), &cps}) {
          const Matrix& rate = last == &cps ? tie_rate : m_cr;
          SCOPED_TRACE(::testing::Message()
                       << "bits=" << bits << " mode=" << static_cast<int>(mode)
                       << " selector=" << static_cast<int>(selector)
                       << (last == &cps ? " all-tie" : " mixed"));
          const OldSelection want = OldBuildResponseSelection(
              h_send, *last, rate, step, *q_old, selector);
          auto got = SelectReqEc(truth, *last, rate, step, *q, selector);
          ASSERT_TRUE(got.ok()) << got.status();
          EXPECT_EQ(got->slt, want.slt);
          EXPECT_EQ(got->predicted, want.predicted);
          EXPECT_EQ(Wire(got->shipped), Wire(want.shipped));
        }
      }
    }
  }
  // A baseline that does not cover the send set is an error, not a crash.
  Matrix truth;
  auto q = compress::GatherQuantizeRows(h_owned, rows, nullptr, {2}, &truth);
  ASSERT_TRUE(q.ok());
  const Matrix short_last(rows.size() - 1, 13);
  EXPECT_EQ(SelectReqEc(truth, short_last, short_last, step, *q,
                        SelectorGranularity::kVertex)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Codec parity. Every byte the halo codec produces — halos, wire bytes,
// checkpoint state — must stay what the previous implementation produced
// on the same inputs. Each case records three digests from that
// implementation: a halo digest (per epoch and layer, each worker's halo
// bits), a state digest (each worker's final SaveState bytes) and a comm
// digest (per epoch and layer, each worker's wire bytes). A change of wire
// format can move the comm digest, and a change of checkpoint layout the
// state digest, while the halo digest pins every value. Inputs sit on a
// 1/64 grid (exact in float, no libm), so the digests depend only on the
// codec's arithmetic.

constexpr size_t kParityDim = 12;  // 12·bits is word-ragged below 8 bits
constexpr uint32_t kParityEpochs = 12;

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// A trend plus, on every third vertex, noise: ReqEC predicts the former
/// and must ship the latter. FP inputs are ReLU'd like hidden activations.
float ParityValue(uint32_t v, size_t c, uint32_t epoch, uint16_t layer,
                  bool relu) {
  uint32_t x = v * 2654435761u ^ static_cast<uint32_t>(c * 40503u) ^
               (layer * 7919u);
  x ^= x >> 13;
  x *= 0x5bd1e995u;
  x ^= x >> 15;
  const int base = static_cast<int>(x % 1201u) - 600;
  const int slope = static_cast<int>((x >> 11) % 9u) - 4;
  int noise = 0;
  if (v % 3 == 0) {
    noise = static_cast<int>(((x >> 7) ^ (epoch * 2246822519u)) % 65u) - 32;
  }
  const float f =
      static_cast<float>(base + slope * static_cast<int>(epoch) + noise) /
      64.0f;
  return relu ? std::max(f, 0.0f) : f;
}

struct ParityCase {
  const char* name;
  bool fp;
  FpMode fp_mode;
  BpMode bp_mode;
  ExchangeConfig config;
  uint64_t halo;
  uint64_t state;
  uint64_t comm;
};

/// Three digests of one parity run: every exchange's halo bytes, the
/// exchangers' final SaveState bytes, and the wire bytes.
struct ParityDigests {
  uint64_t halo;
  uint64_t state;
  uint64_t comm;
};

ParityDigests ParityDigest(const ParityCase& pc) {
  const graph::Graph g = *graph::LoadDataset("tiny");
  const graph::Partition part = *graph::HashPartition(g, 3);
  std::vector<WorkerPlan> plans;
  EXPECT_TRUE(BuildWorkerPlans(g, part, &plans).ok());
  // Unit bandwidth, no latency: a phase's modelled seconds are its bytes.
  dist::NetworkModel wire;
  wire.bandwidth_bytes_per_sec = 1.0;
  wire.latency_sec = 0.0;
  SimulatedCluster cluster(3, wire);
  std::vector<uint64_t> halos_digest(3, 0xcbf29ce484222325ull);
  std::vector<uint64_t> state_digest(3, 0xcbf29ce484222325ull);
  std::vector<uint64_t> comm(3, 0xcbf29ce484222325ull);
  const Status status = cluster.Run([&](WorkerContext* ctx) -> Status {
    const WorkerPlan& plan = plans[ctx->worker_id()];
    std::unique_ptr<HaloExchanger> fp;
    std::unique_ptr<HaloExchanger> bp;
    if (pc.fp) {
      fp = MakeFpExchanger(pc.fp_mode, pc.config, /*num_layers=*/3, plan);
    } else {
      bp = MakeBpExchanger(pc.bp_mode, pc.config, /*num_layers=*/3, plan);
    }
    std::vector<Matrix> halos(4, Matrix(plan.num_halo(), kParityDim));
    uint64_t& h = halos_digest[ctx->worker_id()];
    uint64_t& hc = comm[ctx->worker_id()];
    for (uint32_t epoch = 0; epoch < kParityEpochs; ++epoch) {
      // FP exchanges H^1, H^2 upward; BP exchanges G^3, G^2 downward.
      for (uint16_t layer : pc.fp ? std::vector<uint16_t>{1, 2}
                                  : std::vector<uint16_t>{3, 2}) {
        Matrix owned(plan.num_owned(), kParityDim);
        for (size_t r = 0; r < plan.num_owned(); ++r) {
          for (size_t c = 0; c < kParityDim; ++c) {
            owned.At(r, c) =
                ParityValue(plan.owned[r], c, epoch, layer, pc.fp);
          }
        }
        Matrix& halo = halos[layer];
        if (pc.fp) {
          ECG_RETURN_IF_ERROR(
              fp->Exchange(ctx, plan, epoch, layer, owned, &halo));
        } else {
          halo.Reset(plan.num_halo(), kParityDim);
          ECG_RETURN_IF_ERROR(
              bp->Exchange(ctx, plan, epoch, layer, owned, &halo));
        }
        const double wire_bytes = ctx->comm_seconds();
        h = Fnv(h, halo.data(), halo.size() * sizeof(float));
        hc = Fnv(hc, &wire_bytes, sizeof(wire_bytes));
      }
    }
    std::vector<uint8_t> state;
    ByteWriter w(&state);
    if (pc.fp) {
      fp->SaveState(&w);
    } else {
      bp->SaveState(&w);
    }
    uint64_t& hs = state_digest[ctx->worker_id()];
    hs = Fnv(hs, state.data(), state.size());
    return Status::OK();
  });
  EXPECT_TRUE(status.ok()) << status;
  const auto fold = [](const std::vector<uint64_t>& per_worker) {
    return Fnv(0xcbf29ce484222325ull, per_worker.data(),
               per_worker.size() * sizeof(uint64_t));
  };
  return {fold(halos_digest), fold(state_digest), fold(comm)};
}

ExchangeConfig ParityConfig(int bits, SelectorGranularity selector,
                            compress::BucketValueMode value_mode) {
  ExchangeConfig config;
  config.fp_bits = bits;
  config.bp_bits = bits;
  config.selector = selector;
  config.value_mode = value_mode;
  config.trend_period = 4;
  config.delay_rounds = 3;
  return config;
}

TEST(ExchangeTest, CodecParityWithRecordedDigests) {
  using compress::BucketValueMode;
  const ExchangeConfig v2 = ParityConfig(2, SelectorGranularity::kVertex,
                                         BucketValueMode::kMidpoint);
  const ExchangeConfig e4 = ParityConfig(4, SelectorGranularity::kElement,
                                         BucketValueMode::kMidpoint);
  const ExchangeConfig m1 = ParityConfig(1, SelectorGranularity::kMatrix,
                                         BucketValueMode::kMidpoint);
  const ExchangeConfig v8 = ParityConfig(8, SelectorGranularity::kVertex,
                                         BucketValueMode::kMidpoint);
  const ExchangeConfig d4 = ParityConfig(4, SelectorGranularity::kVertex,
                                         BucketValueMode::kDataMean);
  const ExchangeConfig s16 = ParityConfig(16, SelectorGranularity::kVertex,
                                          BucketValueMode::kMidpoint);
  ExchangeConfig adapt = v2;
  adapt.adaptive_bits = true;
  ExchangeConfig alloc = ParityConfig(4, SelectorGranularity::kVertex,
                                      BucketValueMode::kMidpoint);
  alloc.bit_alloc = true;
  const ParityCase cases[] = {
      {"fp_exact", true, FpMode::kExact, BpMode::kExact, v2,
       0x943853d0db73d3d3ull, 0x777824eb65f9184cull, 0x6b12ab303879deb8ull},
      {"fp_cp2", true, FpMode::kCompressed, BpMode::kExact, v2,
       0x647ca960166a4785ull, 0x777824eb65f9184cull, 0x386b1eae0e61f256ull},
      {"fp_cp4_datamean", true, FpMode::kCompressed, BpMode::kExact, d4,
       0xc1fd9ba4a731636aull, 0x777824eb65f9184cull, 0x1da8110756645b83ull},
      {"fp_cp16", true, FpMode::kCompressed, BpMode::kExact, s16,
       0x77fa57567461bd4eull, 0x777824eb65f9184cull, 0x68717f55b4fe98d3ull},
      {"fp_delayed", true, FpMode::kDelayed, BpMode::kExact, v2,
       0x390ba95db98dc645ull, 0x777824eb65f9184cull, 0xdf73274e2b8789b1ull},
      {"fp_reqec_vertex2", true, FpMode::kReqEc, BpMode::kExact, v2,
       0x1be2fcdbdfb5c9e5ull, 0x8c66bce55d053a63ull, 0x54bbf07543c5a443ull},
      {"fp_reqec_vertex8", true, FpMode::kReqEc, BpMode::kExact, v8,
       0xe88cb7f69dd72542ull, 0x6e5ae96c6000d224ull, 0xff6d27327d381543ull},
      {"fp_reqec_element4", true, FpMode::kReqEc, BpMode::kExact, e4,
       0xf9342088e8411c8full, 0x103f1966adfff823ull, 0x8a3468d5dc82b0adull},
      {"fp_reqec_matrix1", true, FpMode::kReqEc, BpMode::kExact, m1,
       0x74929f247e09e6a6ull, 0x855de3a941c0c32eull, 0x4aed12d6b571ecf9ull},
      {"fp_reqec_datamean4", true, FpMode::kReqEc, BpMode::kExact, d4,
       0x63176e8403d5c2e1ull, 0x103f1966adfff823ull, 0x5d6b62411c5ed07bull},
      {"fp_reqec_adaptive", true, FpMode::kReqEc, BpMode::kExact, adapt,
       0x633b39f3df5a4a92ull, 0xe6b1a8a6b620ff3eull, 0x73edd77713bf6877ull},
      {"fp_reqec_bitalloc", true, FpMode::kReqEc, BpMode::kExact, alloc,
       0x79b66ee5b493075full, 0xee63eecae5d8ac2ull, 0xc66734e6d613404ull},
      {"bp_exact", false, FpMode::kExact, BpMode::kExact, v2,
       0xb4854aa0a4dcc3e8ull, 0x777824eb65f9184cull, 0x6b12ab303879deb8ull},
      {"bp_cp2", false, FpMode::kExact, BpMode::kCompressed, v2,
       0xb19aa914f4a29f83ull, 0x777824eb65f9184cull, 0x386b1eae0e61f256ull},
      {"bp_cp4_datamean", false, FpMode::kExact, BpMode::kCompressed, d4,
       0xac0e46414b956090ull, 0x777824eb65f9184cull, 0x1da8110756645b83ull},
      {"bp_resec2", false, FpMode::kExact, BpMode::kResEc, v2,
       0x4ff8549a11f0bf9eull, 0xae1321272c6cca19ull, 0x386b1eae0e61f256ull},
      {"bp_resec1", false, FpMode::kExact, BpMode::kResEc, m1,
       0xa3913dafdb6fb3aull, 0xc0d049fd816386fcull, 0x62de531d782e789bull},
      {"bp_resec_datamean4", false, FpMode::kExact, BpMode::kResEc, d4,
       0x5b21659029ec717aull, 0xc266b5fb10a5187cull, 0x1da8110756645b83ull},
      {"bp_resec16", false, FpMode::kExact, BpMode::kResEc, s16,
       0x96f691a281895590ull, 0xf9c0c02d304ff356ull, 0xd57b1fcd58fd38bdull},
      {"bp_resec_bitalloc", false, FpMode::kExact, BpMode::kResEc, alloc,
       0x71de0f4a4a5aa0f9ull, 0x360c4bc974561955ull, 0xefebfdc6548376ffull},
  };
  for (const ParityCase& pc : cases) {
    const ParityDigests d = ParityDigest(pc);
    EXPECT_EQ(d.halo, pc.halo)
        << pc.name << " halo: 0x" << std::hex << d.halo << "ull";
    EXPECT_EQ(d.state, pc.state)
        << pc.name << " state: 0x" << std::hex << d.state << "ull";
    EXPECT_EQ(d.comm, pc.comm)
        << pc.name << " comm: 0x" << std::hex << d.comm << "ull";
  }
}

// ---------------------------------------------------------------------
// ReqEC trend responses. A trend response carries the exact H only: the
// requester already holds the H_last the responder holds, so it derives
// M_cr = (H - H_last) / T_tr itself. The two ends' (H_last, M_cr) must
// then stay memcmp-equal through lost responses, checkpoints and elastic
// transitions.

/// One side of a (layer, peer) trend group, as SaveState writes it.
struct TrendSide {
  uint8_t have = 0;
  Matrix h_last, m_cr;
};

/// A ReqEC SaveState blob's trend groups: [layer][peer] = {responder,
/// requester}.
using TrendSides = std::vector<std::vector<std::array<TrendSide, 2>>>;

TrendSides ReadTrendSides(const HaloExchanger& ex, uint16_t layers,
                          uint32_t workers) {
  std::vector<uint8_t> blob;
  ByteWriter w(&blob);
  ex.SaveState(&w);
  ByteReader r(blob);
  TrendSides sides(layers, std::vector<std::array<TrendSide, 2>>(workers));
  for (auto& layer : sides) {
    for (auto& peer : layer) {
      for (TrendSide& side : peer) {
        EXPECT_TRUE(r.GetU8(&side.have).ok());
        EXPECT_TRUE(DecodeMatrix(&r, &side.h_last).ok());
        EXPECT_TRUE(DecodeMatrix(&r, &side.m_cr).ok());
      }
    }
  }
  return sides;
}

bool SameMatrix(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool SameSide(const TrendSide& a, const TrendSide& b) {
  return a.have == b.have && SameMatrix(a.h_last, b.h_last) &&
         SameMatrix(a.m_cr, b.m_cr);
}

constexpr uint16_t kTrendLayers = 3;  // FP exchanges H^1 and H^2

size_t TrendCols(uint16_t layer) { return layer == 1 ? 12 : 5; }

/// ReqEC workers (two on `tiny` by default) whose exchangers and halos
/// outlive each simulated cluster, so a run can stop, checkpoint or migrate
/// between epochs and go on.
struct TrendRun {
  std::vector<WorkerPlan> plans;
  ExchangeConfig config;
  std::vector<std::unique_ptr<HaloExchanger>> ex;
  std::vector<std::vector<Matrix>> halos;  // [worker][layer]
  /// Bytes each worker sent per (epoch, layer): one response towards each
  /// peer.
  std::map<std::tuple<uint32_t, uint32_t, uint16_t>, uint64_t> sent;

  explicit TrendRun(uint32_t workers = 2, const char* dataset = "tiny") {
    const graph::Graph g = *graph::LoadDataset(dataset);
    EXPECT_TRUE(
        BuildWorkerPlans(g, *graph::HashPartition(g, workers), &plans).ok());
    config.fp_bits = 2;
    config.trend_period = 3;  // trend epochs 2 and 5
    config.fault_fallback = true;
    for (const WorkerPlan& plan : plans) {
      ex.push_back(MakeFpExchanger(FpMode::kReqEc, config, kTrendLayers, plan));
      std::vector<Matrix> h;
      for (uint16_t l = 0; l < kTrendLayers; ++l) {
        h.emplace_back(plan.num_halo(), TrendCols(l));
      }
      halos.push_back(std::move(h));
    }
  }

  /// Runs epochs [first, last) of layers 1 and 2.
  void Epochs(uint32_t first, uint32_t last,
              dist::FaultInjector* injector = nullptr) {
    SimulatedCluster cluster(static_cast<uint32_t>(plans.size()),
                             dist::NetworkModel{});
    cluster.hub().set_fault_injector(injector);
    std::mutex mu;
    const Status status = cluster.Run([&](WorkerContext* ctx) -> Status {
      const uint32_t w = ctx->worker_id();
      const WorkerPlan& plan = plans[w];
      for (uint32_t epoch = first; epoch < last; ++epoch) {
        for (uint16_t layer : {1, 2}) {
          Matrix owned(plan.num_owned(), TrendCols(layer));
          for (size_t r = 0; r < plan.num_owned(); ++r) {
            for (size_t c = 0; c < owned.cols(); ++c) {
              owned.At(r, c) =
                  ParityValue(plan.owned[r], c, epoch, layer, true);
            }
          }
          const uint64_t before = cluster.stats().BytesSent(w);
          ECG_RETURN_IF_ERROR(ex[w]->Exchange(ctx, plan, epoch, layer, owned,
                                              &halos[w][layer]));
          std::lock_guard<std::mutex> lock(mu);
          sent[{w, epoch, layer}] = cluster.stats().BytesSent(w) - before;
        }
      }
      return Status::OK();
    });
    EXPECT_TRUE(status.ok()) << status;
  }

  /// Every responder side holds a baseline and equals its requester's
  /// copy, bit for bit.
  void ExpectBothEndsAgree() {
    const uint32_t n = static_cast<uint32_t>(plans.size());
    std::vector<TrendSides> s;
    for (uint32_t w = 0; w < n; ++w) {
      s.push_back(ReadTrendSides(*ex[w], kTrendLayers, n));
    }
    for (uint16_t l = 1; l < kTrendLayers; ++l) {
      for (uint32_t w = 0; w < n; ++w) {
        for (uint32_t p = 0; p < n; ++p) {
          if (!ActivePeer(plans[w], p)) continue;
          SCOPED_TRACE(testing::Message() << "layer " << l << ": " << w
                                          << " responds to " << p);
          EXPECT_EQ(s[w][l][p][0].have, 1);
          EXPECT_TRUE(SameSide(s[w][l][p][0], s[p][l][w][1]));
        }
      }
    }
  }

  /// Bytes of the trend state gauge `name` recorded by `worker` for
  /// (epoch, layer) in `stats`.
  static double Gauge(const std::map<obs::StatKey, obs::StatValue>& stats,
                      const char* name, uint32_t epoch, uint16_t layer,
                      uint32_t worker) {
    auto it = stats.find(obs::StatKey{name, epoch, layer, -1,
                                      static_cast<int32_t>(worker)});
    return it == stats.end() ? -1.0 : it->second.last;
  }

  /// Rows of worker w's responder store (each owned vertex some peer is
  /// sent, once) and of its requester baselines (its halo rows).
  size_t StoreRows(uint32_t w) const {
    std::set<uint32_t> rows;
    for (uint32_t p = 0; p < plans.size(); ++p) {
      if (!ActivePeer(plans[w], p)) continue;
      rows.insert(plans[w].send_rows[p].begin(), plans[w].send_rows[p].end());
    }
    return rows.size();
  }
  size_t RequesterRows(uint32_t w) const {
    size_t rows = 0;
    for (uint32_t p = 0; p < plans.size(); ++p) {
      if (ActivePeer(plans[w], p)) rows += plans[w].recv_halo_rows[p].size();
    }
    return rows;
  }
};

TEST(ExchangeTest, ReqEcTrendResponsesShipOnlyH) {
  TrendRun run;
  run.Epochs(0, 6);
  for (uint32_t epoch : {2u, 5u}) {
    for (uint32_t w = 0; w < 2; ++w) {
      for (uint16_t layer : {1, 2}) {
        SCOPED_TRACE(testing::Message() << "epoch " << epoch << " worker "
                                        << w << " layer " << layer);
        const WorkerPlan& plan = run.plans[w];
        const uint64_t rows = plan.send_rows[1 - w].size();
        ASSERT_GT(rows, 0u);
        std::vector<uint8_t> map((rows * TrendCols(layer) + 7) / 8);
        std::vector<float> kept;
        size_t e = 0;
        for (uint32_t r : plan.send_rows[1 - w]) {
          for (size_t c = 0; c < TrendCols(layer); ++c, ++e) {
            const float v = ParityValue(plan.owned[r], c, epoch, layer, true);
            if (std::bit_cast<uint32_t>(v) == 0) continue;
            map[e / 8] |= static_cast<uint8_t>(1u << (e % 8));
            kept.push_back(v);
          }
        }
        // The response only: kind + the rows with their zeros suppressed
        // (header, then the bitmap and the nonzero floats' byte planes as
        // blocks).
        EXPECT_EQ(run.sent.at({w, epoch, layer}),
                  1 + test::AssembleTrendPayload(
                          static_cast<uint32_t>(rows), TrendCols(layer),
                          kept.size(), map, kept, /*raw=*/false)
                          .size());
        EXPECT_LT(kept.size(), rows * TrendCols(layer));
      }
    }
  }
  run.ExpectBothEndsAgree();
  // After the second snapshot the rate is live, not the first one's zeros.
  const TrendSides s = ReadTrendSides(*run.ex[0], kTrendLayers, 2);
  const Matrix& m = s[1][1][0].m_cr;
  EXPECT_TRUE(std::any_of(m.data(), m.data() + m.size(),
                          [](float v) { return v != 0.0f; }));
}

TEST(ExchangeTest, ReqEcTrendEndsAgreeAfterALostTrendResponse) {
  TrendRun lossy, clean;
  auto injector = dist::FaultInjector::Parse(
      "drop=1@epoch=5:layer=1:from=0:to=1,retries=1,timeout_ms=20");
  ASSERT_TRUE(injector.ok()) << injector.status();
  lossy.Epochs(0, 3);
  clean.Epochs(0, 3);
  const TrendSides after_first = ReadTrendSides(*lossy.ex[0], kTrendLayers, 2);
  lossy.Epochs(3, 6, &*injector);
  clean.Epochs(3, 6);
  ASSERT_GT(injector->counters().dropped.load(), 0u);
  lossy.ExpectBothEndsAgree();
  // Both ends kept the first snapshot for the lost group; the other
  // layer took the second one like a fault-free run.
  const TrendSides got = ReadTrendSides(*lossy.ex[0], kTrendLayers, 2);
  const TrendSides want = ReadTrendSides(*clean.ex[0], kTrendLayers, 2);
  EXPECT_TRUE(SameSide(got[1][1][0], after_first[1][1][0]));
  EXPECT_FALSE(SameSide(got[1][1][0], want[1][1][0]));
  EXPECT_TRUE(SameSide(got[2][1][0], want[2][1][0]));
}

TEST(ExchangeTest, ReqEcTrendEndsAgreeAcrossACheckpoint) {
  TrendRun saved, clean;
  saved.Epochs(0, 4);
  clean.Epochs(0, 6);
  for (uint32_t w = 0; w < 2; ++w) {
    std::vector<uint8_t> blob;
    ByteWriter bw(&blob);
    saved.ex[w]->SaveState(&bw);
    saved.ex[w] = MakeFpExchanger(FpMode::kReqEc, saved.config, kTrendLayers,
                                  saved.plans[w]);
    ByteReader r(blob);
    ASSERT_TRUE(saved.ex[w]->LoadState(&r).ok());
  }
  saved.Epochs(4, 6);
  saved.ExpectBothEndsAgree();
  for (uint32_t w = 0; w < 2; ++w) {
    const TrendSides got = ReadTrendSides(*saved.ex[w], kTrendLayers, 2);
    const TrendSides want = ReadTrendSides(*clean.ex[w], kTrendLayers, 2);
    for (uint16_t l = 1; l < kTrendLayers; ++l) {
      EXPECT_TRUE(SameSide(got[l][1 - w][0], want[l][1 - w][0]));
      EXPECT_TRUE(SameSide(got[l][1 - w][1], want[l][1 - w][1]));
    }
  }
}

TEST(ExchangeTest, ReqEcTrendEndsAgreeAfterAnElasticTransition) {
  TrendRun run;
  run.Epochs(0, 4);
  elastic::ElasticStateBag bag;
  for (uint32_t w = 0; w < 2; ++w) {
    run.ex[w]->ExportElasticState(run.plans[w], &bag);
  }
  ASSERT_FALSE(bag.fp_trend.empty());
  for (uint32_t w = 0; w < 2; ++w) {
    run.ex[w] = MakeFpExchanger(FpMode::kReqEc, run.config, kTrendLayers,
                                run.plans[w]);
    ASSERT_TRUE(run.ex[w]->ImportElasticState(run.plans[w], bag).ok());
  }
  run.ExpectBothEndsAgree();
  run.Epochs(4, 6);
  run.ExpectBothEndsAgree();
}

// The responder keeps one trend row per owned boundary vertex, however
// many peers it is sent to; the requester one per halo row.
TEST(ExchangeTest, ReqEcTrendStateGaugeCountsEachOwnedVertexOnce) {
  obs::StatsRegistry& stats = obs::StatsRegistry::Global();
  stats.Reset();
  stats.Enable();
  TrendRun run(4, "cora-sim");
  run.Epochs(0, 6);
  const auto snapshot = stats.Snapshot();
  stats.Disable();
  stats.Reset();
  size_t send_rows = 0, store_rows = 0;
  for (uint32_t w = 0; w < 4; ++w) {
    for (uint32_t p = 0; p < 4; ++p) {
      if (ActivePeer(run.plans[w], p)) {
        send_rows += run.plans[w].send_rows[p].size();
      }
    }
    store_rows += run.StoreRows(w);
    for (uint32_t epoch : {2u, 5u}) {
      for (uint16_t layer : {1, 2}) {
        SCOPED_TRACE(testing::Message() << "worker " << w << " epoch "
                                        << epoch << " layer " << layer);
        const double row_bytes = TrendCols(layer) * 8.0;
        EXPECT_EQ(TrendRun::Gauge(snapshot, "mem.reqec.responder_bytes",
                                  epoch, layer, w),
                  run.StoreRows(w) * row_bytes);
        EXPECT_EQ(TrendRun::Gauge(snapshot, "mem.reqec.requester_bytes",
                                  epoch, layer, w),
                  run.RequesterRows(w) * row_bytes);
      }
    }
  }
  // The plan sends vertices to more than one peer, so sharing saves rows.
  EXPECT_GT(send_rows, store_rows);
  run.ExpectBothEndsAgree();
}

// A trend response that can never arrive forks exactly its own group: the
// responder copies that group's old rows out, the other groups keep
// sharing the store, and both ends of every group still agree. A
// checkpoint reloads the fork as it was, and two delivered snapshots later
// the group shares the store again.
TEST(ExchangeTest, ReqEcLostTrendResponseForksOnlyItsGroup) {
  obs::StatsRegistry& stats = obs::StatsRegistry::Global();
  stats.Reset();
  stats.Enable();
  TrendRun run(4, "cora-sim");
  auto injector = dist::FaultInjector::Parse(
      "drop=1@epoch=5:layer=1:from=0:to=3,retries=1,timeout_ms=500");
  ASSERT_TRUE(injector.ok()) << injector.status();
  run.Epochs(0, 3);
  run.Epochs(3, 6, &*injector);
  ASSERT_GT(injector->counters().dropped.load(), 0u);
  ASSERT_TRUE(ActivePeer(run.plans[0], 3));
  const auto snapshot = stats.Snapshot();
  for (uint32_t w = 0; w < 4; ++w) {
    for (uint16_t layer : {1, 2}) {
      SCOPED_TRACE(testing::Message() << "worker " << w << " layer "
                                      << layer);
      const double row_bytes = TrendCols(layer) * 8.0;
      const size_t forked =
          w == 0 && layer == 1 ? run.plans[0].send_rows[3].size() : 0;
      EXPECT_EQ(TrendRun::Gauge(snapshot, "mem.reqec.responder_bytes", 5,
                                layer, w),
                (run.StoreRows(w) + forked) * row_bytes);
      EXPECT_EQ(TrendRun::Gauge(snapshot, "mem.reqec.requester_bytes", 5,
                                layer, w),
                run.RequesterRows(w) * row_bytes);
    }
  }
  run.ExpectBothEndsAgree();

  // Reloaded, the forked group's rows differ from the store's copy of the
  // same vertices, so it is private again; the checkpoint bytes and the
  // gauge are what they were.
  std::vector<uint8_t> blob;
  ByteWriter bw(&blob);
  run.ex[0]->SaveState(&bw);
  run.ex[0] = MakeFpExchanger(FpMode::kReqEc, run.config, kTrendLayers,
                              run.plans[0]);
  ByteReader r(blob);
  ASSERT_TRUE(run.ex[0]->LoadState(&r).ok());
  std::vector<uint8_t> again;
  ByteWriter aw(&again);
  run.ex[0]->SaveState(&aw);
  EXPECT_EQ(again, blob);

  // Epoch 8's snapshot leaves the fork's rate unequal to the store's
  // (it spans epochs 2-8, the store's 5-8); epoch 11's makes them equal.
  run.Epochs(6, 12);
  run.ExpectBothEndsAgree();
  const auto later = stats.Snapshot();
  stats.Disable();
  stats.Reset();
  const double row_bytes = TrendCols(1) * 8.0;
  const double store_bytes = run.StoreRows(0) * row_bytes;
  const double fork_bytes = run.plans[0].send_rows[3].size() * row_bytes;
  EXPECT_EQ(TrendRun::Gauge(later, "mem.reqec.responder_bytes",
                            obs::kNoEpoch, 1, 0),
            store_bytes + fork_bytes);
  EXPECT_EQ(TrendRun::Gauge(later, "mem.reqec.responder_bytes", 8, 1, 0),
            store_bytes + fork_bytes);
  EXPECT_EQ(TrendRun::Gauge(later, "mem.reqec.responder_bytes", 11, 1, 0),
            store_bytes);
}

// ---------------------------------------------------------------------
// Hand-built payloads. Worker 1 runs the real exchanger up to `epoch`,
// then sends worker 0 a hand-built payload in place of its own message.
// Worker 0 must decode a well-formed payload and refuse any other with its
// halo, and a ReqEC requester's baselines, as they were.

/// What worker 0's exchange of a hand-built payload did.
struct HandBuilt {
  Status status;
  bool halo_kept = false;      // the halo is bit for bit what it was
  bool baseline_kept = false;  // the requester baselines too (ReqEC)
  /// ReqEC: worker 0's layer-1 baseline towards worker 1 existed before
  /// and after the exchange.
  bool baseline_before = false, baseline_after = false;
};

/// Worker 0 exchanges layer 1 (FP) or 2 (BP) of 3 at `epoch` into a halo
/// `halo_cols` wide, filled with values no payload carries.
HandBuilt ExchangeHandBuiltPayload(const RowMode& mode,
                                   const ExchangeConfig& config,
                                   uint32_t epoch,
                                   const std::vector<uint8_t>& payload,
                                   size_t halo_cols = kDim) {
  TwoWorkerFixture fx;
  const uint16_t layer = mode.fp ? 1 : 2;
  const bool reqec = mode.fp && mode.fp_mode == FpMode::kReqEc;
  HandBuilt out;
  SimulatedCluster cluster(2, dist::NetworkModel{});
  const Status run = cluster.Run([&](WorkerContext* ctx) -> Status {
    const WorkerPlan& plan = fx.plans[ctx->worker_id()];
    std::unique_ptr<HaloExchanger> ex =
        mode.fp ? MakeFpExchanger(mode.fp_mode, config, 3, plan)
                : MakeBpExchanger(mode.bp_mode, config, 3, plan);
    const auto owned_at = [&](uint32_t e) {
      return MakeOwned(plan, [&](uint32_t v, size_t c) {
        return 0.25f * static_cast<float>(v + c) + static_cast<float>(e * e);
      });
    };
    Matrix halo(plan.num_halo(), kDim);
    for (uint32_t e = 0; e < epoch; ++e) {
      ECG_RETURN_IF_ERROR(
          ex->Exchange(ctx, plan, e, layer, owned_at(e), &halo));
    }
    const uint64_t tag = dist::MessageHub::MakeTag(
        epoch, layer, ex->direction().tag_kind);
    if (ctx->worker_id() == 1) {
      ctx->Send(0, tag, payload);
      std::vector<uint8_t> own;  // worker 0's own message
      return test::RecvFrom(ctx, 0, tag, &own);
    }
    halo.Reset(plan.num_halo(), halo_cols);
    for (size_t i = 0; i < halo.size(); ++i) {
      halo.data()[i] = -1.0f - static_cast<float>(i);
    }
    const Matrix halo_before = halo;
    const TrendSides before =
        reqec ? ReadTrendSides(*ex, 3, 2) : TrendSides{};
    out.status = ex->Exchange(ctx, plan, epoch, layer, owned_at(epoch), &halo);
    out.halo_kept = SameMatrix(halo, halo_before);
    out.baseline_kept = true;
    if (reqec) {
      const TrendSides after = ReadTrendSides(*ex, 3, 2);
      for (size_t l = 0; l < after.size(); ++l) {
        out.baseline_kept &= SameSide(after[l][1][1], before[l][1][1]);
      }
      out.baseline_before = before[1][1][1].have != 0;
      out.baseline_after = after[1][1][1].have != 0;
    }
    return Status::OK();
  });
  EXPECT_TRUE(run.ok()) << run;
  return out;
}

/// Worker 0's layer-1 exchange at a trend epoch, answered by worker 1 with
/// `response` (kind byte first) into a halo `halo_cols` wide; with
/// `baseline`, an earlier trend epoch has set worker 0's trend baseline.
/// Whatever the status, a rejected response must have left worker 0's halo
/// and requester baseline as they were, and an accepted one updated both.
Status ExchangeHandBuiltTrendResponse(const std::vector<uint8_t>& response,
                                      size_t halo_cols, bool baseline) {
  ExchangeConfig config;
  config.trend_period = 4;
  // Trend epochs are 3 and 7; with a baseline, epoch 3 sets it.
  const HandBuilt r = ExchangeHandBuiltPayload(
      kReqEcMode, config, baseline ? 7 : 3, response, halo_cols);
  EXPECT_EQ(r.baseline_before, baseline);
  if (r.status.ok()) {
    EXPECT_FALSE(r.halo_kept);
    EXPECT_TRUE(r.baseline_after);
  } else {
    EXPECT_TRUE(r.halo_kept);
    EXPECT_TRUE(r.baseline_kept);
  }
  return r.status;
}

// A selected response splits its compressed subset back into whole units:
// rows exactly `dim` wide (vertex) or the coordinates of one row
// (element). A subset with the right element count but another shape is
// malformed and must be rejected, not silently re-cut.
TEST(ExchangeTest, ReqEcRejectsASubsetOfTheWrongShape) {
  struct Shape {
    bool element;
    uint32_t rows, cols;
  };
  for (const Shape& shape : {Shape{false, 2, kDim / 2}, Shape{true, 2, kDim}}) {
    SCOPED_TRACE(shape.element ? "element" : "vertex");
    ExchangeConfig config;
    config.trend_period = 4;  // epoch 3 sets the baseline, epoch 4 selects
    config.selector = shape.element ? SelectorGranularity::kElement
                                    : SelectorGranularity::kVertex;
    const HandBuilt r = ExchangeHandBuiltPayload(
        kReqEcMode, config, 4,
        SelectedResponse(shape.element, shape.rows, shape.cols));
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument) << r.status;
    EXPECT_TRUE(r.halo_kept);
  }
}

// A trend response is decoded in full and checked against the halo slice
// and any existing baseline before the halo or the requester's state is
// written: a malformed one is rejected and leaves both as they were.
TEST(ExchangeTest, ReqEcRejectsAMalformedTrendResponse) {
  // The requester's halo slice is 2 x kDim; every float sent is nonzero,
  // so a well-formed bitmap sets its first rows x cols bits.
  struct Case {
    const char* name;
    uint32_t rows = 2, cols = kDim;  // header shape
    uint64_t nnz = 2 * kDim;         // header nonzero count
    uint64_t set = 2 * kDim;         // leading bitmap bits set
    bool stray = false;              // + the last bitmap byte's top bit
    uint64_t floats = 2 * kDim;      // floats in the byte planes
    size_t cut = 0;                  // bytes cut off the end
    size_t trailing = 0;             // bytes appended
    size_t halo_cols = kDim;         // requester's halo width
    bool needs_baseline = false;
    StatusCode code = StatusCode::kOk;
  };
  const uint64_t n = 2 * kDim;
  const Case cases[] = {
      {.name = "well-formed"},
      {.name = "truncated", .cut = 4, .code = StatusCode::kOutOfRange},
      {.name = "truncated bitmap",
       .cut = 4 * (9 + n) + 1,  // four raw planes and a bitmap byte
       .code = StatusCode::kOutOfRange},
      {.name = "nnz above rows x cols",
       .nnz = n + 1,
       .code = StatusCode::kInvalidArgument},
      {.name = "planes shorter than nnz",
       .floats = n - 1,
       .code = StatusCode::kInvalidArgument},
      {.name = "popcount != nnz",
       .nnz = n - 1,
       .floats = n - 1,
       .code = StatusCode::kInvalidArgument},
      {.name = "stray bits past rows x cols",
       .cols = kDim - 1,
       .nnz = n - 2,
       .set = n - 3,
       .stray = true,
       .floats = n - 2,
       .halo_cols = kDim - 1,
       .code = StatusCode::kInvalidArgument},
      {.name = "trailing bytes",
       .trailing = 4,
       .code = StatusCode::kInvalidArgument},
      {.name = "wrong rows",
       .rows = 3,
       .nnz = 3 * kDim,
       .set = 3 * kDim,
       .floats = 3 * kDim,
       .code = StatusCode::kInvalidArgument},
      {.name = "wrong cols",
       .cols = kDim + 1,
       .nnz = n + 2,
       .set = n + 2,
       .floats = n + 2,
       .code = StatusCode::kInvalidArgument},
      {.name = "width change",
       .cols = 2 * kDim,
       .nnz = 2 * n,
       .set = 2 * n,
       .floats = 2 * n,
       .halo_cols = 2 * kDim,
       .needs_baseline = true,
       .code = StatusCode::kInvalidArgument},
  };
  for (const Case& c : cases) {
    std::vector<uint8_t> map((static_cast<uint64_t>(c.rows) * c.cols + 7) /
                             8);
    for (uint64_t i = 0; i < c.set; ++i) map[i / 8] |= 1u << (i % 8);
    if (c.stray) map.back() |= 0x80;
    std::vector<float> floats;
    for (uint64_t i = 0; i < c.floats; ++i) {
      floats.push_back(0.5f + static_cast<float>(i));
    }
    std::vector<uint8_t> response = {0};  // kTrend
    const std::vector<uint8_t> payload =
        test::AssembleTrendPayload(c.rows, c.cols, c.nnz, map, floats,
                                   /*raw=*/true);
    response.insert(response.end(), payload.begin(), payload.end());
    response.resize(response.size() + c.trailing);
    response.resize(response.size() - c.cut);
    for (const bool baseline : {false, true}) {
      if (c.needs_baseline && !baseline) continue;
      SCOPED_TRACE(testing::Message() << c.name << " baseline=" << baseline);
      const Status status =
          ExchangeHandBuiltTrendResponse(response, c.halo_cols, baseline);
      EXPECT_EQ(status.code(), c.code) << status;
    }
  }
}

// Golden trend responses, then truncations and single bit flips of them:
// each must be rejected before a halo or baseline row is written. A flip in
// a raw plane's data is a well-formed payload carrying another value, so
// those bytes are left out. One golden ships every block raw and is checked
// with and without an existing baseline: every cut, and every bit of its
// header, its bitmap block and its planes' tags and lengths. The other is
// wide enough that its bitmap and top plane code, and is checked at the
// first trend epoch (no baseline has its width) on a stride of cuts and
// flips; WireUtilTest.NonzeroRowsMutationsAreRejected and
// CodedBlockTest.BlockMutationsAreRejected mutate the coded layout
// exhaustively.
TEST(ExchangeTest, ReqEcTrendPayloadMutationsAreRejected) {
  Matrix narrow(2, kDim);
  for (size_t i = 0; i < narrow.size(); ++i) {
    narrow.data()[i] = i % 3 == 0 ? 0.0f : 0.5f + static_cast<float>(i);
  }
  constexpr size_t kWide = 1024;
  Matrix wide(2, kWide);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < kWide; ++c) {
      if ((r + c / 64) % 2 == 1) {
        wide.At(r, c) = 1.0f + static_cast<float>(c % 97) / 97.0f;
      }
    }
  }
  struct Golden {
    const Matrix* m;
    bool coded;
  };
  for (const Golden& g : {Golden{&narrow, false}, Golden{&wide, true}}) {
    SCOPED_TRACE(testing::Message() << "coded=" << g.coded);
    const size_t cols = g.m->cols();
    std::vector<uint8_t> golden;
    ByteWriter w(&golden);
    w.PutU8(0);  // kTrend
    EncodeNonzeroRows(*g.m, {0, 1}, &w);
    const std::vector<test::BlockExtent> blocks =
        test::TrendBlockExtents(golden, 1);
    ASSERT_EQ(blocks.back().end, golden.size());
    const uint8_t tag = g.coded ? test::kCodedBlockTag : test::kRawBlockTag;
    EXPECT_EQ(blocks[0].tag, tag) << "bitmap";
    EXPECT_EQ(blocks[4].tag, tag) << "top plane";
    const auto in_raw_plane = [&](size_t byte) {
      for (size_t b = 1; b < test::kTrendBlocks; ++b) {
        if (blocks[b].tag == test::kRawBlockTag &&
            byte >= blocks[b].at + test::kRawBlockHeader &&
            byte < blocks[b].end) {
          return true;
        }
      }
      return false;
    };
    std::vector<size_t> cuts, flips;
    for (size_t len = 1; len < golden.size(); len += g.coded ? 128 : 1) {
      cuts.push_back(len);
    }
    for (size_t byte = 1; byte < golden.size(); ++byte) {
      if (in_raw_plane(byte)) continue;
      if (!g.coded) {
        for (size_t b = 0; b < 8; ++b) flips.push_back(8 * byte + b);
      } else if (byte % 16 == 0) {
        flips.push_back(8 * byte + byte % 8);
      }
    }
    const std::vector<bool> baselines =
        g.coded ? std::vector<bool>{false} : std::vector<bool>{false, true};
    for (const bool baseline : baselines) {
      SCOPED_TRACE(testing::Message() << "baseline=" << baseline);
      ASSERT_TRUE(
          ExchangeHandBuiltTrendResponse(golden, cols, baseline).ok());
      for (size_t len : cuts) {
        const std::vector<uint8_t> cut(golden.begin(), golden.begin() + len);
        EXPECT_FALSE(ExchangeHandBuiltTrendResponse(cut, cols, baseline).ok())
            << "truncated to " << len << " bytes";
      }
      for (size_t bit : flips) {
        std::vector<uint8_t> flipped = golden;
        flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(
            ExchangeHandBuiltTrendResponse(flipped, cols, baseline).ok())
            << "bit " << bit << " flipped";
      }
    }
  }
}

/// The two rows worker 0 receives from worker 1, kDim wide.
Matrix HandBuiltRows() {
  Matrix m(2, kDim);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = i % 3 == 0 ? 0.0f : 0.5f + static_cast<float>(i);
  }
  return m;
}

std::vector<uint8_t> RawRowsPayload() {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  EncodeMatrix(HandBuiltRows(), &w);
  return buf;
}

/// A quantized payload, after `kind` (a ReqEC response kind) if given.
std::vector<uint8_t> QuantizedRowsPayload(int kind = -1) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  if (kind >= 0) w.PutU8(static_cast<uint8_t>(kind));
  auto q = compress::Quantize(HandBuiltRows(),
                              {4, compress::BucketValueMode::kMidpoint});
  EXPECT_TRUE(q.ok());
  q->AppendTo(&w);
  return buf;
}

// Every decode site takes its payload whole: one byte more than a
// well-formed payload is refused before any halo row is written, in every
// mode. So is a selected response in the old format, whose trailing float
// carried the pdt share back to the requester.
TEST(ExchangeTest, EveryHaloPayloadIsConsumedExactly) {
  ExchangeConfig config;
  config.trend_period = 4;  // ReqEC: cold start 0-2, trend 3, selected 4
  ExchangeConfig element = config;
  element.selector = SelectorGranularity::kElement;
  std::vector<uint8_t> delayed;
  {
    ByteWriter w(&delayed);
    w.PutU32Vector({0, 1});
    EncodeMatrix(HandBuiltRows(), &w);
  }
  std::vector<uint8_t> trend = {0};  // kTrend
  {
    ByteWriter w(&trend);
    EncodeNonzeroRows(HandBuiltRows(), {0, 1}, &w);
  }
  struct Case {
    const char* name;
    RowMode mode;
    const ExchangeConfig* config;
    uint32_t epoch;
    std::vector<uint8_t> golden;
  };
  const Case cases[] = {
      {"fp_exact", kRowModes[0], &config, 0, RawRowsPayload()},
      {"fp_cp", kRowModes[1], &config, 0, QuantizedRowsPayload()},
      {"bp_exact", kRowModes[2], &config, 0, RawRowsPayload()},
      {"bp_cp", kRowModes[3], &config, 0, QuantizedRowsPayload()},
      {"bp_resec", kRowModes[4], &config, 0, QuantizedRowsPayload()},
      {"fp_delayed",
       {"fp_delayed", true, FpMode::kDelayed, BpMode::kExact},
       &config,
       0,
       delayed},
      {"reqec_cold_start", kReqEcMode, &config, 0, QuantizedRowsPayload(2)},
      {"reqec_trend", kReqEcMode, &config, 3, trend},
      {"reqec_vertex", kReqEcMode, &config, 4,
       SelectedResponse(false, 1, kDim)},
      {"reqec_element", kReqEcMode, &element, 4,
       SelectedResponse(true, 1, 2 * kDim)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const HandBuilt good =
        ExchangeHandBuiltPayload(c.mode, *c.config, c.epoch, c.golden);
    ASSERT_TRUE(good.status.ok()) << good.status;
    EXPECT_FALSE(good.halo_kept);
    std::vector<std::vector<uint8_t>> longer(1, c.golden);
    longer[0].push_back(0);
    if (c.mode.fp_mode == FpMode::kReqEc && c.epoch == 4) {
      longer.push_back(c.golden);
      ByteWriter(&longer.back()).PutF32(0.5f);
    }
    for (const std::vector<uint8_t>& payload : longer) {
      SCOPED_TRACE(testing::Message()
                   << payload.size() - c.golden.size() << " bytes more");
      const HandBuilt bad =
          ExchangeHandBuiltPayload(c.mode, *c.config, c.epoch, payload);
      EXPECT_EQ(bad.status.code(), StatusCode::kInvalidArgument) << bad.status;
      EXPECT_TRUE(bad.halo_kept);
      EXPECT_TRUE(bad.baseline_kept);
    }
  }
}

// Golden selected responses (vertex and element), then every truncation
// and every single-bit flip of them. Each is refused with the halo and the
// requester baselines as they were, or decodes. Only a flip in a byte that
// carries no redundancy may decode: the raw id words, the bucket floats,
// and a selector pick that turns cps into avg (both ship the unit). The
// header, the selector's other bits and padding, and the blocks' tags and
// lengths are all checked.
TEST(ExchangeTest, ReqEcSelectedPayloadMutationsAreRejected) {
  for (const bool element : {false, true}) {
    SCOPED_TRACE(element ? "element" : "vertex");
    ExchangeConfig config;
    config.trend_period = 4;  // epoch 3 sets the baseline, epoch 4 selects
    config.selector =
        element ? SelectorGranularity::kElement : SelectorGranularity::kVertex;
    const std::vector<uint8_t> golden =
        SelectedResponse(element, 1, element ? 2 * kDim : kDim);
    // kind, bits, u64 n, then the selector's raw block (tag, u64 length,
    // one word), then the subset: u32 rows, u32 cols, bits, implicit, the
    // two bucket floats and the ids' raw block (tag, u64 length, words).
    const size_t slt_tag = 1 + 1 + 8;
    const size_t slt_word = slt_tag + 1 + 8;
    const size_t floats = slt_word + 4 + 4 + 4 + 1 + 1;
    const size_t ids_tag = floats + 2 * sizeof(float);
    const size_t ids_words = ids_tag + 1 + 8;
    ASSERT_EQ(golden[slt_tag], test::kRawBlockTag);
    ASSERT_EQ(golden[ids_tag], test::kRawBlockTag);
    ASSERT_LT(ids_words, golden.size());
    const uint64_t picks = element ? 2 * kDim : 2;
    const auto may_decode = [&](size_t bit) {
      const size_t byte = bit / 8;
      if (byte >= ids_words || (byte >= floats && byte < ids_tag)) {
        return true;
      }
      if (byte < slt_word || byte >= slt_word + 4) return false;
      const size_t at = bit - 8 * slt_word;  // bit of the selector word
      if (at >= 2 * picks || at % 2 == 0) return false;
      uint32_t word = 0;
      std::memcpy(&word, golden.data() + slt_word, sizeof(word));
      return (word >> (at - 1) & 3u) == kCps;  // cps -> avg
    };
    {
      const HandBuilt good =
          ExchangeHandBuiltPayload(kReqEcMode, config, 4, golden);
      ASSERT_TRUE(good.status.ok()) << good.status;
    }
    for (size_t len = 0; len < golden.size(); ++len) {
      const std::vector<uint8_t> cut(golden.begin(), golden.begin() + len);
      const HandBuilt r = ExchangeHandBuiltPayload(kReqEcMode, config, 4, cut);
      EXPECT_FALSE(r.status.ok()) << "truncated to " << len << " bytes";
      EXPECT_TRUE(r.halo_kept && r.baseline_kept) << "truncated to " << len;
    }
    size_t decoded = 0;
    for (size_t bit = 0; bit < 8 * golden.size(); ++bit) {
      std::vector<uint8_t> flipped = golden;
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      const HandBuilt r =
          ExchangeHandBuiltPayload(kReqEcMode, config, 4, flipped);
      if (r.status.ok()) {
        ++decoded;
        EXPECT_TRUE(may_decode(bit)) << "bit " << bit << " flipped decodes";
        continue;
      }
      EXPECT_TRUE(r.halo_kept && r.baseline_kept) << "bit " << bit;
    }
    EXPECT_GT(decoded, 0u);
  }
}

TEST(ExchangeTest, ModeNamesAreStable) {
  EXPECT_STREQ(FpModeName(FpMode::kExact), "Non-cp");
  EXPECT_STREQ(FpModeName(FpMode::kReqEc), "ReqEC-FP");
  EXPECT_STREQ(BpModeName(BpMode::kResEc), "ResEC-BP");
}

}  // namespace
}  // namespace ecg::core
