#include "core/exchange.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "common/bytes.h"
#include "core/halo.h"
#include "core/wire_util.h"
#include "dist/cluster.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "tensor/ops.h"

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
  auto value = [](uint32_t v, size_t c, uint32_t epoch) {
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

// ReqEC checkpoint and response decoding must be total: a blob or a
// baseline that does not fit the plan is an InvalidArgument, never an
// out-of-bounds read.

TEST(ExchangeTest, ReqEcLoadStateRejectsAShortProportionVector) {
  TwoWorkerFixture fx;
  auto ex = MakeFpExchanger(FpMode::kReqEc, {}, /*num_layers=*/2,
                            fx.plans[0]);
  std::vector<uint8_t> blob;
  ByteWriter w(&blob);
  ex->SaveState(&w);
  // The blob ends with the per-peer proportion vector (u64 length + one
  // float per worker); swap it for an empty one.
  const size_t tail = sizeof(uint64_t) + 2 * sizeof(float);
  ASSERT_GE(blob.size(), tail);
  blob.resize(blob.size() - tail);
  w.PutF32Vector({});
  ByteReader r(blob);
  const Status s = ex->LoadState(&r);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s;
}

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
  w.PutF32Vector(std::vector<float>(workers, 0.0f));
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

TEST(ExchangeTest, ModeNamesAreStable) {
  EXPECT_STREQ(FpModeName(FpMode::kExact), "Non-cp");
  EXPECT_STREQ(FpModeName(FpMode::kReqEc), "ReqEC-FP");
  EXPECT_STREQ(BpModeName(BpMode::kResEc), "ResEC-BP");
}

}  // namespace
}  // namespace ecg::core
