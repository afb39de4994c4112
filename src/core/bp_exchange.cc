#include <cmath>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/trace.h"
#include "core/exchange.h"
#include "core/wire_util.h"
#include "tensor/ops.h"

namespace ecg::core {
namespace {

using compress::QuantizedMatrix;
using compress::QuantizerOptions;
using dist::MessageHub;
using tensor::Matrix;

/// Receive side shared by every BP exchanger: fan in each active peer's
/// gradient rows — raw float32 or `quantized` — and decode them into
/// g_halo.
Status FinishBp(dist::WorkerContext* ctx, const WorkerPlan& plan,
                uint32_t epoch, uint16_t layer, bool allow_loss,
                bool quantized, Matrix* g_halo) {
  return FanIn(
      ctx, plan, kBpData, epoch, layer, allow_loss,
      [&](uint32_t p, ByteReader* r) {
        return DecodePlainRows(r, quantized, plan.recv_halo_rows[p], g_halo);
      },
      [&](uint32_t p) {
        // The gradient halo rows from `p` never arrived, so they stay zero
        // this epoch (g_halo is reset every epoch) — the contribution is
        // skipped. Under ResEC the sender detected the same permanent loss
        // (same seeded schedule) and kept the full G_cpt in its residual;
        // skipping here is what makes the compensation bookkeeping
        // balance.
        obs::RecordStat("fault.degraded_skip", 1.0, epoch, layer,
                        static_cast<int32_t>(p));
        return Status::OK();
      });
}

/// Non-cp (raw float32 gradient rows) and Cp-bp-B (quantized with
/// getMaxMin bounds, Algorithm 6 lines 4-5, no compensation).
class PlainBpExchanger : public BpExchanger {
 public:
  PlainBpExchanger(const ExchangeConfig& config, bool quantized)
      : config_(config), quantized_(quantized) {}

  Status Start(dist::WorkerContext* ctx, const WorkerPlan& plan,
               uint32_t epoch, uint16_t layer,
               const Matrix& g_owned) override {
    const QuantizerOptions qopts{config_.bp_bits, config_.value_mode};
    return FanOut(ctx, plan, kBpData, epoch, layer, g_owned.cols(),
                  [&](uint32_t p, ByteWriter* w, QuantizedMatrix* q) {
                    return EncodePlainRows(g_owned, plan.send_rows[p],
                                           quantized_, qopts, w, q);
                  });
  }

  Status Finish(dist::WorkerContext* ctx, const WorkerPlan& plan,
                uint32_t epoch, uint16_t layer, Matrix* g_halo) override {
    return FinishBp(ctx, plan, epoch, layer, config_.fault_fallback,
                    quantized_, g_halo);
  }

 private:
  const ExchangeConfig config_;
  const bool quantized_;
};

/// The paper's ResEC-BP (Algorithms 5-6, Eqs. 11-12): the responder keeps
/// the per-vertex quantization residual δ of the previous epoch and folds
/// it into the next epoch's message before compressing:
///   G_cpt^t = G^t + δ^{t-1};  M^t = C(G_cpt^t);  δ^t = G_cpt^t − M^t.
class ResEcBpExchanger : public BpExchanger {
 public:
  // BP exchanges layers 2..L inclusive; index directly by layer id.
  ResEcBpExchanger(const ExchangeConfig& config, uint16_t num_layers,
                   const WorkerPlan& plan)
      : config_(config),
        delta_(num_layers + 1, std::vector<Matrix>(plan.send_rows.size())),
        widths_(num_layers + 1, plan.send_rows.size(), config.bp_bits,
                config.bit_budget, "bitalloc.bp_bits") {}

  Status Start(dist::WorkerContext* ctx, const WorkerPlan& plan,
               uint32_t epoch, uint16_t layer,
               const Matrix& g_owned) override {
    ECG_CHECK(layer < delta_.size()) << "ResEC layer out of range";
    const uint64_t tag = MessageHub::MakeTag(epoch, layer, kTagBpData);
    dist::FaultInjector* injector = ctx->fault_injector();
    // Fused error-feedback-then-compress per peer (each peer's residual
    // state is disjoint, so the whole encode fans out in parallel).
    // Sender-side widths: ResEC owns both the gradient and the residual,
    // so unlike FP no handshake is needed — the quantized wire format is
    // self-describing and the receiver decodes whatever width each
    // message carries.
    ECG_RETURN_IF_ERROR(FanOut(
        ctx, plan, kBpData, epoch, layer, g_owned.cols(),
        [&](uint32_t p, ByteWriter* w, QuantizedMatrix* q) -> Status {
          QuantizerOptions qopts{widths_.at(layer, p), config_.value_mode};
          Matrix g_cpt = tensor::GatherRows(g_owned, plan.send_rows[p]);
          Matrix& delta = delta_[layer][p];
          if (delta.rows() != g_cpt.rows() || delta.cols() != g_cpt.cols()) {
            delta.Reset(g_cpt.rows(), g_cpt.cols());  // δ^{-1} = 0
          }
          tensor::AddInPlace(&g_cpt, delta);  // G + δ^{t-1}
          ECG_ASSIGN_OR_RETURN(*q, compress::Quantize(g_cpt, qopts));
          if (config_.fault_fallback && injector != nullptr &&
              injector->PermanentlyLost(ctx->worker_id(), p, tag)) {
            // The receiver will exhaust its retries and get nothing, i.e.
            // the effective transmitted message is 0 — so the residual is
            // the entire compensated gradient: δ^t = G_cpt (Eqs. 11-12
            // fold the whole loss into the next epoch's message).
            delta = std::move(g_cpt);
            injector->counters().degraded_resec.fetch_add(
                1, std::memory_order_relaxed);
            obs::RecordStat("fault.degraded_resec", 1.0, epoch, layer,
                            static_cast<int32_t>(p));
          } else {
            // δ^t = (G + δ^{t-1}) − C(G + δ^{t-1})  (Eq. 11), with the
            // decode fused into the subtraction.
            delta = std::move(g_cpt);
            ECG_RETURN_IF_ERROR(compress::SubtractDequantized(*q, &delta));
          }
          if (config_.bit_alloc) {
            // Solver feed: the residual pressure left after compression
            // joins the range term — a group whose residual keeps growing
            // bids for more bits.
            widths_.Feed(layer, p,
                         static_cast<double>(q->rows) *
                             static_cast<double>(q->cols),
                         *q, delta.SquaredNorm());
          }
          q->AppendTo(w);
          if (obs::StatsEnabled()) {
            // ||δ^t||₂: the error-feedback state the next epoch will fold
            // back in (Theorem 1's bounded-residual premise).
            obs::RecordStat("resec.residual_l2",
                            std::sqrt(delta.SquaredNorm()), epoch, layer,
                            static_cast<int32_t>(p));
          }
          return Status::OK();
        }));
    // Solve at the end of the epoch's last BP exchange (G^2: layer 1's
    // input gradient never crosses workers), from the feed this epoch
    // left behind, so this epoch's checkpoint already holds the widths
    // the next epoch sends with.
    if (config_.bit_alloc && layer == kLastBpLayer &&
        (epoch + 1) % config_.trend_period == 0) {
      widths_.Solve(epoch);
    }
    return Status::OK();
  }

  Status Finish(dist::WorkerContext* ctx, const WorkerPlan& plan,
                uint32_t epoch, uint16_t layer, Matrix* g_halo) override {
    return FinishBp(ctx, plan, epoch, layer, config_.fault_fallback,
                    /*quantized=*/true, g_halo);
  }

  /// Residual magnitude toward a peer (Theorem-1 validation hook).
  double DeltaSquaredNorm(uint16_t layer, uint32_t peer) const {
    return delta_[layer][peer].SquaredNorm();
  }

  /// Sender width for (layer, peer) under bit_alloc (bench/test hook).
  int BitsTowards(uint16_t layer, uint32_t peer) const override {
    return widths_.at(layer, peer);
  }

  /// Checkpoint format: every per-(layer, peer) residual matrix in index
  /// order — the error-feedback state Theorem 1's bound lives on — then
  /// the per-layer sender width vectors of the bit_alloc path.
  void SaveState(ByteWriter* w) const override {
    for (const auto& per_layer : delta_) {
      for (const Matrix& delta : per_layer) EncodeMatrix(delta, w);
    }
    widths_.Save(w);
  }

  Status LoadState(ByteReader* r) override {
    for (auto& per_layer : delta_) {
      for (Matrix& delta : per_layer) {
        ECG_RETURN_IF_ERROR(DecodeMatrix(r, &delta));
      }
    }
    return widths_.Load(r);
  }

  /// Re-keys the residuals by (layer, global vertex, receiver). Unlike the
  /// ReqEC trend rows there is no canonical copy to collapse to: a boundary
  /// vertex legitimately accumulates an independent residual per peer it
  /// ships gradients to, so the receiver worker stays in the key (and gets
  /// remapped across the transition).
  void ExportElasticState(const WorkerPlan& plan,
                          elastic::ElasticStateBag* bag) const override {
    for (size_t l = 0; l < delta_.size(); ++l) {
      for (uint32_t p = 0;
           p < delta_[l].size() && p < plan.send_rows.size(); ++p) {
        const Matrix& delta = delta_[l][p];
        const auto& rows = plan.send_rows[p];
        if (delta.rows() != rows.size() || delta.cols() == 0) continue;
        for (size_t i = 0; i < rows.size(); ++i) {
          const uint32_t gv = plan.owned[rows[i]];
          bag->bp_residual[std::make_tuple(static_cast<uint16_t>(l), gv,
                                           p)] =
              std::vector<float>(delta.Row(i), delta.Row(i) + delta.cols());
        }
      }
    }
    widths_.Export(plan, &bag->bp_group_bits);
  }

  /// Rebuilds each (layer, peer) residual matrix from the bag: rows found
  /// keep their residual, rows without an entry (vertices that became
  /// boundary through the repartition) start at δ = 0. A pair with no
  /// entries at all stays empty and lazily resets to zeros on first use —
  /// exactly the cold-start path.
  Status ImportElasticState(const WorkerPlan& plan,
                            const elastic::ElasticStateBag& bag) override {
    for (size_t l = 0; l < delta_.size(); ++l) {
      for (uint32_t p = 0;
           p < delta_[l].size() && p < plan.send_rows.size(); ++p) {
        const auto& rows = plan.send_rows[p];
        Matrix& delta = delta_[l][p];
        if (rows.empty()) {
          delta.Reset(0, 0);
          continue;
        }
        std::vector<const std::vector<float>*> found(rows.size(), nullptr);
        size_t cols = 0;
        size_t hits = 0;
        for (size_t i = 0; i < rows.size(); ++i) {
          auto it = bag.bp_residual.find(std::make_tuple(
              static_cast<uint16_t>(l), plan.owned[rows[i]], p));
          if (it == bag.bp_residual.end()) continue;
          if (cols == 0) cols = it->second.size();
          if (cols == 0 || it->second.size() != cols) continue;
          found[i] = &it->second;
          ++hits;
        }
        if (hits == 0) {
          delta.Reset(0, 0);
          continue;
        }
        delta.Reset(rows.size(), cols);
        for (size_t i = 0; i < rows.size(); ++i) {
          if (found[i] != nullptr) {
            std::copy(found[i]->begin(), found[i]->end(), delta.Row(i));
          }
        }
      }
    }
    widths_.Import(plan, bag.bp_group_bits);
    return Status::OK();
  }

 private:
  /// BP exchanges G^L down to G^2 in every epoch; G^2 closes the pass.
  static constexpr uint16_t kLastBpLayer = 2;

  const ExchangeConfig config_;
  std::vector<std::vector<Matrix>> delta_;  // [layer][peer]
  WidthTable widths_;
};

}  // namespace

std::unique_ptr<BpExchanger> MakeBpExchanger(BpMode mode,
                                             const ExchangeConfig& config,
                                             uint16_t num_layers,
                                             const WorkerPlan& plan) {
  switch (mode) {
    case BpMode::kExact:
      return std::make_unique<PlainBpExchanger>(config, /*quantized=*/false);
    case BpMode::kCompressed:
      return std::make_unique<PlainBpExchanger>(config, /*quantized=*/true);
    case BpMode::kResEc:
      return std::make_unique<ResEcBpExchanger>(config, num_layers, plan);
  }
  return nullptr;
}

const char* BpModeName(BpMode mode) {
  switch (mode) {
    case BpMode::kExact:
      return "Non-cp";
    case BpMode::kCompressed:
      return "Cp-bp";
    case BpMode::kResEc:
      return "ResEC-BP";
  }
  return "?";
}

}  // namespace ecg::core
