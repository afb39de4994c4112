#include <cmath>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/trace.h"
#include "compress/bit_alloc.h"
#include "core/exchange.h"
#include "core/wire_util.h"
#include "tensor/ops.h"

namespace ecg::core {
namespace {

using compress::QuantizedMatrix;
using compress::QuantizerOptions;
using dist::MessageHub;
using tensor::Matrix;

/// Per-peer payload buffers for the parallel encode/decode loops; indexed
/// by peer id, only active-peer slots are ever touched.
using PeerBuffers = std::vector<std::vector<uint8_t>>;

/// Books one BP degradation event on the receive side: the gradient halo
/// rows from `peer` never arrived, so they stay zero this epoch (g_halo is
/// reset every epoch) — the gradient contribution is simply skipped.
void CountBpSkipped(uint32_t epoch, uint16_t layer, uint32_t peer) {
  obs::RecordStat("fault.degraded_skip", 1.0, epoch, layer,
                  static_cast<int32_t>(peer));
}

void SendToActivePeers(dist::WorkerContext* ctx, const WorkerPlan& plan,
                       uint64_t tag, PeerBuffers* bufs) {
  for (uint32_t p = 0; p < ctx->num_workers(); ++p) {
    if (ActivePeer(plan, p)) ctx->Send(p, tag, std::move((*bufs)[p]));
  }
}

/// Send-side compression telemetry, keyed (epoch, layer, peer); raw is the
/// float32 weight of the gradient rows (the Non-cp baseline).
void RecordBpSendStats(uint32_t epoch, uint16_t layer, uint32_t peer,
                       size_t rows, size_t cols, size_t wire_bytes,
                       int bits) {
  const double raw = static_cast<double>(rows * cols * sizeof(float));
  obs::RecordStat("bp.raw_bytes", raw, epoch, layer,
                  static_cast<int32_t>(peer));
  obs::RecordStat("bp.wire_bytes", static_cast<double>(wire_bytes), epoch,
                  layer, static_cast<int32_t>(peer));
  if (wire_bytes > 0) {
    obs::RecordStat("bp.ratio", raw / static_cast<double>(wire_bytes),
                    epoch, layer, static_cast<int32_t>(peer));
  }
  obs::RecordStat("bp.bits", static_cast<double>(bits), epoch, layer,
                  static_cast<int32_t>(peer));
}

/// Receive side shared by every BP exchanger: fan in each active peer's
/// gradient rows — raw float32 or `quantized` — and decode them into
/// g_halo.
Status FinishBp(dist::WorkerContext* ctx, const WorkerPlan& plan,
                uint32_t epoch, uint16_t layer, bool allow_loss,
                bool quantized, Matrix* g_halo) {
  const uint64_t tag = MessageHub::MakeTag(epoch, layer, kTagBpData);
  ECG_ASSIGN_OR_RETURN(PeerRecvResult in,
                       TryRecvFromActivePeers(ctx, plan, tag, allow_loss));
  return ForEachActivePeerParallel(
      plan, ctx->num_workers(), [&](uint32_t p) -> Status {
        ECG_TRACE_SCOPE_DETAIL("bp_decode", ctx->worker_id(), layer);
        if (in.lost[p]) {
          // Under ResEC the sender detected the same permanent loss (same
          // seeded schedule) and kept the full G_cpt in its residual;
          // skipping here is what makes the compensation bookkeeping
          // balance.
          CountBpSkipped(epoch, layer, p);
          return Status::OK();
        }
        ByteReader r(in.bufs[p]);
        if (!quantized) {
          Matrix rows;
          ECG_RETURN_IF_ERROR(DecodeMatrix(&r, &rows));
          return AssignRows(rows, plan.recv_halo_rows[p], g_halo);
        }
        QuantizedMatrix q;
        ECG_RETURN_IF_ERROR(QuantizedMatrix::ParseFrom(&r, &q));
        return compress::DequantizeInto(q, plan.recv_halo_rows[p], g_halo);
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
    const uint64_t tag = MessageHub::MakeTag(epoch, layer, kTagBpData);
    QuantizerOptions qopts{config_.bp_bits, config_.value_mode};
    PeerBuffers out(ctx->num_workers());
    ECG_RETURN_IF_ERROR(ForEachActivePeerParallel(
        plan, ctx->num_workers(), [&](uint32_t p) -> Status {
          ECG_TRACE_SCOPE_DETAIL("bp_encode", ctx->worker_id(), layer);
          ByteWriter w(&out[p]);
          if (!quantized_) {
            const Matrix rows =
                tensor::GatherRows(g_owned, plan.send_rows[p]);
            EncodeMatrix(rows, &w);
            if (obs::StatsEnabled()) {
              RecordBpSendStats(epoch, layer, p, rows.rows(), rows.cols(),
                                out[p].size(), /*bits=*/32);
            }
            return Status::OK();
          }
          // Fused: quantize each peer's gradient rows straight out of
          // g_owned, all peers in parallel.
          ECG_ASSIGN_OR_RETURN(
              QuantizedMatrix q,
              compress::QuantizeRows(g_owned, plan.send_rows[p], qopts));
          q.AppendTo(&w);
          if (obs::StatsEnabled()) {
            RecordBpSendStats(epoch, layer, p, q.rows, q.cols,
                              out[p].size(), q.bits);
            ECG_ASSIGN_OR_RETURN(const double sat,
                                 compress::BucketSaturationRate(q));
            obs::RecordStat("bp.saturation", sat, epoch, layer,
                            static_cast<int32_t>(p));
          }
          return Status::OK();
        }));
    SendToActivePeers(ctx, plan, tag, &out);
    return Status::OK();
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
  ResEcBpExchanger(const ExchangeConfig& config, uint16_t num_layers,
                   const WorkerPlan& plan)
      : config_(config) {
    // BP exchanges layers 2..L inclusive; index directly by layer id.
    delta_.resize(static_cast<size_t>(num_layers) + 1);
    bp_bits_.resize(delta_.size());
    feed_.resize(delta_.size());
    for (size_t l = 0; l < delta_.size(); ++l) {
      delta_[l].resize(plan.send_rows.size());
      bp_bits_[l].assign(plan.send_rows.size(), config.bp_bits);
      feed_[l].resize(plan.send_rows.size());
    }
  }

  Status Start(dist::WorkerContext* ctx, const WorkerPlan& plan,
               uint32_t epoch, uint16_t layer,
               const Matrix& g_owned) override {
    ECG_CHECK(layer < delta_.size()) << "ResEC layer out of range";
    const uint64_t tag = MessageHub::MakeTag(epoch, layer, kTagBpData);
    // Sender-side bit allocation: ResEC owns both the gradient and the
    // residual, so unlike FP no handshake is needed — the quantized wire
    // format is self-describing and the receiver decodes whatever width
    // each message carries. Solve once per epoch (on the first exchanged
    // BP layer) from the previous epoch's feed.
    if (config_.bit_alloc && epoch > 0 &&
        epoch % config_.trend_period == 0 &&
        static_cast<int64_t>(epoch) != last_solve_epoch_) {
      SolveBits(plan, epoch);
      last_solve_epoch_ = epoch;
    }
    dist::FaultInjector* injector = ctx->fault_injector();
    // Fused error-feedback-then-compress per peer (each peer's residual
    // state is disjoint, so the whole encode fans out in parallel).
    PeerBuffers out(ctx->num_workers());
    ECG_RETURN_IF_ERROR(ForEachActivePeerParallel(
        plan, ctx->num_workers(), [&](uint32_t p) -> Status {
          ECG_TRACE_SCOPE_DETAIL("bp_encode", ctx->worker_id(), layer);
          QuantizerOptions qopts{config_.bit_alloc ? bp_bits_[layer][p]
                                                  : config_.bp_bits,
                                 config_.value_mode};
          Matrix g_cpt = tensor::GatherRows(g_owned, plan.send_rows[p]);
          Matrix& delta = delta_[layer][p];
          if (delta.rows() != g_cpt.rows() || delta.cols() != g_cpt.cols()) {
            delta.Reset(g_cpt.rows(), g_cpt.cols());  // δ^{-1} = 0
          }
          tensor::AddInPlace(&g_cpt, delta);  // G + δ^{t-1}
          ECG_ASSIGN_OR_RETURN(QuantizedMatrix q,
                               compress::Quantize(g_cpt, qopts));
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
            ECG_RETURN_IF_ERROR(compress::SubtractDequantized(q, &delta));
          }
          if (config_.bit_alloc) {
            // Solver feed: this group's element count, the quantizer range
            // it needed, and the residual pressure left after compression
            // — a group whose residual keeps growing bids for more bits.
            const double elements =
                static_cast<double>(q.rows) * static_cast<double>(q.cols);
            const double range = static_cast<double>(q.bucket_width) *
                                 std::exp2(q.bits);
            GroupFeed& f = feed_[layer][p];
            f.elements = elements;
            f.sensitivity =
                elements * range * range + delta.SquaredNorm();
            f.valid = elements > 0.0 && range > 0.0;
          }
          ByteWriter w(&out[p]);
          q.AppendTo(&w);
          if (obs::StatsEnabled()) {
            RecordBpSendStats(epoch, layer, p, q.rows, q.cols,
                              out[p].size(), q.bits);
            // ||δ^t||₂: the error-feedback state the next epoch will fold
            // back in (Theorem 1's bounded-residual premise).
            obs::RecordStat("resec.residual_l2",
                            std::sqrt(delta.SquaredNorm()), epoch, layer,
                            static_cast<int32_t>(p));
            ECG_ASSIGN_OR_RETURN(const double sat,
                                 compress::BucketSaturationRate(q));
            obs::RecordStat("bp.saturation", sat, epoch, layer,
                            static_cast<int32_t>(p));
          }
          return Status::OK();
        }));
    SendToActivePeers(ctx, plan, tag, &out);
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
    return bp_bits_[layer][peer];
  }

  /// Checkpoint format: every per-(layer, peer) residual matrix in index
  /// order — the error-feedback state Theorem 1's bound lives on — then
  /// the per-layer sender width vectors of the bit_alloc path.
  void SaveState(ByteWriter* w) const override {
    for (const auto& per_layer : delta_) {
      for (const Matrix& delta : per_layer) EncodeMatrix(delta, w);
    }
    for (const auto& per_layer : bp_bits_) {
      std::vector<uint32_t> bits(per_layer.begin(), per_layer.end());
      w->PutU32Vector(bits);
    }
  }

  Status LoadState(ByteReader* r) override {
    for (auto& per_layer : delta_) {
      for (Matrix& delta : per_layer) {
        ECG_RETURN_IF_ERROR(DecodeMatrix(r, &delta));
      }
    }
    for (auto& per_layer : bp_bits_) {
      std::vector<uint32_t> bits;
      ECG_RETURN_IF_ERROR(r->GetU32Vector(&bits));
      if (bits.size() != per_layer.size()) {
        return Status::InvalidArgument(
            "ResEC checkpoint bit widths: expected " +
            std::to_string(per_layer.size()) + " peers, got " +
            std::to_string(bits.size()));
      }
      per_layer.assign(bits.begin(), bits.end());
    }
    return Status::OK();
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
    // Sender widths ride per (layer, sender, receiver) so the bit_alloc
    // assignment survives a repartition that keeps both link ends alive.
    for (size_t l = 0; l < bp_bits_.size(); ++l) {
      for (uint32_t p = 0;
           p < bp_bits_[l].size() && p < plan.send_rows.size(); ++p) {
        if (!ActivePeer(plan, p)) continue;
        bag->bp_group_bits[std::make_tuple(static_cast<uint16_t>(l),
                                           plan.worker_id, p)] =
            bp_bits_[l][p];
      }
    }
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
    for (size_t l = 0; l < bp_bits_.size(); ++l) {
      for (uint32_t p = 0; p < bp_bits_[l].size(); ++p) {
        auto it = bag.bp_group_bits.find(std::make_tuple(
            static_cast<uint16_t>(l), plan.worker_id, p));
        if (it != bag.bp_group_bits.end()) bp_bits_[l][p] = it->second;
      }
    }
    return Status::OK();
  }

 private:
  /// Last observed (elements, sensitivity) of one (layer, peer) group —
  /// see the bit_alloc block in Start().
  struct GroupFeed {
    double elements = 0.0;
    double sensitivity = 0.0;
    bool valid = false;
  };

  /// Greedy re-allocation of the BP traffic budget across every
  /// (layer, peer) group with a live feed (DESIGN.md §16).
  void SolveBits(const WorkerPlan& plan, uint32_t epoch) {
    std::vector<compress::BitAllocGroup> groups;
    std::vector<std::pair<size_t, uint32_t>> keys;
    for (size_t l = 0; l < feed_.size(); ++l) {
      for (uint32_t p = 0; p < feed_[l].size(); ++p) {
        if (!ActivePeer(plan, p) || !feed_[l][p].valid) continue;
        groups.push_back({feed_[l][p].elements, feed_[l][p].sensitivity});
        keys.emplace_back(l, p);
      }
    }
    if (groups.empty()) return;
    compress::BitAllocConfig bc;
    bc.budget_factor = config_.bit_budget;
    bc.reference_bits = config_.bp_bits;
    bc.max_bits = kBitTunerMaxBits;
    const std::vector<int> widths = compress::SolveBitAllocation(groups, bc);
    for (size_t i = 0; i < keys.size(); ++i) {
      bp_bits_[keys[i].first][keys[i].second] = widths[i];
      if (obs::StatsEnabled()) {
        obs::RecordStat("bitalloc.bp_bits", static_cast<double>(widths[i]),
                        epoch, static_cast<int32_t>(keys[i].first),
                        static_cast<int32_t>(keys[i].second));
      }
    }
  }

  const ExchangeConfig config_;
  std::vector<std::vector<Matrix>> delta_;      // [layer][peer]
  std::vector<std::vector<int>> bp_bits_;       // [layer][peer]
  std::vector<std::vector<GroupFeed>> feed_;    // [layer][peer]
  int64_t last_solve_epoch_ = -1;
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
