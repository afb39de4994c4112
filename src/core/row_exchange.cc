#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/stats.h"
#include "core/exchange.h"
#include "core/wire_util.h"

namespace ecg::core {
namespace {

using compress::QuantizedMatrix;
using compress::QuantizerOptions;
using tensor::Matrix;

/// Every mode that ships the whole send set as rows each epoch, in either
/// direction: raw float32 rows (Non-cp, `bits` = kRawBits) or B-bit bucket
/// quantization with getMaxMin bounds (Cp-B, Algorithm 6 lines 4-5).
/// With `feedback` it is the paper's ResEC-BP (Algorithms 5-6,
/// Eqs. 11-12): the sender keeps the per-vertex quantization residual δ
/// of the previous epoch and folds it into the next epoch's message
/// before compressing:
///   G_cpt^t = G^t + δ^{t-1};  M^t = C(G_cpt^t);  δ^t = G_cpt^t − M^t.
/// Widths are the sender's, per (layer, peer): the quantized wire format
/// is self-describing, so the receiver decodes whatever width each message
/// carries and no handshake is needed. Without feedback the residuals and
/// the width table have no layers, so the exchanger is stateless and its
/// checkpoint and elastic state are empty.
class RowExchanger : public HaloExchanger {
 public:
  // Feedback state is indexed directly by layer id (BP exchanges layers
  // 2..L inclusive).
  RowExchanger(const HaloDirection& dir, int bits, bool feedback,
               const ExchangeConfig& config, uint16_t num_layers,
               const WorkerPlan& plan)
      : HaloExchanger(dir),
        config_(config),
        bits_(bits),
        feedback_(feedback),
        delta_(feedback ? num_layers + 1 : 0,
               std::vector<Matrix>(plan.send_rows.size())),
        widths_(feedback ? num_layers + 1 : 0, plan.send_rows.size(), bits,
                config.bit_budget, "bitalloc.bp_bits") {}

  Status Start(dist::WorkerContext* ctx, const WorkerPlan& plan,
               uint32_t epoch, uint16_t layer,
               const Matrix& owned) override {
    ECG_CHECK(!feedback_ || layer < delta_.size())
        << "ResEC layer out of range";
    // Each peer's residual is disjoint, so the whole encode fans out in
    // parallel.
    ECG_RETURN_IF_ERROR(FanOut(
        ctx, plan, direction(), epoch, layer, owned.cols(),
        [&](uint32_t p, ByteWriter* w, QuantizedMatrix* q) -> Status {
          const std::vector<uint32_t>& rows = plan.send_rows[p];
          if (bits_ == kRawBits) {
            EncodeMatrix(tensor::GatherRows(owned, rows), w);
            return Status::OK();
          }
          const QuantizerOptions qopts{BitsTowards(layer, p),
                                       config_.value_mode};
          if (feedback_) {
            ECG_RETURN_IF_ERROR(
                FoldAndQuantize(ctx, epoch, layer, p, owned, rows, qopts, q));
          } else {
            // Read straight out of `owned`: no GatherRows copy.
            ECG_ASSIGN_OR_RETURN(*q,
                                 compress::QuantizeRows(owned, rows, qopts));
          }
          q->AppendTo(w);
          return Status::OK();
        }));
    // Solve at the end of the epoch's last BP exchange (G^2: layer 1's
    // input gradient never crosses workers), from the feed this epoch
    // left behind, so this epoch's checkpoint already holds the widths
    // the next epoch sends with.
    if (feedback_ && config_.bit_alloc && layer == kLastBpLayer &&
        (epoch + 1) % config_.trend_period == 0) {
      widths_.Solve(epoch);
    }
    return Status::OK();
  }

  /// A lost message leaves its rows as they are (FanIn). Under feedback
  /// the sender saw the same permanent loss (same seeded schedule) and
  /// kept the whole G_cpt in its residual; skipping the gradient here is
  /// what makes the compensation bookkeeping balance.
  Status Finish(dist::WorkerContext* ctx, const WorkerPlan& plan,
                uint32_t epoch, uint16_t layer, Matrix* halo) override {
    return FanIn(ctx, plan, direction(), epoch, layer, config_.fault_fallback,
                 [&](uint32_t p, ByteReader* r) -> Status {
                   const std::vector<uint32_t>& rows = plan.recv_halo_rows[p];
                   if (bits_ == kRawBits) {
                     Matrix m;
                     ECG_RETURN_IF_ERROR(DecodeMatrix(r, &m));
                     ECG_RETURN_IF_ERROR(CheckConsumed(*r, "raw rows"));
                     return AssignRows(m, rows, halo);
                   }
                   QuantizedMatrix q;
                   ECG_RETURN_IF_ERROR(QuantizedMatrix::ParseFrom(
                       r, {rows.size(), halo->cols()}, &q));
                   ECG_RETURN_IF_ERROR(CheckConsumed(*r, "quantized rows"));
                   return compress::DequantizeInto(q, rows, halo);
                 });
  }

  int BitsTowards(uint16_t layer, uint32_t peer) const override {
    return feedback_ ? widths_.at(layer, peer) : bits_;
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

  /// Start checks each restored residual's shape before folding it.
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

  /// The feedback send of group (layer, peer): δ := G_cpt = G + δ^{t-1} is
  /// folded in place while the rows are gathered and quantized (one pass),
  /// then δ^t = G_cpt − C(G_cpt) (Eq. 11), or the whole G_cpt when the
  /// message is permanently lost.
  Status FoldAndQuantize(dist::WorkerContext* ctx, uint32_t epoch,
                         uint16_t layer, uint32_t peer, const Matrix& owned,
                         const std::vector<uint32_t>& rows,
                         const QuantizerOptions& qopts, QuantizedMatrix* q) {
    // A residual comes from the last epoch, a checkpoint or an elastic
    // import. Only an empty one is the cold start δ^{-1} = 0; any other
    // must cover the send set at the gradient's width.
    Matrix& delta = delta_[layer][peer];
    if (delta.empty()) {
      delta.Reset(rows.size(), owned.cols());
    } else if (delta.rows() != rows.size() || delta.cols() != owned.cols()) {
      return Status::InvalidArgument(
          "ResEC residual toward peer " + std::to_string(peer) + " is " +
          std::to_string(delta.rows()) + "x" + std::to_string(delta.cols()) +
          " for " + std::to_string(rows.size()) + " send rows of width " +
          std::to_string(owned.cols()));
    }
    ECG_ASSIGN_OR_RETURN(
        *q, compress::GatherQuantizeRows(owned, rows, &delta, qopts, &delta));
    dist::FaultInjector* injector = ctx->fault_injector();
    const uint64_t tag =
        dist::MessageHub::MakeTag(epoch, layer, direction().tag_kind);
    if (config_.fault_fallback && injector != nullptr &&
        injector->PermanentlyLost(ctx->worker_id(), peer, tag)) {
      // The receiver will exhaust its retries and get nothing, i.e. the
      // effective transmitted message is 0 — so the residual is the entire
      // compensated gradient: δ^t = G_cpt (Eqs. 11-12 fold the whole loss
      // into the next epoch's message).
      injector->counters().degraded_resec.fetch_add(
          1, std::memory_order_relaxed);
      obs::RecordStat("fault.degraded_resec", 1.0, epoch, layer,
                      static_cast<int32_t>(peer));
    } else {
      // Decoded through the LUT straight into the subtraction.
      ECG_RETURN_IF_ERROR(compress::SubtractDequantized(*q, &delta));
    }
    if (config_.bit_alloc) {
      // Solver feed: the residual pressure left after compression joins
      // the range term — a group whose residual keeps growing bids for
      // more bits.
      widths_.Feed(layer, peer, *q, delta.SquaredNorm());
    }
    if (obs::StatsEnabled()) {
      // ||δ^t||₂: the error-feedback state the next epoch will fold back
      // in (Theorem 1's bounded-residual premise).
      obs::RecordStat("resec.residual_l2", std::sqrt(delta.SquaredNorm()),
                      epoch, layer, static_cast<int32_t>(peer));
    }
    return Status::OK();
  }

  const ExchangeConfig config_;
  const int bits_;
  const bool feedback_;
  std::vector<std::vector<Matrix>> delta_;  // [layer][peer]
  WidthTable widths_;
};

}  // namespace

std::unique_ptr<HaloExchanger> MakeRowExchanger(const HaloDirection& dir,
                                                int bits, bool feedback,
                                                const ExchangeConfig& config,
                                                uint16_t num_layers,
                                                const WorkerPlan& plan) {
  return std::make_unique<RowExchanger>(dir, bits, feedback, config,
                                        num_layers, plan);
}

std::unique_ptr<HaloExchanger> MakeBpExchanger(BpMode mode,
                                               const ExchangeConfig& config,
                                               uint16_t num_layers,
                                               const WorkerPlan& plan) {
  return MakeRowExchanger(kBpData,
                          mode == BpMode::kExact ? kRawBits : config.bp_bits,
                          /*feedback=*/mode == BpMode::kResEc, config,
                          num_layers, plan);
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
