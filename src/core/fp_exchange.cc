#include <cmath>
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/bitpack.h"
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

/// Books one FP degradation event: the halo rows from `peer` could not be
/// delivered, so the requester kept its stale cached rows (stale=true) or
/// reconstructed the pdt prediction (stale=false).
void CountFpDegraded(dist::WorkerContext* ctx, uint32_t epoch,
                     uint16_t layer, uint32_t peer, bool stale) {
  dist::FaultInjector* injector = ctx->fault_injector();
  if (injector != nullptr) {
    auto& counter = stale ? injector->counters().degraded_stale
                          : injector->counters().degraded_pdt;
    counter.fetch_add(1, std::memory_order_relaxed);
  }
  obs::RecordStat(stale ? "fault.degraded_stale" : "fault.degraded_pdt",
                  1.0, epoch, layer, static_cast<int32_t>(peer));
}

/// ReqEC selector census: how many units (vertices or elements, depending
/// on the granularity) picked each candidate. Values 0/1/2 match the
/// Selection enum (cps/pdt/avg).
void RecordSelectorStats(const std::vector<uint32_t>& slt, uint32_t epoch,
                         uint16_t layer, uint32_t peer) {
  if (!obs::StatsEnabled()) return;
  size_t counts[3] = {0, 0, 0};
  for (uint32_t s : slt) {
    if (s < 3) ++counts[s];
  }
  static constexpr const char* kNames[3] = {"reqec.sel_cps",
                                            "reqec.sel_pdt",
                                            "reqec.sel_avg"};
  for (int i = 0; i < 3; ++i) {
    obs::RecordStat(kNames[i], static_cast<double>(counts[i]), epoch, layer,
                    static_cast<int32_t>(peer));
  }
}

/// Non-cp (raw float32 rows) and Cp-fp-B (bucket quantization, no
/// compensation): every epoch ships every send row in one wire format.
class PlainFpExchanger : public FpExchanger {
 public:
  PlainFpExchanger(const ExchangeConfig& config, bool quantized)
      : config_(config), quantized_(quantized) {}

  Status Start(dist::WorkerContext* ctx, const WorkerPlan& plan,
               uint32_t epoch, uint16_t layer,
               const Matrix& h_owned) override {
    const QuantizerOptions qopts{config_.fp_bits, config_.value_mode};
    return FanOut(ctx, plan, kFpData, epoch, layer, h_owned.cols(),
                  [&](uint32_t p, ByteWriter* w, QuantizedMatrix* q) {
                    return EncodePlainRows(h_owned, plan.send_rows[p],
                                           quantized_, qopts, w, q);
                  });
  }

  Status Finish(dist::WorkerContext* ctx, const WorkerPlan& plan,
                uint32_t epoch, uint16_t layer, Matrix* h_halo) override {
    return FanIn(
        ctx, plan, kFpData, epoch, layer, config_.fault_fallback,
        [&](uint32_t p, ByteReader* r) {
          return DecodePlainRows(r, quantized_, plan.recv_halo_rows[p],
                                 h_halo);
        },
        [&](uint32_t p) {
          // Lost halo update: keep the stale cached rows (h_halo persists
          // across epochs) — bounded staleness, not a crash.
          CountFpDegraded(ctx, epoch, layer, p, /*stale=*/true);
          return Status::OK();
        });
  }

  int BitsTowards(uint16_t, uint32_t) const override {
    return quantized_ ? config_.fp_bits : 32;
  }

 private:
  const ExchangeConfig config_;
  const bool quantized_;
};

/// DistGNN's delayed remote partial aggregation: per epoch only the rows
/// with index ≡ epoch (mod r) are refreshed (shipped exactly); the
/// requester keeps stale values for the rest. Epoch 0 ships everything so
/// the caches start populated.
class DelayedFpExchanger : public FpExchanger {
 public:
  explicit DelayedFpExchanger(const ExchangeConfig& config)
      : r_(std::max<uint32_t>(1, config.delay_rounds)),
        allow_loss_(config.fault_fallback) {}

  /// fp.raw_bytes counts the full send set, so fp.ratio shows the delayed
  /// refresh's savings over shipping everything.
  Status Start(dist::WorkerContext* ctx, const WorkerPlan& plan,
               uint32_t epoch, uint16_t layer,
               const Matrix& h_owned) override {
    return FanOut(
        ctx, plan, kFpData, epoch, layer, h_owned.cols(),
        [&](uint32_t p, ByteWriter* w, QuantizedMatrix*) -> Status {
          const auto& send_rows = plan.send_rows[p];
          std::vector<uint32_t> positions;  // positions within send list
          for (uint32_t i = 0; i < send_rows.size(); ++i) {
            if (epoch == 0 || i % r_ == epoch % r_) positions.push_back(i);
          }
          std::vector<uint32_t> local_rows;
          local_rows.reserve(positions.size());
          for (uint32_t i : positions) local_rows.push_back(send_rows[i]);
          w->PutU32Vector(positions);
          EncodeMatrix(tensor::GatherRows(h_owned, local_rows), w);
          return Status::OK();
        });
  }

  Status Finish(dist::WorkerContext* ctx, const WorkerPlan& plan,
                uint32_t epoch, uint16_t layer, Matrix* h_halo) override {
    return FanIn(
        ctx, plan, kFpData, epoch, layer, allow_loss_,
        [&](uint32_t p, ByteReader* r) -> Status {
          std::vector<uint32_t> positions;
          ECG_RETURN_IF_ERROR(r->GetU32Vector(&positions));
          Matrix rows;
          ECG_RETURN_IF_ERROR(DecodeMatrix(r, &rows));
          const auto& halo_rows = plan.recv_halo_rows[p];
          std::vector<uint32_t> targets;
          targets.reserve(positions.size());
          for (uint32_t i : positions) {
            if (i >= halo_rows.size()) {
              return Status::OutOfRange(
                  "delayed refresh position out of range");
            }
            targets.push_back(halo_rows[i]);
          }
          return AssignRows(rows, targets, h_halo);
        },
        [&](uint32_t p) {
          // Lost refresh: the whole halo slice stays one round staler —
          // the same degradation DistGNN's schedule already embraces.
          CountFpDegraded(ctx, epoch, layer, p, /*stale=*/true);
          return Status::OK();
        });
  }

 private:
  const uint32_t r_;
  const bool allow_loss_;
};

/// The paper's ReqEC-FP (Algorithms 3 and 4): trend snapshots every T_tr
/// epochs, three candidate approximations per vertex in between, 2-bit
/// selector array on the wire, and the adaptive Bit-Tuner.
class ReqEcFpExchanger : public FpExchanger {
 public:
  ReqEcFpExchanger(const ExchangeConfig& config, uint16_t num_layers,
                   const WorkerPlan& plan)
      : config_(config),
        num_layers_(num_layers),
        responder_(num_layers,
                   std::vector<TrendState>(plan.send_rows.size())),
        requester_(num_layers,
                   std::vector<TrendState>(plan.send_rows.size())),
        // One width per (layer, peer): the global Bit-Tuner keeps every
        // layer's entry in lock-step (wire-identical to a single per-peer
        // width), the bit_alloc solver diverges them.
        widths_(num_layers, plan.send_rows.size(), config.fp_bits,
                config.bit_budget, "bitalloc.fp_bits"),
        proportion_from_(plan.send_rows.size(), 0.0f) {
    ECG_CHECK(config.tuner_hi > config.tuner_lo)
        << "Bit-Tuner thresholds inverted (hi=" << config.tuner_hi
        << " <= lo=" << config.tuner_lo << ")";
  }

  Status Start(dist::WorkerContext* ctx, const WorkerPlan& plan,
               uint32_t epoch, uint16_t layer,
               const Matrix& h_owned) override {
    ECG_CHECK(layer < num_layers_) << "ReqEC layer out of range";
    const uint64_t req_tag = MessageHub::MakeTag(epoch, layer, kTagFpRequest);
    const uint64_t data_tag = MessageHub::MakeTag(epoch, layer, kTagFpData);
    const bool trend_epoch = (epoch + 1) % config_.trend_period == 0;
    // Eq. 7's (t mod T_tr + 1): epochs since the last trend snapshot.
    const uint32_t step = epoch % config_.trend_period + 1;

    // 1) Requests carry the bits the requester wants the responder to use
    //    (Algorithm 3 line 1 passes B with the RPC).
    for (uint32_t p = 0; p < ctx->num_workers(); ++p) {
      if (!ActivePeer(plan, p)) continue;
      std::vector<uint8_t> buf;
      ByteWriter w(&buf);
      w.PutU8(static_cast<uint8_t>(widths_.at(layer, p)));
      ctx->Send(p, req_tag, std::move(buf));
    }

    // 2) Respond (Algorithm 4). Requests are drained first, then every
    //    peer's response — candidate construction, selector, quantize —
    //    is built in parallel (the per-peer responder state is disjoint).
    //    A lost request degrades to the configured default bit width (the
    //    response carries its bits inline, so the requester still decodes).
    ECG_ASSIGN_OR_RETURN(PeerRecvResult reqs, TryRecvFromActivePeers(
                             ctx, plan, req_tag, config_.fault_fallback));
    dist::FaultInjector* injector = ctx->fault_injector();
    return FanOut(
        ctx, plan, kFpData, epoch, layer, h_owned.cols(),
        [&](uint32_t p, ByteWriter* w, QuantizedMatrix* q) -> Status {
          int peer_bits = config_.fp_bits;
          if (!reqs.lost[p]) {
            ByteReader rr(reqs.bufs[p]);
            uint8_t b = 0;
            ECG_RETURN_IF_ERROR(rr.GetU8(&b));
            peer_bits = b;
          }
          if (trend_epoch) {
            // Both ends evaluate the fault schedule, so the responder
            // knows — without any extra message — when its response can
            // never be delivered. It must then keep the old baseline: the
            // requester will keep predicting from the old one too.
            const bool deliverable =
                injector == nullptr ||
                !injector->PermanentlyLost(ctx->worker_id(), p, data_tag);
            BuildTrendResponse(plan, p, layer, deliverable, h_owned, w);
            return Status::OK();
          }
          // Quantize the send set straight out of h_owned — the gathered
          // truth matrix is only materialized on the paths that compare
          // candidates against it.
          const QuantizerOptions qopts{peer_bits, config_.value_mode};
          ECG_ASSIGN_OR_RETURN(
              *q, compress::QuantizeRows(h_owned, plan.send_rows[p], qopts));
          return BuildResponse(plan, p, epoch, layer, step, h_owned, *q, w);
        });
  }

  Status Finish(dist::WorkerContext* ctx, const WorkerPlan& plan,
                uint32_t epoch, uint16_t layer, Matrix* h_halo) override {
    ECG_CHECK(layer < num_layers_) << "ReqEC layer out of range";
    const uint32_t step = epoch % config_.trend_period + 1;

    // 3) Parse responses (Algorithm 3) — per-peer requester state and halo
    //    row ranges are disjoint, so peers decode in parallel too. A lost
    //    response degrades to the pdt candidate (Eq. 8: H_last + step·M_cr,
    //    reconstructible from requester state with zero wire bytes).
    ECG_RETURN_IF_ERROR(FanIn(
        ctx, plan, kFpData, epoch, layer, config_.fault_fallback,
        [&](uint32_t p, ByteReader* r) {
          return ParseResponse(plan, p, layer, step, r, h_halo);
        },
        [&](uint32_t p) {
          return DegradeLostResponse(ctx, plan, p, epoch, layer, step,
                                     h_halo);
        }));
    if (layer + 1 != num_layers_) return Status::OK();

    // 4) Bit-Tuner, once per epoch after the last exchanged FP layer
    //    (Algorithm 3 lines 13-18). All layers move in lock-step, so the
    //    wire behavior matches a single per-peer width. Growth saturates
    //    at kBitTunerMaxBits — the widest id the packed codecs encode —
    //    and shrink at 1.
    if (config_.adaptive_bits && !config_.bit_alloc) {
      for (uint32_t p = 0; p < ctx->num_workers(); ++p) {
        if (!ActivePeer(plan, p)) continue;
        const double prop = proportion_from_[p];
        int b = widths_.at(0, p);
        if (prop > config_.tuner_hi) {
          b = std::min(b * 2, kBitTunerMaxBits);
        } else if (prop < config_.tuner_lo && b > 1) {
          b /= 2;
        }
        widths_.SetPeer(p, b);
        if (obs::StatsEnabled()) {
          obs::RecordStat("reqec.tuner_bits", static_cast<double>(b), epoch,
                          /*layer=*/-1, static_cast<int32_t>(p));
          obs::RecordStat("reqec.predicted_frac", prop, epoch,
                          /*layer=*/-1, static_cast<int32_t>(p));
        }
      }
    }

    // 5) Bit-allocation solve at the end of the epoch before each trend
    //    snapshot, from the feed this epoch's responses left behind: the
    //    new widths are in this epoch's checkpoint, ride out with the
    //    trend epoch's requests (which trend responses ignore) and first
    //    shape the epoch after it.
    if (config_.bit_alloc && (epoch + 2) % config_.trend_period == 0) {
      widths_.Solve(epoch);
    }
    return Status::OK();
  }

  /// Width this requester asks `peer` for on `layer` (bench/test hook).
  int BitsTowards(uint16_t layer, uint32_t peer) const override {
    return widths_.at(layer, peer);
  }

  /// Checkpoint format: per (layer, peer) the responder and requester
  /// trend snapshots, then the per-layer width vectors and last predicted
  /// proportions. Everything the paper's compensation depends on.
  void SaveState(ByteWriter* w) const override {
    for (uint16_t l = 0; l < num_layers_; ++l) {
      for (size_t p = 0; p < responder_[l].size(); ++p) {
        SaveTrend(responder_[l][p], w);
        SaveTrend(requester_[l][p], w);
      }
    }
    widths_.Save(w);
    w->PutF32Vector(proportion_from_);
  }

  Status LoadState(ByteReader* r) override {
    for (uint16_t l = 0; l < num_layers_; ++l) {
      for (size_t p = 0; p < responder_[l].size(); ++p) {
        ECG_RETURN_IF_ERROR(LoadTrend(r, &responder_[l][p]));
        ECG_RETURN_IF_ERROR(LoadTrend(r, &requester_[l][p]));
      }
    }
    ECG_RETURN_IF_ERROR(widths_.Load(r));
    std::vector<float> proportion;
    ECG_RETURN_IF_ERROR(r->GetF32Vector(&proportion));
    if (proportion.size() != proportion_from_.size()) {
      return Status::InvalidArgument(
          "ReqEC checkpoint proportions: expected " +
          std::to_string(proportion_from_.size()) + " peers, got " +
          std::to_string(proportion.size()));
    }
    proportion_from_ = std::move(proportion);
    return Status::OK();
  }

  /// Re-keys the trend state by global vertex id. The responder side is the
  /// canonical copy: the responder owns the vertex, and in the fault-free
  /// protocol both ends hold bitwise-identical baselines, so one entry per
  /// (layer, vertex) serves the responder and every future requester. (If
  /// degraded deliveries had diverged a pair's baselines, the transition
  /// collapses both ends back to this canonical copy — still consistent,
  /// since both ends re-import the same entry.)
  void ExportElasticState(const WorkerPlan& plan,
                          elastic::ElasticStateBag* bag) const override {
    for (uint16_t l = 0; l < num_layers_; ++l) {
      for (size_t p = 0; p < responder_[l].size(); ++p) {
        const TrendState& rs = responder_[l][p];
        if (!rs.have_trend) continue;
        const auto& rows = plan.send_rows[p];
        if (rs.h_last.rows() != rows.size() ||
            rs.m_cr.rows() != rows.size()) {
          continue;
        }
        for (size_t i = 0; i < rows.size(); ++i) {
          const uint32_t gv = plan.owned[rows[i]];
          elastic::TrendRow& tr =
              (*bag).fp_trend[std::make_pair(l, gv)];
          tr.h.assign(rs.h_last.Row(i), rs.h_last.Row(i) + rs.h_last.cols());
          tr.m.assign(rs.m_cr.Row(i), rs.m_cr.Row(i) + rs.m_cr.cols());
        }
      }
    }
    for (uint32_t p = 0; p < proportion_from_.size(); ++p) {
      if (!ActivePeer(plan, p)) continue;
      bag->proportion[std::make_pair(plan.worker_id, p)] =
          proportion_from_[p];
    }
    widths_.Export(plan, &bag->fp_group_bits);
  }

  /// Pulls this plan's rows back out of the bag. A (layer, pair) side gets
  /// its trend baseline iff EVERY vertex of the pair's send set is in the
  /// bag with a consistent width — both ends compute this from the same
  /// canonical vertex list, so responder and requester always agree on
  /// have_trend (a partial set means some vertex became boundary only
  /// through the repartition; the pair cold-starts and the protocol's
  /// self-describing responses handle the rest).
  Status ImportElasticState(const WorkerPlan& plan,
                            const elastic::ElasticStateBag& bag) override {
    for (uint16_t l = 0; l < num_layers_; ++l) {
      for (uint32_t p = 0;
           p < responder_[l].size() && p < plan.send_rows.size(); ++p) {
        if (!ActivePeer(plan, p)) continue;
        TrendState& rs = responder_[l][p];
        std::vector<uint32_t> gvs;
        gvs.reserve(plan.send_rows[p].size());
        for (uint32_t r : plan.send_rows[p]) gvs.push_back(plan.owned[r]);
        rs.have_trend = GatherTrend(bag, l, gvs, &rs.h_last, &rs.m_cr);

        TrendState& qs = requester_[l][p];
        gvs.clear();
        for (uint32_t r : plan.recv_halo_rows[p]) gvs.push_back(plan.halo[r]);
        qs.have_trend = GatherTrend(bag, l, gvs, &qs.h_last, &qs.m_cr);
      }
    }
    for (uint32_t p = 0; p < proportion_from_.size(); ++p) {
      auto itp = bag.proportion.find(std::make_pair(plan.worker_id, p));
      if (itp != bag.proportion.end()) proportion_from_[p] = itp->second;
    }
    widths_.Import(plan, bag.fp_group_bits);
    return Status::OK();
  }

 private:
  /// Message kinds inside an FP data payload.
  enum ResponseKind : uint8_t {
    kTrend = 0,            // exact H + M_cr (last epoch of a trend group)
    kSelected = 1,         // per-vertex SltArr + compressed subset
    kColdStart = 2,        // compressed everything (no trend baseline yet)
    kSelectedElement = 3,  // per-element SltArr + compressed subset
  };
  /// Selector ids, matching the paper's 00=compressed, 01=predicted,
  /// 10=average encoding.
  enum Selection : uint32_t { kCps = 0, kPdt = 1, kAvg = 2 };

  /// One end's copy of a (layer, peer) trend group: the baseline H_last
  /// of the last trend snapshot and its change rate M_cr. The responder
  /// keeps what its requester holds, so in the fault-free protocol both
  /// copies are bitwise identical.
  struct TrendState {
    Matrix h_last;
    Matrix m_cr;
    bool have_trend = false;
  };

  static void SaveTrend(const TrendState& st, ByteWriter* w) {
    w->PutU8(st.have_trend ? 1 : 0);
    EncodeMatrix(st.h_last, w);
    EncodeMatrix(st.m_cr, w);
  }
  static Status LoadTrend(ByteReader* r, TrendState* st) {
    uint8_t have = 0;
    ECG_RETURN_IF_ERROR(r->GetU8(&have));
    st->have_trend = have != 0;
    ECG_RETURN_IF_ERROR(DecodeMatrix(r, &st->h_last));
    return DecodeMatrix(r, &st->m_cr);
  }

  /// A requester baseline must cover the halo slice it predicts: one row
  /// per halo row, M_cr shaped like H_last, as wide as h_halo. Baselines
  /// come from checkpoints and trend responses — decoded input — so this
  /// is checked before any row is read.
  static Status CheckBaseline(const TrendState& st, size_t rows,
                              const Matrix& h_halo) {
    if (st.h_last.rows() != rows || st.m_cr.rows() != rows ||
        st.m_cr.cols() != st.h_last.cols() ||
        (rows > 0 && st.h_last.cols() != h_halo.cols())) {
      return Status::InvalidArgument(
          "ReqEC trend baseline is " + std::to_string(st.h_last.rows()) +
          "x" + std::to_string(st.h_last.cols()) + " for " +
          std::to_string(rows) + " halo rows of width " +
          std::to_string(h_halo.cols()));
    }
    return Status::OK();
  }

  /// Eq. 8's pdt candidate of baseline row i: out = H_last + step·M_cr.
  static void PredictRow(const TrendState& st, size_t i, uint32_t step,
                         float* out) {
    const float* last = st.h_last.Row(i);
    const float* rate = st.m_cr.Row(i);
    for (size_t c = 0; c < st.h_last.cols(); ++c) {
      out[c] = last[c] + rate[c] * static_cast<float>(step);
    }
  }

  /// Assembles the (h_last, m_cr) matrices for `gvs` from the bag's
  /// canonical trend rows. All-or-nothing: returns false (and clears the
  /// matrices) unless every vertex is present with one consistent width.
  static bool GatherTrend(const elastic::ElasticStateBag& bag,
                          uint16_t layer, const std::vector<uint32_t>& gvs,
                          Matrix* h, Matrix* m) {
    std::vector<const elastic::TrendRow*> rows;
    rows.reserve(gvs.size());
    size_t cols = 0;
    for (uint32_t gv : gvs) {
      auto it = bag.fp_trend.find(std::make_pair(layer, gv));
      if (it == bag.fp_trend.end()) {
        rows.clear();
        break;
      }
      const elastic::TrendRow& tr = it->second;
      if (cols == 0) cols = tr.h.size();
      if (cols == 0 || tr.h.size() != cols || tr.m.size() != cols) {
        rows.clear();
        break;
      }
      rows.push_back(&tr);
    }
    if (gvs.empty() || rows.size() != gvs.size()) {
      h->Reset(0, 0);
      m->Reset(0, 0);
      return false;
    }
    h->Reset(gvs.size(), cols);
    m->Reset(gvs.size(), cols);
    for (size_t i = 0; i < rows.size(); ++i) {
      std::copy(rows[i]->h.begin(), rows[i]->h.end(), h->Row(i));
      std::copy(rows[i]->m.begin(), rows[i]->m.end(), m->Row(i));
    }
    return true;
  }

  /// Trend epoch: ship the exact rows and the new change rate
  /// M_cr = (H_now - H_last) / T_tr (Algorithm 4 line 4).
  void BuildTrendResponse(const WorkerPlan& plan, uint32_t peer,
                          uint16_t layer, bool deliverable,
                          const Matrix& h_owned, ByteWriter* w) {
    TrendState& st = responder_[layer][peer];
    const Matrix h_send = tensor::GatherRows(h_owned, plan.send_rows[peer]);
    Matrix m_cr(h_send.rows(), h_send.cols());
    if (st.have_trend) {
      m_cr = h_send;
      tensor::SubInPlace(&m_cr, st.h_last);
      tensor::ScaleInPlace(&m_cr,
                           1.0f / static_cast<float>(config_.trend_period));
    }
    if (deliverable) {
      st.h_last = h_send;
      st.m_cr = m_cr;
      st.have_trend = true;
    }
    w->PutU8(kTrend);
    EncodeMatrix(h_send, w);
    EncodeMatrix(m_cr, w);
  }

  /// Between trend epochs: the send set quantized at the requested width
  /// (`q_full`) either ships whole (no baseline yet) or through the
  /// selector.
  Status BuildResponse(const WorkerPlan& plan, uint32_t peer, uint32_t epoch,
                       uint16_t layer, uint32_t step, const Matrix& h_owned,
                       const QuantizedMatrix& q_full, ByteWriter* w) {
    const TrendState& st = responder_[layer][peer];
    if (!st.have_trend) {
      // First trend group: no prediction baseline exists on either end.
      w->PutU8(kColdStart);
      q_full.AppendTo(w);
      return Status::OK();
    }

    const Matrix h_send = tensor::GatherRows(h_owned, plan.send_rows[peer]);
    // Reconstruct the three candidates exactly as the requester would.
    ECG_ASSIGN_OR_RETURN(Matrix h_cps, compress::Dequantize(q_full));
    Matrix h_pdt = st.h_last;
    tensor::Axpy(static_cast<float>(step), st.m_cr, &h_pdt);
    Matrix h_avg = h_pdt;
    tensor::AddInPlace(&h_avg, h_cps);
    tensor::ScaleInPlace(&h_avg, 0.5f);

    if (config_.selector == SelectorGranularity::kElement) {
      return BuildElementResponse(h_send, h_cps, h_pdt, h_avg, q_full, epoch,
                                  layer, peer, w);
    }

    // Selector: per-vertex L1 distances (Eq. 10), or a single matrix-wide
    // decision under the coarse granularity ablation.
    const std::vector<float> s_cps = tensor::RowL1Distance(h_cps, h_send);
    const std::vector<float> s_pdt = tensor::RowL1Distance(h_pdt, h_send);
    const std::vector<float> s_avg = tensor::RowL1Distance(h_avg, h_send);
    const size_t n = h_send.rows();
    std::vector<uint32_t> slt(n, kCps);
    if (config_.selector == SelectorGranularity::kVertex) {
      for (size_t i = 0; i < n; ++i) {
        uint32_t best = kCps;
        float best_s = s_cps[i];
        if (s_pdt[i] < best_s) {
          best = kPdt;
          best_s = s_pdt[i];
        }
        if (s_avg[i] < best_s) best = kAvg;
        slt[i] = best;
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
      std::fill(slt.begin(), slt.end(), best);
    }

    // Predicted rows are never shipped (Algorithm 4 line 14).
    std::vector<uint32_t> shipped;
    size_t predicted = 0;
    for (uint32_t i = 0; i < n; ++i) {
      if (slt[i] == kPdt) {
        ++predicted;
      } else {
        shipped.push_back(i);
      }
    }
    ECG_ASSIGN_OR_RETURN(QuantizedMatrix q_sub,
                         compress::GatherQuantizedRows(q_full, shipped));
    const float proportion =
        n == 0 ? 0.0f : static_cast<float>(predicted) / n;
    RecordSelectorStats(slt, epoch, layer, peer);

    w->PutU8(kSelected);
    w->PutU8(static_cast<uint8_t>(q_full.bits));
    std::vector<uint32_t> packed_slt;
    ECG_RETURN_IF_ERROR(PackBits(slt, /*bits=*/2, &packed_slt));
    w->PutU64(n);
    w->PutU32Vector(packed_slt);
    q_sub.AppendTo(w);
    w->PutF32(proportion);
    return Status::OK();
  }

  /// Element-wise schema: 2-bit selector per COORDINATE; only non-predicted
  /// coordinates ship their bucket ids (sharing q_full's bucket table).
  Status BuildElementResponse(const Matrix& h_send, const Matrix& h_cps,
                              const Matrix& h_pdt, const Matrix& h_avg,
                              const QuantizedMatrix& q_full, uint32_t epoch,
                              uint16_t layer, uint32_t peer, ByteWriter* w) {
    const size_t count = h_send.size();
    std::vector<uint32_t> full_ids;
    ECG_RETURN_IF_ERROR(
        UnpackBits(q_full.packed_ids, count, q_full.bits, &full_ids));

    std::vector<uint32_t> slt(count, kCps);
    std::vector<uint32_t> shipped_ids;
    size_t predicted = 0;
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
      slt[i] = pick;
      if (pick == kPdt) {
        ++predicted;
      } else {
        shipped_ids.push_back(full_ids[i]);
      }
    }
    const float proportion =
        count == 0 ? 0.0f : static_cast<float>(predicted) / count;
    RecordSelectorStats(slt, epoch, layer, peer);

    QuantizedMatrix q_sub;
    q_sub.rows = 1;
    q_sub.cols = static_cast<uint32_t>(shipped_ids.size());
    q_sub.bits = q_full.bits;
    q_sub.implicit_midpoints = q_full.implicit_midpoints;
    q_sub.min_value = q_full.min_value;
    q_sub.bucket_width = q_full.bucket_width;
    q_sub.bucket_values = q_full.bucket_values;
    ECG_RETURN_IF_ERROR(
        PackBits(shipped_ids, q_full.bits, &q_sub.packed_ids));

    w->PutU8(kSelectedElement);
    w->PutU8(static_cast<uint8_t>(q_full.bits));
    std::vector<uint32_t> packed_slt;
    ECG_RETURN_IF_ERROR(PackBits(slt, /*bits=*/2, &packed_slt));
    w->PutU64(count);
    w->PutU32Vector(packed_slt);
    q_sub.AppendTo(w);
    w->PutF32(proportion);
    return Status::OK();
  }

  /// Zero-byte fallback for a permanently lost response: reconstruct the
  /// pdt candidate from the requester-side trend baseline (Eq. 8). Before
  /// the first trend snapshot there is no baseline, so the stale cached
  /// rows stand in.
  Status DegradeLostResponse(dist::WorkerContext* ctx, const WorkerPlan& plan,
                             uint32_t peer, uint32_t epoch, uint16_t layer,
                             uint32_t step, Matrix* h_halo) {
    const TrendState& st = requester_[layer][peer];
    const auto& halo_rows = plan.recv_halo_rows[peer];
    if (!st.have_trend) {
      CountFpDegraded(ctx, epoch, layer, peer, /*stale=*/true);
      return Status::OK();
    }
    ECG_RETURN_IF_ERROR(CheckBaseline(st, halo_rows.size(), *h_halo));
    for (size_t i = 0; i < halo_rows.size(); ++i) {
      PredictRow(st, i, step, h_halo->Row(halo_rows[i]));
    }
    CountFpDegraded(ctx, epoch, layer, peer, /*stale=*/false);
    return Status::OK();
  }

  Status ParseResponse(const WorkerPlan& plan, uint32_t peer, uint16_t layer,
                       uint32_t step, ByteReader* r, Matrix* h_halo) {
    TrendState& st = requester_[layer][peer];
    const auto& halo_rows = plan.recv_halo_rows[peer];
    uint8_t kind = 0;
    ECG_RETURN_IF_ERROR(r->GetU8(&kind));

    if (kind == kTrend) {
      Matrix h_exact, m_cr;
      ECG_RETURN_IF_ERROR(DecodeMatrix(r, &h_exact));
      ECG_RETURN_IF_ERROR(DecodeMatrix(r, &m_cr));
      ECG_RETURN_IF_ERROR(AssignRows(h_exact, halo_rows, h_halo));
      st.h_last = std::move(h_exact);
      st.m_cr = std::move(m_cr);
      st.have_trend = true;
      return Status::OK();
    }
    if (kind == kColdStart) {
      QuantizedMatrix q;
      ECG_RETURN_IF_ERROR(QuantizedMatrix::ParseFrom(r, &q));
      widths_.Feed(layer, peer,
                   static_cast<double>(q.rows) * static_cast<double>(q.cols),
                   q);
      return compress::DequantizeInto(q, halo_rows, h_halo);
    }
    if (kind != kSelected && kind != kSelectedElement) {
      return Status::InvalidArgument("unknown FP response kind " +
                                     std::to_string(kind));
    }
    if (!st.have_trend) {
      return Status::Internal("selected response before trend baseline");
    }
    ECG_RETURN_IF_ERROR(CheckBaseline(st, halo_rows.size(), *h_halo));

    // kSelected and kSelectedElement share one layout; the selector counts
    // vertices or coordinates.
    uint8_t bits = 0;
    uint64_t n = 0;
    std::vector<uint32_t> packed_slt;
    ECG_RETURN_IF_ERROR(r->GetU8(&bits));
    ECG_RETURN_IF_ERROR(r->GetU64(&n));
    ECG_RETURN_IF_ERROR(r->GetU32Vector(&packed_slt));
    QuantizedMatrix q_sub;
    ECG_RETURN_IF_ERROR(QuantizedMatrix::ParseFrom(r, &q_sub));
    ECG_RETURN_IF_ERROR(r->GetF32(&proportion_from_[peer]));
    const size_t dim = st.h_last.cols();
    const bool element = kind == kSelectedElement;
    widths_.Feed(layer, peer,
                 element ? static_cast<double>(q_sub.cols)
                         : static_cast<double>(q_sub.rows) * dim,
                 q_sub);
    if (n != (element ? halo_rows.size() * dim : halo_rows.size())) {
      return Status::InvalidArgument(element
                                         ? "element selector size mismatch"
                                         : "selector size mismatch");
    }
    std::vector<uint32_t> slt;
    ECG_RETURN_IF_ERROR(UnpackBits(packed_slt, n, /*bits=*/2, &slt));
    ECG_ASSIGN_OR_RETURN(Matrix d_sub, compress::Dequantize(q_sub));

    // Each row starts as its pdt candidate; shipped units overwrite it
    // with the compressed value (kCps) or the average of both (kAvg).
    const float* cps = d_sub.data();
    const size_t units = element ? dim : 1;  // selector entries per row
    const size_t unit = element ? 1 : dim;   // floats per selector entry
    size_t cursor = 0;
    for (size_t i = 0; i < halo_rows.size(); ++i) {
      float* out = h_halo->Row(halo_rows[i]);
      PredictRow(st, i, step, out);
      for (size_t u = 0; u < units; ++u) {
        const uint32_t pick = slt[i * units + u];
        if (pick == kPdt) continue;
        if (pick != kCps && pick != kAvg) {
          return Status::InvalidArgument("corrupt selector value");
        }
        if (cursor + unit > d_sub.size()) {
          return Status::OutOfRange("compressed subset underflow");
        }
        float* dst = out + u * unit;
        for (size_t c = 0; c < unit; ++c, ++cursor) {
          dst[c] = pick == kCps ? cps[cursor] : 0.5f * (dst[c] + cps[cursor]);
        }
      }
    }
    if (cursor != d_sub.size()) {
      return Status::Internal("compressed subset not fully consumed");
    }
    return Status::OK();
  }

  const ExchangeConfig config_;
  const uint16_t num_layers_;
  std::vector<std::vector<TrendState>> responder_;  // [layer][peer]
  std::vector<std::vector<TrendState>> requester_;  // [layer][peer]
  WidthTable widths_;
  std::vector<float> proportion_from_;  // [peer]
};

}  // namespace

std::unique_ptr<FpExchanger> MakeFpExchanger(FpMode mode,
                                             const ExchangeConfig& config,
                                             uint16_t num_layers,
                                             const WorkerPlan& plan) {
  switch (mode) {
    case FpMode::kExact:
      return std::make_unique<PlainFpExchanger>(config, /*quantized=*/false);
    case FpMode::kCompressed:
      return std::make_unique<PlainFpExchanger>(config, /*quantized=*/true);
    case FpMode::kDelayed:
      return std::make_unique<DelayedFpExchanger>(config);
    case FpMode::kReqEc:
      return std::make_unique<ReqEcFpExchanger>(config, num_layers, plan);
  }
  return nullptr;
}

const char* FpModeName(FpMode mode) {
  switch (mode) {
    case FpMode::kExact:
      return "Non-cp";
    case FpMode::kCompressed:
      return "Cp-fp";
    case FpMode::kReqEc:
      return "ReqEC-FP";
    case FpMode::kDelayed:
      return "Delayed(DistGNN)";
  }
  return "?";
}

}  // namespace ecg::core
