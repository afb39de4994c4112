#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/bitpack.h"
#include "common/bytes.h"
#include "common/coded_block.h"
#include "common/kernels.h"
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

/// Rows per block of the ReqEC selector: a multiple of 32, so every block
/// starts on a packed-word boundary at every width.
constexpr size_t kSelectRows = 64;

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

/// DistGNN's delayed remote partial aggregation: per epoch only the rows
/// with index ≡ epoch (mod r) are refreshed (shipped exactly); the
/// requester keeps stale values for the rest. Epoch 0 ships everything so
/// the caches start populated.
class DelayedFpExchanger : public HaloExchanger {
 public:
  explicit DelayedFpExchanger(const ExchangeConfig& config)
      : HaloExchanger(kFpData),
        r_(std::max<uint32_t>(1, config.delay_rounds)),
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
          std::vector<uint32_t> local_rows;
          for (uint32_t i = 0; i < send_rows.size(); ++i) {
            if (epoch != 0 && i % r_ != epoch % r_) continue;
            positions.push_back(i);
            local_rows.push_back(send_rows[i]);
          }
          w->PutU32Vector(positions);
          EncodeMatrixRows(h_owned, local_rows, w);
          return Status::OK();
        });
  }

  /// A lost refresh leaves the whole halo slice one round staler (FanIn)
  /// — the same degradation DistGNN's schedule already embraces.
  Status Finish(dist::WorkerContext* ctx, const WorkerPlan& plan,
                uint32_t epoch, uint16_t layer, Matrix* h_halo) override {
    return FanIn(
        ctx, plan, kFpData, epoch, layer, allow_loss_,
        [&](uint32_t p, ByteReader* r) -> Status {
          std::vector<uint32_t> positions;
          ECG_RETURN_IF_ERROR(r->GetU32Vector(&positions));
          Matrix rows;
          ECG_RETURN_IF_ERROR(DecodeMatrix(r, &rows));
          ECG_RETURN_IF_ERROR(CheckConsumed(*r, "delayed refresh"));
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
        });
  }

  int BitsTowards(uint16_t, uint32_t) const override { return kRawBits; }

 private:
  const uint32_t r_;
  const bool allow_loss_;
};

/// The paper's ReqEC-FP (Algorithms 3 and 4): trend snapshots every T_tr
/// epochs, three candidate approximations per vertex in between, 2-bit
/// selector array on the wire, and the adaptive Bit-Tuner.
///
/// One message per (layer, peer) and epoch: the responder sends unasked,
/// with no request RPC before it (DESIGN.md §2 says why none is needed).
/// Widths are the sender's, as in ResEC-BP: every response carries its
/// width inline, and the Bit-Tuner and the bit_alloc solver run where the
/// selector counts and the bucket ranges they read are computed.
///
/// The responder keeps its trend baselines once per owned boundary vertex:
/// a fault-free snapshot gives every (layer, peer) group the same rows of
/// h_owned, so each layer has one (h_last, m_cr) store that every group
/// reads through its row index. Only a group whose baseline diverges from
/// the store (its trend response can never arrive) copies its rows out
/// into a private baseline, until two delivered snapshots make them equal
/// again. The requester's halo rows are disjoint per peer, so it keeps one
/// baseline per group.
class ReqEcFpExchanger : public HaloExchanger {
 public:
  ReqEcFpExchanger(const ExchangeConfig& config, uint16_t num_layers,
                   const WorkerPlan& plan)
      : HaloExchanger(kFpData),
        config_(config),
        num_layers_(num_layers),
        worker_(static_cast<int32_t>(plan.worker_id)),
        store_index_(plan.send_rows.size()),
        responder_(num_layers),
        requester_(num_layers,
                   std::vector<TrendState>(plan.send_rows.size())),
        // One width per (layer, peer) this worker sends to: the global
        // Bit-Tuner keeps every layer's entry in lock-step (wire-identical
        // to a single per-peer width), the bit_alloc solver diverges them.
        widths_(num_layers, plan.send_rows.size(), config.fp_bits,
                config.bit_budget, "bitalloc.fp_bits") {
    ECG_CHECK(config.tuner_hi > config.tuner_lo)
        << "Bit-Tuner thresholds inverted (hi=" << config.tuner_hi
        << " <= lo=" << config.tuner_lo << ")";
    // Store rows follow ascending owned row; only active groups index it.
    constexpr uint32_t kUnused = ~0u;
    std::vector<uint32_t> slot(plan.num_owned(), kUnused);
    for (uint32_t p = 0; p < plan.send_rows.size(); ++p) {
      if (!ActivePeer(plan, p)) continue;
      for (uint32_t r : plan.send_rows[p]) slot[r] = 0;
    }
    for (uint32_t r = 0; r < slot.size(); ++r) {
      if (slot[r] == kUnused) continue;
      slot[r] = static_cast<uint32_t>(store_owned_.size());
      store_owned_.push_back(r);
    }
    for (uint32_t p = 0; p < plan.send_rows.size(); ++p) {
      if (!ActivePeer(plan, p)) continue;
      for (uint32_t r : plan.send_rows[p]) store_index_[p].push_back(slot[r]);
    }
    for (ResponderLayer& rl : responder_) rl.Clear(store_index_);
  }

  Status Start(dist::WorkerContext* ctx, const WorkerPlan& plan,
               uint32_t epoch, uint16_t layer,
               const Matrix& h_owned) override {
    ECG_CHECK(layer < num_layers_) << "ReqEC layer out of range";
    const uint64_t data_tag = MessageHub::MakeTag(epoch, layer, kTagFpData);
    const bool trend_epoch = TrendEpoch(epoch);
    // Eq. 7's (t mod T_tr + 1): epochs since the last trend snapshot.
    const uint32_t step = epoch % config_.trend_period + 1;

    // Respond (Algorithm 4): every peer's response — candidate
    // construction, selector, quantize — is built in parallel (the store
    // is read-only until every response is built; private baselines,
    // widths and feeds are per peer). `share[p]` is the pdt share of a
    // selected response, -1 for any other kind.
    ResponderLayer& rl = responder_[layer];
    if (trend_epoch) {
      ECG_RETURN_IF_ERROR(
          CheckBaseline(rl.store, store_owned_.size(), h_owned));
    }
    std::vector<double> share(ctx->num_workers(), -1.0);
    dist::FaultInjector* injector = ctx->fault_injector();
    ECG_RETURN_IF_ERROR(FanOut(
        ctx, plan, kFpData, epoch, layer, h_owned.cols(),
        [&](uint32_t p, ByteWriter* w, QuantizedMatrix* q) -> Status {
          if (trend_epoch) {
            // Both ends evaluate the fault schedule, so the responder
            // knows — without any extra message — when its response can
            // never be delivered. It must then keep the old baseline: the
            // requester will keep predicting from the old one too.
            const bool deliverable =
                injector == nullptr ||
                !injector->PermanentlyLost(ctx->worker_id(), p, data_tag);
            return BuildTrendResponse(plan, p, layer, deliverable, h_owned, w);
          }
          const QuantizerOptions qopts{widths_.at(layer, p),
                                       config_.value_mode};
          const Baseline base = ResponderBaseline(layer, p);
          if (!base.st->have_trend) {
            // First trend group: no prediction baseline exists on either
            // end, so the whole send set ships compressed, quantized
            // straight out of h_owned.
            ECG_ASSIGN_OR_RETURN(*q, compress::QuantizeRows(
                                         h_owned, plan.send_rows[p], qopts));
            w->PutU8(kColdStart);
            q->AppendTo(w);
            widths_.Feed(layer, p, *q);
            return Status::OK();
          }
          // The selector compares candidates against the truth, so the
          // send set is gathered once and quantized from that copy.
          Matrix truth;
          ECG_ASSIGN_OR_RETURN(
              *q, compress::GatherQuantizeRows(h_owned, plan.send_rows[p],
                                               nullptr, qopts, &truth));
          return BuildResponse(base, step, truth, *q, epoch, layer, p, w,
                               &share[p]);
        }));
    if (layer + 1 == num_layers_) AdaptWidths(plan, epoch, share);
    if (!trend_epoch) return Status::OK();
    // Every group that still shares the store takes this snapshot, once
    // per owned vertex. Two delivered snapshots after a fork, a private
    // group's baseline equals the store's rows again and goes back to them.
    Snapshot(&rl.store, h_owned, store_owned_);
    for (uint32_t p = 0; p < rl.own.size(); ++p) {
      if (rl.shared[p] || !SameRows(rl.own[p], rl.store, store_index_[p])) {
        continue;
      }
      rl.own[p] = TrendState{};
      rl.shared[p] = 1;
    }
    return Status::OK();
  }

  Status Finish(dist::WorkerContext* ctx, const WorkerPlan& plan,
                uint32_t epoch, uint16_t layer, Matrix* h_halo) override {
    ECG_CHECK(layer < num_layers_) << "ReqEC layer out of range";
    const uint32_t step = epoch % config_.trend_period + 1;

    // Parse responses (Algorithm 3) — per-peer requester state and halo
    // row ranges are disjoint, so peers decode in parallel too. A lost
    // response degrades to the pdt candidate (Eq. 8: H_last + step·M_cr,
    // reconstructible from requester state with zero wire bytes).
    ECG_RETURN_IF_ERROR(FanIn(
        ctx, plan, kFpData, epoch, layer, config_.fault_fallback,
        [&](uint32_t p, ByteReader* r) {
          return ParseResponse(plan, p, layer, step, r, h_halo);
        },
        [&](uint32_t p) {
          return DegradeLostResponse(ctx, plan, p, epoch, layer, step,
                                     h_halo);
        }));
    if (TrendEpoch(epoch)) RecordStateBytes(epoch, layer);
    return Status::OK();
  }

  /// Width this worker sends `peer` on `layer` (bench/test hook).
  int BitsTowards(uint16_t layer, uint32_t peer) const override {
    return widths_.at(layer, peer);
  }

  /// Checkpoint format: per (layer, peer) the responder and requester
  /// trend snapshots, then the per-layer sender width vectors. Everything
  /// the paper's compensation depends on. A group that shares the
  /// responder store writes its rows gathered in send order, so the bytes
  /// do not depend on how the responder keeps them.
  void SaveState(ByteWriter* w) const override {
    for (uint16_t l = 0; l < num_layers_; ++l) {
      const ResponderLayer& rl = responder_[l];
      for (size_t p = 0; p < requester_[l].size(); ++p) {
        if (!rl.shared[p]) {
          SaveTrend(rl.own[p], w);
        } else if (!rl.store.have_trend) {
          SaveTrend(TrendState{}, w);
        } else {
          w->PutU8(1);
          EncodeMatrixRows(rl.store.h_last, store_index_[p], w);
          EncodeMatrixRows(rl.store.m_cr, store_index_[p], w);
        }
        SaveTrend(requester_[l][p], w);
      }
    }
    widths_.Save(w);
  }

  /// Rebuilds the responder store from the per-group snapshots (Adopter).
  Status LoadState(ByteReader* r) override {
    for (uint16_t l = 0; l < num_layers_; ++l) {
      Adopter adopt(this, l);
      for (uint32_t p = 0; p < requester_[l].size(); ++p) {
        TrendState rs;
        ECG_RETURN_IF_ERROR(LoadTrend(r, &rs));
        adopt.Add(p, std::move(rs));
        ECG_RETURN_IF_ERROR(LoadTrend(r, &requester_[l][p]));
      }
    }
    ECG_RETURN_IF_ERROR(widths_.Load(r));
    for (uint16_t l = 0; l < num_layers_; ++l) {
      RecordStateBytes(obs::kNoEpoch, l);
    }
    return Status::OK();
  }

  /// Re-keys the trend state by global vertex id. The responder side is the
  /// canonical copy: the responder owns the vertex, and in the fault-free
  /// protocol both ends hold bitwise-identical baselines, so one entry per
  /// (layer, vertex) serves the responder and every future requester. (If
  /// degraded deliveries had diverged a pair's baselines, the transition
  /// collapses both ends back to this canonical copy — still consistent,
  /// since both ends re-import the same entry. Groups are written in peer
  /// order, so a vertex a private group also holds takes the copy of the
  /// last group that sends it.)
  void ExportElasticState(const WorkerPlan& plan,
                          elastic::ElasticStateBag* bag) const override {
    for (uint16_t l = 0; l < num_layers_; ++l) {
      for (uint32_t p = 0; p < requester_[l].size(); ++p) {
        const Baseline base = ResponderBaseline(l, p);
        const TrendState& rs = *base.st;
        if (!rs.have_trend) continue;
        const auto& rows = plan.send_rows[p];
        const size_t n = base.index ? store_owned_.size() : rows.size();
        if ((base.index && base.index->size() != rows.size()) ||
            !CheckBaseline(rs, n, rs.h_last).ok()) {
          continue;
        }
        for (size_t i = 0; i < rows.size(); ++i) {
          const size_t s = base.index ? (*base.index)[i] : i;
          elastic::TrendRow& tr =
              (*bag).fp_trend[std::make_pair(l, plan.owned[rows[i]])];
          tr.h.assign(rs.h_last.Row(s), rs.h_last.Row(s) + rs.h_last.cols());
          tr.m.assign(rs.m_cr.Row(s), rs.m_cr.Row(s) + rs.m_cr.cols());
        }
      }
    }
    widths_.Export(plan, &bag->fp_group_bits);
  }

  /// Pulls this plan's rows back out of the bag. A (layer, pair) side gets
  /// its trend baseline iff EVERY vertex of the pair's send set is in the
  /// bag with a consistent width — both ends compute this from the same
  /// canonical vertex list, so responder and requester always agree on
  /// have_trend (a partial set means some vertex became boundary only
  /// through the repartition; the pair cold-starts and the protocol's
  /// self-describing responses handle the rest). The responder store is
  /// rebuilt from the groups' baselines as LoadState rebuilds it.
  Status ImportElasticState(const WorkerPlan& plan,
                            const elastic::ElasticStateBag& bag) override {
    for (uint16_t l = 0; l < num_layers_; ++l) {
      Adopter adopt(this, l);
      for (uint32_t p = 0;
           p < requester_[l].size() && p < plan.send_rows.size(); ++p) {
        if (!ActivePeer(plan, p)) continue;
        std::vector<uint32_t> gvs;
        gvs.reserve(plan.send_rows[p].size());
        for (uint32_t r : plan.send_rows[p]) gvs.push_back(plan.owned[r]);
        TrendState rs;
        rs.have_trend = GatherTrend(bag, l, gvs, &rs.h_last, &rs.m_cr);
        adopt.Add(p, std::move(rs));

        TrendState& qs = requester_[l][p];
        gvs.clear();
        for (uint32_t r : plan.recv_halo_rows[p]) gvs.push_back(plan.halo[r]);
        qs.have_trend = GatherTrend(bag, l, gvs, &qs.h_last, &qs.m_cr);
      }
    }
    widths_.Import(plan, bag.fp_group_bits);
    for (uint16_t l = 0; l < num_layers_; ++l) {
      RecordStateBytes(obs::kNoEpoch, l);
    }
    return Status::OK();
  }

 private:
  /// Message kinds inside an FP data payload.
  enum ResponseKind : uint8_t {
    kTrend = 0,            // exact H, zero-suppressed (last epoch of a group)
    kSelected = 1,         // per-vertex SltArr + compressed subset
    kColdStart = 2,        // compressed everything (no trend baseline yet)
    kSelectedElement = 3,  // per-element SltArr + compressed subset
  };

  /// One copy of trend baselines: H_last of the last trend snapshot and
  /// its change rate M_cr, one row per vertex. Both ends snapshot equal
  /// inputs, so fault-free copies are bitwise identical.
  struct TrendState {
    Matrix h_last;
    Matrix m_cr;
    bool have_trend = false;

    size_t bytes() const {
      return (h_last.size() + m_cr.size()) * sizeof(float);
    }
    /// What a group holds before its first snapshot.
    bool blank() const {
      return !have_trend && h_last.rows() == 0 && h_last.cols() == 0 &&
             m_cr.rows() == 0 && m_cr.cols() == 0;
    }
  };

  /// The responder's trend state of one layer. Invariant: a group with
  /// shared[p] set has the baseline `store` rows store_index_[p] (and
  /// have_trend iff the store has); every other group's baseline is
  /// own[p], in send order. Groups of inactive peers are never shared and
  /// never hold rows.
  struct ResponderLayer {
    TrendState store;             // [store row]
    std::vector<uint8_t> shared;  // [peer]; bytes, written by peer in parallel
    std::vector<TrendState> own;  // [peer]

    /// Every active group shares the empty store.
    void Clear(const std::vector<std::vector<uint32_t>>& index) {
      store = TrendState{};
      shared.assign(index.size(), 0);
      own.assign(index.size(), TrendState{});
      for (size_t p = 0; p < index.size(); ++p) shared[p] = !index[p].empty();
    }
  };

  /// A responder group's baseline: its TrendState, and the row index that
  /// maps send row i to a row of it (null: row i).
  struct Baseline {
    const TrendState* st;
    const std::vector<uint32_t>* index;
  };

  Baseline ResponderBaseline(uint16_t layer, uint32_t peer) const {
    const ResponderLayer& rl = responder_[layer];
    if (rl.shared[peer]) return {&rl.store, &store_index_[peer]};
    return {&rl.own[peer], nullptr};
  }

  /// Rebuilds a layer's responder state from one baseline per group, as a
  /// checkpoint or the elastic bag holds them (groups added in peer order).
  /// A group shares the store when it is well-shaped and every row equals
  /// the first stored copy of the same vertex; otherwise it keeps its
  /// baseline as a private one. A group with no baseline shares the store
  /// only if no group has one (nothing was ever snapshotted); otherwise it
  /// diverged at the first snapshot and stays private.
  class Adopter {
   public:
    Adopter(ReqEcFpExchanger* ex, uint16_t layer)
        : ex_(ex),
          rl_(ex->responder_[layer]),
          filled_(ex->store_owned_.size(), 0) {
      rl_.Clear(ex->store_index_);
    }
    /// Runs on every exit of the load, so the layer's invariant holds
    /// even when a later group fails to decode.
    ~Adopter() {
      if (rl_.store.have_trend) return;
      for (size_t p = 0; p < rl_.own.size(); ++p) {
        if (!ex_->store_index_[p].empty() && rl_.own[p].blank()) {
          rl_.shared[p] = 1;
        }
      }
    }

    void Add(uint32_t peer, TrendState st) {
      rl_.shared[peer] = 0;
      const std::vector<uint32_t>& index = ex_->store_index_[peer];
      TrendState& store = rl_.store;
      const size_t cols = st.h_last.cols();
      if (st.have_trend && !index.empty() && cols > 0 &&
          st.h_last.rows() == index.size() && st.m_cr.rows() == index.size() &&
          st.m_cr.cols() == cols &&
          (!store.have_trend || store.h_last.cols() == cols)) {
        if (!store.have_trend) {
          store.h_last.Reset(filled_.size(), cols);
          store.m_cr.Reset(filled_.size(), cols);
          store.have_trend = true;
        }
        bool same = true;
        for (size_t i = 0; same && i < index.size(); ++i) {
          same = !filled_[index[i]] || SameRow(st, i, store, index[i]);
        }
        if (same) {
          const size_t row_bytes = cols * sizeof(float);
          for (size_t i = 0; i < index.size(); ++i) {
            const uint32_t s = index[i];
            if (filled_[s]) continue;
            std::memcpy(store.h_last.Row(s), st.h_last.Row(i), row_bytes);
            std::memcpy(store.m_cr.Row(s), st.m_cr.Row(i), row_bytes);
            filled_[s] = 1;
          }
          rl_.shared[peer] = 1;
          return;
        }
      }
      rl_.own[peer] = std::move(st);
    }

   private:
    ReqEcFpExchanger* ex_;
    ResponderLayer& rl_;
    std::vector<uint8_t> filled_;  // [store row] holds a group's copy
  };

  /// Row i of `st` equals row s of `store`, both matrices bit for bit.
  /// Both must be as wide.
  static bool SameRow(const TrendState& st, size_t i, const TrendState& store,
                      uint32_t s) {
    const size_t row_bytes = st.h_last.cols() * sizeof(float);
    return std::memcmp(st.h_last.Row(i), store.h_last.Row(s), row_bytes) ==
               0 &&
           std::memcmp(st.m_cr.Row(i), store.m_cr.Row(s), row_bytes) == 0;
  }

  /// `st` holds a baseline equal, row for row, to the store rows `index`.
  static bool SameRows(const TrendState& st, const TrendState& store,
                       const std::vector<uint32_t>& index) {
    if (!st.have_trend || !store.have_trend || index.empty() ||
        st.h_last.rows() != index.size() || st.m_cr.rows() != index.size() ||
        st.h_last.cols() != store.h_last.cols() ||
        st.m_cr.cols() != store.h_last.cols()) {
      return false;
    }
    for (size_t i = 0; i < index.size(); ++i) {
      if (!SameRow(st, i, store, index[i])) return false;
    }
    return true;
  }

  bool TrendEpoch(uint32_t epoch) const {
    return (epoch + 1) % config_.trend_period == 0;
  }

  /// Once per epoch, after the last FP layer's responses are built.
  /// Bit-Tuner (Algorithm 3 lines 13-18): each peer whose response was a
  /// selected one steps on that response's pdt share `share[p]` (-1 for
  /// any other kind: nothing observed, no step). All layers move in
  /// lock-step, so the wire behavior matches a single per-peer width.
  /// Growth saturates at kBitTunerMaxBits — the widest id the packed
  /// codecs encode — and shrink at 1. bit_alloc instead solves at the end
  /// of the epoch before each trend snapshot, from the feed this epoch's
  /// responses left: the trend epoch ships exact rows, so the new widths
  /// first shape the epoch after it.
  void AdaptWidths(const WorkerPlan& plan, uint32_t epoch,
                   const std::vector<double>& share) {
    if (config_.bit_alloc) {
      if ((epoch + 2) % config_.trend_period == 0) widths_.Solve(epoch);
      return;
    }
    if (!config_.adaptive_bits) return;
    for (uint32_t p = 0; p < share.size(); ++p) {
      if (!ActivePeer(plan, p) || share[p] < 0.0) continue;
      int b = widths_.at(0, p);
      if (share[p] > config_.tuner_hi) {
        b = std::min(b * 2, kBitTunerMaxBits);
      } else if (share[p] < config_.tuner_lo && b > 1) {
        b /= 2;
      }
      widths_.SetPeer(p, b);
      if (obs::StatsEnabled()) {
        obs::RecordStat("reqec.tuner_bits", static_cast<double>(b), epoch,
                        /*layer=*/-1, static_cast<int32_t>(p));
        obs::RecordStat("reqec.predicted_frac", share[p], epoch,
                        /*layer=*/-1, static_cast<int32_t>(p));
      }
    }
  }

  /// mem.reqec.{responder,requester}_bytes: the bytes of this worker's
  /// trend baselines on `layer` — the responder store plus its private
  /// groups, and the requester's groups.
  void RecordStateBytes(uint32_t epoch, uint16_t layer) const {
    if (!obs::StatsEnabled()) return;
    const ResponderLayer& rl = responder_[layer];
    size_t responder = rl.store.bytes(), requester = 0;
    for (size_t p = 0; p < rl.own.size(); ++p) {
      responder += rl.own[p].bytes();
      requester += requester_[layer][p].bytes();
    }
    obs::RecordStat("mem.reqec.responder_bytes",
                    static_cast<double>(responder), epoch, layer,
                    /*peer=*/-1, worker_);
    obs::RecordStat("mem.reqec.requester_bytes",
                    static_cast<double>(requester), epoch, layer,
                    /*peer=*/-1, worker_);
  }

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

  /// A baseline, if `st` has one, must cover the slice it predicts: one row
  /// per halo (or send, or store) row, M_cr shaped like H_last, as wide as
  /// `like`. Baselines come from checkpoints and trend responses — decoded
  /// input — so this is checked before any row is read.
  static Status CheckBaseline(const TrendState& st, size_t rows,
                              const Matrix& like) {
    if (!st.have_trend) return Status::OK();
    if (st.h_last.rows() != rows || st.m_cr.rows() != rows ||
        st.m_cr.cols() != st.h_last.cols() ||
        (rows > 0 && st.h_last.cols() != like.cols())) {
      return Status::InvalidArgument(
          "ReqEC trend baseline is " + std::to_string(st.h_last.rows()) +
          "x" + std::to_string(st.h_last.cols()) + " for " +
          std::to_string(rows) + " rows of width " +
          std::to_string(like.cols()));
    }
    return Status::OK();
  }

  /// Algorithm 4 line 4 in place over rows `rows` of `src` (H):
  /// M_cr = (H - H_last) / T_tr, then H_last = H; the first snapshot
  /// allocates the baseline and leaves M_cr zero. `st` must pass
  /// CheckBaseline against `rows.size()` rows of `src`.
  void Snapshot(TrendState* st, const Matrix& src,
                const std::vector<uint32_t>& rows) const {
    const float inv = 1.0f / static_cast<float>(config_.trend_period);
    const size_t cols = src.cols();
    if (!st->have_trend) {
      st->h_last.Reset(rows.size(), cols);
      st->m_cr.Reset(rows.size(), cols);
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      const float* h = src.Row(rows[i]);
      float* last = st->h_last.Row(i);
      if (st->have_trend) {
        float* rate = st->m_cr.Row(i);
        for (size_t c = 0; c < cols; ++c) rate[c] = (h[c] - last[c]) * inv;
      }
      std::copy(h, h + cols, last);
    }
    st->have_trend = true;
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

  /// Trend epoch: ship the exact rows only (Algorithm 4 line 4), straight
  /// out of h_owned with their +0.0 elements suppressed (ReLU outputs are
  /// about half zeros). The requester holds the same H_last, so it derives
  /// the new M_cr itself. A group sharing the store takes the snapshot with it
  /// after FanOut, unless the response can never arrive: then the group
  /// forks, keeping a private copy of its old rows.
  Status BuildTrendResponse(const WorkerPlan& plan, uint32_t peer,
                            uint16_t layer, bool deliverable,
                            const Matrix& h_owned, ByteWriter* w) {
    const auto& rows = plan.send_rows[peer];
    w->PutU8(kTrend);
    EncodeNonzeroRows(h_owned, rows, w);
    ResponderLayer& rl = responder_[layer];
    TrendState& own = rl.own[peer];
    if (rl.shared[peer]) {
      if (deliverable) return Status::OK();
      if (rl.store.have_trend) {
        own.h_last = tensor::GatherRows(rl.store.h_last, store_index_[peer]);
        own.m_cr = tensor::GatherRows(rl.store.m_cr, store_index_[peer]);
        own.have_trend = true;
      }
      rl.shared[peer] = 0;
      return Status::OK();
    }
    if (!deliverable) return Status::OK();
    ECG_RETURN_IF_ERROR(CheckBaseline(own, rows.size(), h_owned));
    Snapshot(&own, h_owned, rows);
    return Status::OK();
  }

  /// Between trend epochs: the selector's picks and the shipped subset of
  /// `q_full` (the send set `truth` quantized at this group's width). The
  /// shipped subset feeds the solver, and `*share` is the pdt share the
  /// Bit-Tuner steps on.
  Status BuildResponse(const Baseline& base, uint32_t step,
                       const Matrix& truth, const QuantizedMatrix& q_full,
                       uint32_t epoch, uint16_t layer, uint32_t peer,
                       ByteWriter* w, double* share) {
    ECG_ASSIGN_OR_RETURN(
        const ReqEcSelection sel,
        SelectReqEc(truth, base.st->h_last, base.st->m_cr, step, q_full,
                    config_.selector, base.index));
    RecordSelectorStats(sel.slt, epoch, layer, peer);
    widths_.Feed(layer, peer, sel.shipped);
    *share = sel.slt.empty() ? 0.0
                             : static_cast<double>(sel.predicted) /
                                   static_cast<double>(sel.slt.size());
    const bool element = config_.selector == SelectorGranularity::kElement;
    w->PutU8(element ? kSelectedElement : kSelected);
    w->PutU8(static_cast<uint8_t>(q_full.bits));
    std::vector<uint32_t> packed_slt;
    ECG_RETURN_IF_ERROR(PackBits(sel.slt, /*bits=*/2, &packed_slt));
    w->PutU64(sel.slt.size());
    AppendCodedBlock(reinterpret_cast<const uint8_t*>(packed_slt.data()),
                     packed_slt.size() * sizeof(uint32_t), w);
    sel.shipped.AppendTo(w);
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
      CountLost(ctx, kFpData, epoch, layer, peer);
      return Status::OK();
    }
    ECG_RETURN_IF_ERROR(CheckBaseline(st, halo_rows.size(), *h_halo));
    const kern::Kernels& k = kern::Active();
    for (size_t i = 0; i < halo_rows.size(); ++i) {
      k.reqec_predict(st.h_last.Row(i), st.m_cr.Row(i), st.h_last.cols(),
                      static_cast<float>(step), h_halo->Row(halo_rows[i]));
    }
    if (dist::FaultInjector* injector = ctx->fault_injector()) {
      injector->counters().degraded_pdt.fetch_add(1,
                                                  std::memory_order_relaxed);
    }
    obs::RecordStat("fault.degraded_pdt", 1.0, epoch, layer,
                    static_cast<int32_t>(peer));
    return Status::OK();
  }

  /// A trend response (exact H, zero-suppressed) is checked in full —
  /// header, bitmap, shape and byte count against the halo slice and the
  /// baseline — before any halo row or baseline row is written; then both
  /// update in place.
  Status ParseTrendResponse(ByteReader* r, TrendState* st,
                            const std::vector<uint32_t>& halo_rows,
                            Matrix* h_halo) {
    NonzeroRows nz;
    ECG_RETURN_IF_ERROR(DecodeNonzeroRows(
        r, static_cast<uint32_t>(halo_rows.size()),
        static_cast<uint32_t>(h_halo->cols()), &nz));
    ECG_RETURN_IF_ERROR(CheckConsumed(*r, "ReqEC trend response"));
    ECG_RETURN_IF_ERROR(CheckBaseline(*st, nz.rows, *h_halo));
    for (uint32_t hr : halo_rows) {
      if (hr >= h_halo->rows()) {
        return Status::OutOfRange("ReqEC halo row out of range");
      }
    }
    ExpandNonzeroRows(nz, halo_rows, h_halo);
    Snapshot(st, *h_halo, halo_rows);
    return Status::OK();
  }

  Status ParseResponse(const WorkerPlan& plan, uint32_t peer, uint16_t layer,
                       uint32_t step, ByteReader* r, Matrix* h_halo) {
    TrendState& st = requester_[layer][peer];
    const auto& halo_rows = plan.recv_halo_rows[peer];
    uint8_t kind = 0;
    ECG_RETURN_IF_ERROR(r->GetU8(&kind));

    if (kind == kTrend) return ParseTrendResponse(r, &st, halo_rows, h_halo);
    if (kind == kColdStart) {
      QuantizedMatrix q;
      ECG_RETURN_IF_ERROR(QuantizedMatrix::ParseFrom(
          r, {halo_rows.size(), h_halo->cols()}, &q));
      ECG_RETURN_IF_ERROR(CheckConsumed(*r, "ReqEC cold-start response"));
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
    ECG_RETURN_IF_ERROR(r->GetU8(&bits));
    ECG_RETURN_IF_ERROR(r->GetU64(&n));
    const size_t dim = st.h_last.cols();
    const bool element = kind == kSelectedElement;
    // The selector count sizes the decoded array, so it is checked first.
    if (n != (element ? halo_rows.size() * dim : halo_rows.size())) {
      return Status::InvalidArgument(element
                                         ? "element selector size mismatch"
                                         : "selector size mismatch");
    }
    std::vector<uint32_t> packed_slt(PackedWordCount(n, /*bits=*/2));
    ECG_RETURN_IF_ERROR(
        ParseCodedBlock(r, packed_slt.size() * sizeof(uint32_t),
                        reinterpret_cast<uint8_t*>(packed_slt.data())));
    QuantizedMatrix q_sub;
    ECG_RETURN_IF_ERROR(QuantizedMatrix::ParseFrom(
        r,
        element ? compress::WireShape{1, halo_rows.size() * dim, true}
                : compress::WireShape{halo_rows.size(), dim},
        &q_sub));
    ECG_RETURN_IF_ERROR(CheckConsumed(*r, "ReqEC selected response"));
    if (bits != q_sub.bits) {
      return Status::InvalidArgument(
          "ReqEC response width disagrees with its subset's");
    }
    std::vector<uint32_t> slt;
    ECG_RETURN_IF_ERROR(UnpackBits(packed_slt, n, /*bits=*/2, &slt));
    // Checked before any halo row is written: every pick is a candidate,
    // the selector's padding is zero, and the subset holds exactly the
    // non-pdt units — whole rows `dim` wide (vertex) or coordinates
    // (element).
    const size_t units = element ? dim : 1;  // selector entries per row
    const size_t unit = element ? 1 : dim;   // floats per selector entry
    size_t shipped = 0;
    for (uint32_t pick : slt) {
      if (pick > kAvg) return Status::InvalidArgument("corrupt selector value");
      if (pick != kPdt) shipped += unit;
    }
    if (n % 16 != 0 && packed_slt.back() >> (2 * (n % 16)) != 0) {
      return Status::InvalidArgument("selector padding is not zero");
    }
    const size_t subset = static_cast<size_t>(q_sub.rows) * q_sub.cols;
    if (shipped != subset) {
      return Status::InvalidArgument(
          "ReqEC selector ships " + std::to_string(shipped) +
          " values; the subset holds " + std::to_string(subset));
    }
    ECG_ASSIGN_OR_RETURN(Matrix d_sub, compress::Dequantize(q_sub));

    // Each row starts as its pdt candidate; shipped units overwrite it
    // with the compressed value (kCps) or the average of both (kAvg).
    const kern::Kernels& k = kern::Active();
    const float* cps = d_sub.data();
    for (size_t i = 0; i < halo_rows.size(); ++i) {
      float* out = h_halo->Row(halo_rows[i]);
      k.reqec_predict(st.h_last.Row(i), st.m_cr.Row(i), dim,
                      static_cast<float>(step), out);
      for (size_t u = 0; u < units; ++u) {
        const uint32_t pick = slt[i * units + u];
        if (pick == kPdt) continue;
        float* dst = out + u * unit;
        for (size_t c = 0; c < unit; ++c, ++cps) {
          dst[c] = pick == kCps ? *cps : 0.5f * (dst[c] + *cps);
        }
      }
    }
    return Status::OK();
  }

  const ExchangeConfig config_;
  const uint16_t num_layers_;
  const int32_t worker_;
  /// store_owned_[s]: the owned row of responder store row s — each owned
  /// row some active peer is sent, once, ascending.
  std::vector<uint32_t> store_owned_;
  /// store_index_[p][i]: the store row of send_rows[p][i] (empty for an
  /// inactive peer).
  std::vector<std::vector<uint32_t>> store_index_;
  std::vector<ResponderLayer> responder_;            // [layer]
  std::vector<std::vector<TrendState>> requester_;  // [layer][peer]
  WidthTable widths_;  // [layer][peer]: the width this worker sends
};

}  // namespace

Result<ReqEcSelection> SelectReqEc(const Matrix& truth, const Matrix& h_last,
                                   const Matrix& m_cr, uint32_t step,
                                   const QuantizedMatrix& q_full,
                                   SelectorGranularity granularity,
                                   const std::vector<uint32_t>* baseline_rows) {
  const size_t n = truth.rows(), cols = truth.cols(), count = truth.size();
  const size_t last_rows = baseline_rows ? h_last.rows() : n;
  bool rows_ok = baseline_rows == nullptr || baseline_rows->size() == n;
  for (size_t i = 0; rows_ok && baseline_rows && i < n; ++i) {
    rows_ok = (*baseline_rows)[i] < last_rows;
  }
  if (!IsSupportedBitWidth(q_full.bits) ||
      q_full.bucket_values.size() != (size_t{1} << q_full.bits) ||
      q_full.packed_ids.size() < PackedWordCount(count, q_full.bits) ||
      !rows_ok || h_last.rows() != last_rows || h_last.cols() != cols ||
      m_cr.rows() != last_rows || m_cr.cols() != cols || q_full.rows != n ||
      q_full.cols != cols) {
    return Status::InvalidArgument(
        "ReqEC selector: baseline " + std::to_string(h_last.rows()) + "x" +
        std::to_string(h_last.cols()) + " and message " +
        std::to_string(q_full.rows) + "x" + std::to_string(q_full.cols) +
        " do not match the " + std::to_string(n) + "x" +
        std::to_string(cols) + " send set");
  }
  // Blocks of kSelectRows rows start on a packed-word boundary at every
  // width, so each block's cps decodes straight from q_full's words into an
  // L1 buffer through one LUT, and the kernels read truth, cps and the
  // baseline rows (through the row index, in place) in one pass.
  const kern::Kernels& k = kern::Active();
  const float fstep = static_cast<float>(step);
  const bool element = granularity == SelectorGranularity::kElement;
  const size_t per_word = 32 / static_cast<size_t>(q_full.bits);
  std::vector<float> storage;
  const float* lut =
      kern::BuildUnpackLut(q_full.bits, q_full.bucket_values.data(), &storage);
  ReqEcSelection sel;
  std::vector<float> l1(element ? 0 : 3 * n);
  sel.slt.assign(element ? count : n, kCps);
  ThreadPool::Global().ParallelFor(
      (n + kSelectRows - 1) / kSelectRows, 1, [&](size_t b0, size_t b1) {
        std::vector<float> cps(kSelectRows * cols);
        for (size_t b = b0; b < b1; ++b) {
          const size_t r0 = b * kSelectRows;
          const size_t rows = std::min(kSelectRows, n - r0);
          const size_t e0 = r0 * cols, len = rows * cols;
          k.unpack_flat(q_full.bits, q_full.packed_ids.data() + e0 / per_word,
                        len, 0, (len + per_word - 1) / per_word, lut,
                        /*subtract=*/false, cps.data());
          const uint32_t* idx =
              baseline_rows ? baseline_rows->data() + r0 : nullptr;
          const size_t l0 = baseline_rows ? 0 : e0;
          if (element) {
            k.reqec_element_pick(truth.data() + e0, cps.data(),
                                 h_last.data() + l0, m_cr.data() + l0, idx,
                                 rows, cols, fstep, sel.slt.data() + e0);
          } else {
            k.reqec_row_l1(truth.data() + e0, cps.data(), h_last.data() + l0,
                           m_cr.data() + l0, idx, rows, cols, fstep,
                           l1.data() + 3 * r0);
          }
        }
      });
  if (element) {
    // Only the non-predicted coordinates ship their bucket ids (sharing
    // q_full's bucket table).
    std::vector<uint32_t> full_ids, shipped_ids;
    ECG_RETURN_IF_ERROR(
        UnpackBits(q_full.packed_ids, count, q_full.bits, &full_ids));
    for (size_t i = 0; i < count; ++i) {
      if (sel.slt[i] == kPdt) {
        ++sel.predicted;
      } else {
        shipped_ids.push_back(full_ids[i]);
      }
    }
    sel.shipped = q_full;
    sel.shipped.rows = 1;
    sel.shipped.cols = static_cast<uint32_t>(shipped_ids.size());
    ECG_RETURN_IF_ERROR(
        PackBits(shipped_ids, q_full.bits, &sel.shipped.packed_ids));
    return sel;
  }

  // Per-vertex L1 distances (Eq. 10), or a single matrix-wide decision
  // under the coarse granularity ablation.
  if (granularity == SelectorGranularity::kVertex) {
    for (size_t i = 0; i < n; ++i) {
      uint32_t best = kCps;
      float best_s = l1[3 * i + kCps];
      if (l1[3 * i + kPdt] < best_s) {
        best = kPdt;
        best_s = l1[3 * i + kPdt];
      }
      if (l1[3 * i + kAvg] < best_s) best = kAvg;
      sel.slt[i] = best;
    }
  } else {
    double t_cps = 0, t_pdt = 0, t_avg = 0;
    for (size_t i = 0; i < n; ++i) {
      t_cps += l1[3 * i + kCps];
      t_pdt += l1[3 * i + kPdt];
      t_avg += l1[3 * i + kAvg];
    }
    uint32_t best = kCps;
    if (t_pdt < t_cps && t_pdt <= t_avg) best = kPdt;
    if (t_avg < t_cps && t_avg < t_pdt) best = kAvg;
    std::fill(sel.slt.begin(), sel.slt.end(), best);
  }
  // Predicted rows are never shipped (Algorithm 4 line 14).
  std::vector<uint32_t> shipped;
  for (uint32_t i = 0; i < n; ++i) {
    if (sel.slt[i] == kPdt) {
      ++sel.predicted;
    } else {
      shipped.push_back(i);
    }
  }
  ECG_ASSIGN_OR_RETURN(sel.shipped,
                       compress::GatherQuantizedRows(q_full, shipped));
  return sel;
}

std::unique_ptr<HaloExchanger> MakeFpExchanger(FpMode mode,
                                               const ExchangeConfig& config,
                                               uint16_t num_layers,
                                               const WorkerPlan& plan) {
  switch (mode) {
    case FpMode::kExact:
      return MakeRowExchanger(kFpData, kRawBits, /*feedback=*/false, config,
                              num_layers, plan);
    case FpMode::kCompressed:
      return MakeRowExchanger(kFpData, config.fp_bits, /*feedback=*/false,
                              config, num_layers, plan);
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
