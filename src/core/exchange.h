#ifndef ECGRAPH_CORE_EXCHANGE_H_
#define ECGRAPH_CORE_EXCHANGE_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "compress/bit_alloc.h"
#include "compress/quantize.h"
#include "core/halo.h"
#include "core/wire_util.h"
#include "dist/cluster.h"
#include "dist/elastic.h"
#include "dist/fault.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace ecg::core {

/// True for peers this worker actually exchanges halo rows with (cut edges
/// exist in both directions or neither — the relation is symmetric).
inline bool ActivePeer(const WorkerPlan& plan, uint32_t p) {
  return p != plan.worker_id && !plan.send_rows[p].empty();
}

/// Runs fn(peer) for every active peer on the global ThreadPool — each
/// peer's encode/decode is independent — and returns the first error in
/// peer order. Inside a simulated worker (ThreadPool serial mode) this
/// degrades to the old sequential loop, so the per-worker compute clock is
/// unaffected.
inline Status ForEachActivePeerParallel(
    const WorkerPlan& plan, uint32_t num_workers,
    const std::function<Status(uint32_t)>& fn) {
  std::vector<uint32_t> peers;
  peers.reserve(num_workers);
  for (uint32_t p = 0; p < num_workers; ++p) {
    if (ActivePeer(plan, p)) peers.push_back(p);
  }
  std::vector<Status> statuses(peers.size());
  ThreadPool::Global().ParallelFor(
      peers.size(), 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) statuses[i] = fn(peers[i]);
      });
  for (Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

/// Forward-propagation message policies (who ships H how).
enum class FpMode {
  /// Raw float32 rows every epoch (the paper's Non-cp baseline).
  kExact,
  /// B-bit bucket quantization, no compensation (Cp-fp-B).
  kCompressed,
  /// The paper's ReqEC-FP: trend snapshots + selector + optional Bit-Tuner.
  kReqEc,
  /// DistGNN's delayed remote partial aggregation: only 1/r of the halo is
  /// refreshed (exactly) per epoch, the rest stays stale.
  kDelayed,
};

/// Backward-propagation message policies (who ships G how).
enum class BpMode {
  kExact,       // Non-cp
  kCompressed,  // Cp-bp-B
  kResEc,       // the paper's ResEC-BP error feedback
};

/// Section IV-B's three approximation-selection schemas. Vertex-wise is
/// the paper's choice ("yields the best balance between the message size
/// and the accuracy"); element-wise picks per coordinate (most accurate,
/// biggest selector overhead: 2 bits per element); matrix-wise picks one
/// approximation for the whole message.
enum class SelectorGranularity { kElement, kVertex, kMatrix };

/// ReqEC candidate ids, matching the paper's selector encoding 00 =
/// compressed, 01 = predicted, 10 = average.
enum ReqEcCandidate : uint32_t { kCps = 0, kPdt = 1, kAvg = 2 };

/// One ReqEC responder decision over a message (Algorithm 4 lines 5-14).
struct ReqEcSelection {
  /// Candidate per vertex (vertex and matrix granularity) or per
  /// coordinate (element granularity).
  std::vector<uint32_t> slt;
  /// The non-predicted units of the message, with its bucket table: rows
  /// of q_full (vertex, matrix), or one row of coordinate ids (element).
  compress::QuantizedMatrix shipped;
  /// Units that picked kPdt.
  size_t predicted = 0;
};

/// The ReqEC selector of one message: `truth` is the gathered send set,
/// `q_full` its quantization, and (h_last, m_cr) the trend baseline: row i
/// of the send set reads baseline row (*baseline_rows)[i], or row i when
/// `baseline_rows` is null. For every row it computes cps (the requester's
/// decode of q_full), pdt = h_last + step·m_cr and avg = (pdt + cps)/2,
/// and picks by L1 distance to the truth per vertex (each distance summed
/// in ascending column order), per coordinate or over the whole matrix.
/// One fused pass through the kern::reqec_* kernels; no candidate matrix is
/// built, and indexed baseline rows are read in place.
Result<ReqEcSelection> SelectReqEc(
    const tensor::Matrix& truth, const tensor::Matrix& h_last,
    const tensor::Matrix& m_cr, uint32_t step,
    const compress::QuantizedMatrix& q_full, SelectorGranularity granularity,
    const std::vector<uint32_t>* baseline_rows = nullptr);

/// Hard ceiling of every adaptive width path (Bit-Tuner growth, bit_alloc
/// solver): the bucket codecs pack {1, 2, 4, 8, 16}-bit ids, so 16 is the
/// widest quantized message the wire format can carry. fp_bits/bp_bits are
/// validated against the same set at the spec layer.
inline constexpr int kBitTunerMaxBits = 16;

/// Shared knobs of all exchangers.
struct ExchangeConfig {
  int fp_bits = 2;
  int bp_bits = 2;
  compress::BucketValueMode value_mode =
      compress::BucketValueMode::kMidpoint;
  /// T_tr: trend-group length of ReqEC-FP (paper default 10).
  uint32_t trend_period = 10;
  /// Enables the adaptive Bit-Tuner of Section IV-B.
  bool adaptive_bits = false;
  /// Bit-Tuner thresholds: grow B above hi, shrink below lo. Must satisfy
  /// hi > lo (the spec layer rejects hi <= lo: the tuner would oscillate
  /// every epoch inside the dead band).
  double tuner_hi = 0.6;
  double tuner_lo = 0.4;
  /// AdaQP-style per-(layer, peer) bit allocation (DESIGN.md §16): every
  /// trend_period epochs a greedy marginal-gain solver re-divides a total
  /// traffic budget across the sender's message groups, replacing the
  /// single global Bit-Tuner width. ReqEC-FP weighs each group by its
  /// bucket range; ResEC-BP adds its residual L2. Off = bit-identical to
  /// the global tuner path.
  bool bit_alloc = false;
  /// Traffic budget of the solver as a fraction of what the same groups
  /// would weigh at the configured global width (fp_bits / bp_bits).
  double bit_budget = 0.75;
  SelectorGranularity selector = SelectorGranularity::kVertex;
  /// DistGNN delay rounds r (only used by FpMode::kDelayed).
  uint32_t delay_rounds = 5;
  /// Degrade gracefully when a halo message is permanently lost under
  /// fault injection (all retries exhausted): FP falls back to the
  /// requester-side pdt prediction (ReqEC, zero wire bytes — exactly
  /// Eq. 8's candidate) or to the stale cached halo rows (other modes);
  /// BP skips the lost gradient, and ResEC folds the whole compensated
  /// gradient into the responder's residual so Eqs. 11-12 absorb it next
  /// epoch. When false, a lost message is a training error.
  bool fault_fallback = true;
};

/// Wire-tag kinds (combined with epoch/layer in MessageHub::MakeTag). The
/// values are part of every tag, and the fault schedule is a function of
/// tags, so they stay fixed.
enum ExchangeTagKind : uint16_t {
  kTagFpData = 2,
  kTagBpData = 3,
};

/// One direction of halo data traffic: its wire tag, the prefix of its
/// `<prefix>.*` send stats, the names its exchanges are booked under and
/// what a permanently lost message books at the receiver.
struct HaloDirection {
  uint16_t tag_kind;
  const char* prefix;
  /// Per-peer detail spans of the encode and the decode.
  const char* encode_span;
  const char* decode_span;
  /// Simulated-clock phase and span of Start and Finish; span of Finish.
  const char* exchange;
  const char* finish;
  /// Comm phase the exchange's wire time is charged to.
  const char* comm;
  /// Compute phase of the steps around the exchange of `layer`, booked at
  /// `layer + compute_layer_offset`: FP exchanges H^layer as the next
  /// layer's input, BP exchanges G^layer inside the layer's backward.
  const char* compute;
  int32_t compute_layer_offset;
  /// Stat and FaultCounters slot (none if null) of a lost message.
  const char* lost_stat;
  std::atomic<uint64_t> dist::FaultCounters::*lost_counter;
};
inline constexpr HaloDirection kFpData{
    kTagFpData,    "fp",        "fp_encode", "fp_decode",
    "fp_exchange", "fp_finish", "fp_comm",   "fp_compute",
    1,             "fault.degraded_stale",
    &dist::FaultCounters::degraded_stale};
inline constexpr HaloDirection kBpData{
    kTagBpData,    "bp",        "bp_encode", "bp_decode",
    "bp_exchange", "bp_finish", "bp_comm",   "bp_compute",
    0,             "fault.degraded_skip",
    nullptr};

/// Width of a raw float32 message (Non-cp, Delayed) wherever widths are
/// reported; the bucket codecs pack at most 16-bit ids.
inline constexpr int kRawBits = 32;

/// Books a permanently lost message of direction `dir` from `peer` at the
/// receiver: `dir.lost_stat` and its FaultCounters slot.
inline void CountLost(dist::WorkerContext* ctx, const HaloDirection& dir,
                      uint32_t epoch, uint16_t layer, uint32_t peer) {
  dist::FaultInjector* injector = ctx->fault_injector();
  if (injector != nullptr && dir.lost_counter != nullptr) {
    (injector->counters().*dir.lost_counter)
        .fetch_add(1, std::memory_order_relaxed);
  }
  obs::RecordStat(dir.lost_stat, 1.0, epoch, layer,
                  static_cast<int32_t>(peer));
}

/// Send-side compression telemetry, keyed (epoch, layer, peer). `raw` is
/// what the message would weigh as float32 rows — the Non-cp baseline —
/// so `<prefix>.ratio` reads directly as the paper's compression factor.
/// `q` is the codec output of a quantized message (bits > 0): it sets the
/// recorded width and its bucket saturation is recorded too; raw float
/// messages record kRawBits.
inline Status RecordSendStats(const HaloDirection& dir, uint32_t epoch,
                              uint16_t layer, uint32_t peer, double raw,
                              size_t wire_bytes,
                              const compress::QuantizedMatrix& q) {
  const std::string prefix = dir.prefix;
  const auto record = [&](const char* name, double value) {
    obs::RecordStat(prefix + name, value, epoch, layer,
                    static_cast<int32_t>(peer));
  };
  record(".raw_bytes", raw);
  record(".wire_bytes", static_cast<double>(wire_bytes));
  if (wire_bytes > 0) record(".ratio", raw / static_cast<double>(wire_bytes));
  record(".bits", static_cast<double>(q.bits > 0 ? q.bits : kRawBits));
  if (q.bits > 0) {
    ECG_ASSIGN_OR_RETURN(const double sat, compress::BucketSaturationRate(q));
    record(".saturation", sat);
  }
  return Status::OK();
}

/// Encodes one message per active peer into `w`. A quantized message
/// leaves its codec output in `*q` for the send stats.
using EncodeFn = std::function<Status(uint32_t peer, ByteWriter* w,
                                      compress::QuantizedMatrix* q)>;

/// Send half of every halo exchange: runs `encode` for each active peer in
/// parallel (one detail span each), records the send stats of rows
/// `cols` wide, and hands the messages to the hub in peer order.
inline Status FanOut(dist::WorkerContext* ctx, const WorkerPlan& plan,
                     const HaloDirection& dir, uint32_t epoch,
                     uint16_t layer, size_t cols, const EncodeFn& encode) {
  std::vector<std::vector<uint8_t>> out(ctx->num_workers());
  ECG_RETURN_IF_ERROR(ForEachActivePeerParallel(
      plan, ctx->num_workers(), [&](uint32_t p) -> Status {
        ECG_TRACE_SCOPE_DETAIL(dir.encode_span, ctx->worker_id(), layer);
        ByteWriter w(&out[p]);
        compress::QuantizedMatrix q;
        ECG_RETURN_IF_ERROR(encode(p, &w, &q));
        if (!obs::StatsEnabled()) return Status::OK();
        const double raw =
            static_cast<double>(plan.send_rows[p].size() * cols *
                                sizeof(float));
        return RecordSendStats(dir, epoch, layer, p, raw, out[p].size(), q);
      }));
  const uint64_t tag = dist::MessageHub::MakeTag(epoch, layer, dir.tag_kind);
  for (uint32_t p = 0; p < ctx->num_workers(); ++p) {
    if (ActivePeer(plan, p)) ctx->Send(p, tag, std::move(out[p]));
  }
  return Status::OK();
}

/// Receive half of every halo exchange. Receives from every active peer
/// with bounded waits, consuming peers in *arrival order*
/// (MessageHub::TryRecvAny) rather than fixed ascending peer id — a slow
/// or faulty peer does not head-of-line block the fast ones. The receiver
/// waits on all peers concurrently, so the fault penalties (retry backoff,
/// injected delay) are charged as the MAX across peers, not the sum. Then
/// runs `decode` on each delivered payload, peers in parallel. A
/// permanently lost message (ResourceExhausted from the transport's retry
/// protocol) is tolerated when `allow_loss` is set: it runs the mode's own
/// `on_lost` fallback if it has one; otherwise the peer's halo rows stay
/// as they are and the loss is booked (CountLost). FP then keeps its stale
/// cached rows (h_halo persists across epochs); BP skips the gradient
/// (g_halo is zeroed every epoch). Any other failure — including loss with
/// fallback disabled — propagates.
inline Status FanIn(dist::WorkerContext* ctx, const WorkerPlan& plan,
                    const HaloDirection& dir, uint32_t epoch, uint16_t layer,
                    bool allow_loss,
                    const std::function<Status(uint32_t, ByteReader*)>& decode,
                    const std::function<Status(uint32_t)>& on_lost = nullptr) {
  const uint64_t tag = dist::MessageHub::MakeTag(epoch, layer, dir.tag_kind);
  std::vector<std::vector<uint8_t>> bufs(ctx->num_workers());
  std::vector<bool> lost(ctx->num_workers(), false);
  std::vector<uint32_t> pending;
  for (uint32_t p = 0; p < ctx->num_workers(); ++p) {
    if (ActivePeer(plan, p)) pending.push_back(p);
  }
  double max_penalty = 0.0;
  while (!pending.empty()) {
    uint32_t from = 0;
    std::vector<uint8_t> buf;
    double penalty = 0.0;
    Status s = ctx->TryRecvAny(pending, tag, &from, &buf, &penalty);
    if (!s.ok() && s.code() != StatusCode::kResourceExhausted) {
      ctx->ChargePhasePenalty(max_penalty);
      return s;
    }
    max_penalty = std::max(max_penalty, penalty);
    pending.erase(std::find(pending.begin(), pending.end(), from));
    if (s.ok()) {
      bufs[from] = std::move(buf);
    } else if (allow_loss) {
      lost[from] = true;
    } else {
      ctx->ChargePhasePenalty(max_penalty);
      return s;
    }
  }
  ctx->ChargePhasePenalty(max_penalty);
  return ForEachActivePeerParallel(
      plan, ctx->num_workers(), [&](uint32_t p) -> Status {
        ECG_TRACE_SCOPE_DETAIL(dir.decode_span, ctx->worker_id(), layer);
        if (lost[p]) {
          if (on_lost) return on_lost(p);
          CountLost(ctx, dir, epoch, layer, p);
          return Status::OK();
        }
        ByteReader r(bufs[p]);
        return decode(p, &r);
      });
}

/// Per-(layer, peer) message widths of an adaptive exchanger — the width
/// this worker sends each peer, in ReqEC-FP and ResEC-BP alike — and
/// everything that reads or writes them: the AdaQP-style solver's feed and
/// solve (DESIGN.md §16), the checkpoint vectors and the elastic bag
/// entries. Every width starts at the configured global one, which is also
/// the solver's reference.
class WidthTable {
 public:
  WidthTable(size_t layers, size_t peers, int bits, double budget,
             const char* stat)
      : bits_(layers, std::vector<int>(peers, bits)),
        feed_(layers, std::vector<GroupFeed>(peers)),
        reference_bits_(bits),
        budget_(budget),
        stat_(stat) {}

  int at(size_t layer, uint32_t peer) const { return bits_[layer][peer]; }

  /// One width for every layer of `peer` (the global Bit-Tuner).
  void SetPeer(uint32_t peer, int bits) {
    for (auto& per_layer : bits_) per_layer[peer] = bits;
  }

  /// Solver feed of group (layer, peer): this epoch's message `q`. The
  /// group's error weight is elements·range² plus `pressure` (ResEC adds
  /// its residual's squared L2). Per-group slots are disjoint, so peers
  /// may feed in parallel.
  void Feed(size_t layer, uint32_t peer, const compress::QuantizedMatrix& q,
            double pressure = 0.0) {
    const double elements =
        static_cast<double>(q.rows) * static_cast<double>(q.cols);
    const double range =
        static_cast<double>(q.bucket_width) * std::exp2(q.bits);
    GroupFeed& f = feed_[layer][peer];
    f.elements = elements;
    f.sensitivity = elements * range * range + pressure;
    f.valid = elements > 0.0 && range > 0.0;
  }

  /// Greedy re-allocation of the traffic budget across every group with a
  /// live feed (compress::SolveBitAllocation); records `stat` per group.
  void Solve(uint32_t epoch) {
    std::vector<compress::BitAllocGroup> groups;
    std::vector<std::pair<size_t, uint32_t>> keys;
    for (size_t l = 0; l < feed_.size(); ++l) {
      for (uint32_t p = 0; p < feed_[l].size(); ++p) {
        if (!feed_[l][p].valid) continue;
        groups.push_back({feed_[l][p].elements, feed_[l][p].sensitivity});
        keys.emplace_back(l, p);
      }
    }
    if (groups.empty()) return;
    compress::BitAllocConfig bc;
    bc.budget_factor = budget_;
    bc.reference_bits = reference_bits_;
    bc.max_bits = kBitTunerMaxBits;
    const std::vector<int> widths = compress::SolveBitAllocation(groups, bc);
    for (size_t i = 0; i < keys.size(); ++i) {
      const auto [l, p] = keys[i];
      bits_[l][p] = widths[i];
      obs::RecordStat(stat_, static_cast<double>(widths[i]), epoch,
                      static_cast<int32_t>(l), static_cast<int32_t>(p));
    }
  }

  /// Checkpoint section: one U32 vector of peer widths per layer.
  void Save(ByteWriter* w) const {
    for (const auto& per_layer : bits_) {
      w->PutU32Vector(std::vector<uint32_t>(per_layer.begin(),
                                            per_layer.end()));
    }
  }
  Status Load(ByteReader* r) {
    for (auto& per_layer : bits_) {
      std::vector<uint32_t> bits;
      ECG_RETURN_IF_ERROR(r->GetU32Vector(&bits));
      if (bits.size() != per_layer.size()) {
        return Status::InvalidArgument(
            "checkpoint bit widths: expected " +
            std::to_string(per_layer.size()) + " peers, got " +
            std::to_string(bits.size()));
      }
      per_layer.assign(bits.begin(), bits.end());
    }
    return Status::OK();
  }

  /// Bag entries keyed (layer, this worker, peer), one per active link, so
  /// the widths survive a repartition that keeps both link ends alive.
  void Export(const WorkerPlan& plan,
              elastic::ElasticStateBag::GroupBits* bag) const {
    for (size_t l = 0; l < bits_.size(); ++l) {
      for (uint32_t p = 0; p < bits_[l].size(); ++p) {
        if (p >= plan.send_rows.size() || !ActivePeer(plan, p)) continue;
        (*bag)[{static_cast<uint16_t>(l), plan.worker_id, p}] = bits_[l][p];
      }
    }
  }
  void Import(const WorkerPlan& plan,
              const elastic::ElasticStateBag::GroupBits& bag) {
    for (size_t l = 0; l < bits_.size(); ++l) {
      for (uint32_t p = 0; p < bits_[l].size(); ++p) {
        auto it = bag.find({static_cast<uint16_t>(l), plan.worker_id, p});
        if (it != bag.end()) bits_[l][p] = it->second;
      }
    }
  }

 private:
  /// Last observation of one (layer, peer) group.
  struct GroupFeed {
    double elements = 0.0;
    double sensitivity = 0.0;
    bool valid = false;
  };

  std::vector<std::vector<int>> bits_;        // [layer][peer]
  std::vector<std::vector<GroupFeed>> feed_;  // [layer][peer]
  const int reference_bits_;
  const double budget_;
  const char* stat_;
};

/// Fetches the halo rows of one direction's matrix each epoch: H^layer in
/// FP, G^layer in BP. `owned` holds the owned rows (local order); the
/// exchanger fills the rows of `halo` (plan.num_halo() x dim). An FP halo
/// persists across epochs, so stale-cache policies (kDelayed) can leave
/// rows untouched.
class HaloExchanger {
 public:
  explicit HaloExchanger(const HaloDirection& direction)
      : direction_(direction) {}
  virtual ~HaloExchanger() = default;
  HaloExchanger(const HaloExchanger&) = delete;
  HaloExchanger& operator=(const HaloExchanger&) = delete;

  const HaloDirection& direction() const { return direction_; }

  /// Split-phase API for overlapped schedules. Start encodes and SENDS
  /// everything this exchange will put on the wire: one message per
  /// active peer. Start may mutate sender-side state (ReqEC's responder
  /// baselines, ResEC's residuals, either's widths); it must not touch
  /// `halo`. Between Start and Finish the caller may run
  /// arbitrary compute — the comm phase counters keep accumulating until
  /// the caller ends the phase.
  virtual Status Start(dist::WorkerContext* ctx, const WorkerPlan& plan,
                       uint32_t epoch, uint16_t layer,
                       const tensor::Matrix& owned) = 0;

  /// Receives (in arrival order) and decodes into `halo`, updating
  /// receiver-side compensation state. Does NOT end the comm phase: the
  /// caller charges it, with overlap credit when compute ran in between
  /// (WorkerContext::EndCommPhaseOverlapped).
  virtual Status Finish(dist::WorkerContext* ctx, const WorkerPlan& plan,
                        uint32_t epoch, uint16_t layer,
                        tensor::Matrix* halo) = 0;

  /// One-shot exchange: Start + Finish + EndCommPhase, for call sites with
  /// nothing to overlap (the one-time feature cache); by construction it
  /// is equivalent to the split-phase path.
  Status Exchange(dist::WorkerContext* ctx, const WorkerPlan& plan,
                  uint32_t epoch, uint16_t layer, const tensor::Matrix& owned,
                  tensor::Matrix* halo) {
    ECG_RETURN_IF_ERROR(Start(ctx, plan, epoch, layer, owned));
    ECG_RETURN_IF_ERROR(Finish(ctx, plan, epoch, layer, halo));
    ctx->EndCommPhase(direction_.comm);
    return Status::OK();
  }

  /// Width on the wire of what this worker sends `peer` on `layer`
  /// (ReqEC's trend responses excepted: they ship exact float32 rows);
  /// kRawBits for raw float32 rows.
  virtual int BitsTowards(uint16_t layer, uint32_t peer) const = 0;

  /// Serializes the exchanger's compensation state (ReqEC trend baselines,
  /// ResEC residuals, adaptive widths) into the epoch checkpoint.
  /// Stateless exchangers write nothing.
  virtual void SaveState(ByteWriter*) const {}
  virtual Status LoadState(ByteReader*) { return Status::OK(); }

  /// Elastic membership support: re-keys the compensation state by global
  /// vertex id into `bag` (Export) / pulls this plan's rows back out
  /// (Import), so state follows a vertex across a delta-repartition.
  /// Stateless exchangers are no-ops.
  virtual void ExportElasticState(const WorkerPlan&,
                                  elastic::ElasticStateBag*) const {}
  virtual Status ImportElasticState(const WorkerPlan&,
                                    const elastic::ElasticStateBag&) {
    return Status::OK();
  }

 private:
  const HaloDirection direction_;
};

/// Factories. `num_layers` lets stateful exchangers pre-size per-layer
/// state. One exchanger instance per worker (they hold per-peer state).
std::unique_ptr<HaloExchanger> MakeFpExchanger(FpMode mode,
                                               const ExchangeConfig& config,
                                               uint16_t num_layers,
                                               const WorkerPlan& plan);
std::unique_ptr<HaloExchanger> MakeBpExchanger(BpMode mode,
                                               const ExchangeConfig& config,
                                               uint16_t num_layers,
                                               const WorkerPlan& plan);

/// The one exchanger of every mode that ships the whole send set as rows
/// each epoch: Non-cp (`bits` = kRawBits) and Cp-B in either direction,
/// and with `feedback` ResEC-BP's error feedback. The factories above
/// build it; only BpMode::kResEc sets `feedback`, and its state is BP
/// state (`bitalloc.bp_bits`, the bag's `bp_*` entries).
std::unique_ptr<HaloExchanger> MakeRowExchanger(const HaloDirection& dir,
                                                int bits, bool feedback,
                                                const ExchangeConfig& config,
                                                uint16_t num_layers,
                                                const WorkerPlan& plan);

const char* FpModeName(FpMode mode);
const char* BpModeName(BpMode mode);

}  // namespace ecg::core

#endif  // ECGRAPH_CORE_EXCHANGE_H_
