#ifndef ECGRAPH_CORE_EXCHANGE_H_
#define ECGRAPH_CORE_EXCHANGE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/thread_pool.h"
#include "compress/quantize.h"
#include "core/halo.h"
#include "dist/cluster.h"
#include "dist/elastic.h"
#include "tensor/matrix.h"

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
  /// traffic budget across message groups, replacing the single global
  /// Bit-Tuner width. The FP requester drives its per-layer request widths
  /// from observed range/saturation; ResEC-BP picks per-peer sender widths
  /// from residual L2. Off = bit-identical to the global tuner path.
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

/// Result of a loss-tolerant halo fan-in. `bufs[p]` holds the payload of
/// every peer whose message arrived; `lost[p]` marks peers whose message
/// was permanently lost (retries exhausted) and must be covered by a
/// degradation path.
struct PeerRecvResult {
  std::vector<std::vector<uint8_t>> bufs;
  std::vector<bool> lost;
  bool any_lost = false;
};

/// Receives from every active peer with bounded waits, consuming peers in
/// *arrival order* (MessageHub::TryRecvAny) rather than fixed ascending
/// peer id — a slow or faulty peer no longer head-of-line blocks the fast
/// ones. The receiver waits on all peers concurrently, so the fault
/// penalties (retry backoff, injected delay) are charged as the MAX across
/// peers, not the sum. A permanently lost message (ResourceExhausted from
/// the transport's retry protocol) is tolerated when `allow_loss` is set
/// and reported via `lost`; any other failure — including loss with
/// fallback disabled — propagates.
inline Result<PeerRecvResult> TryRecvFromActivePeers(
    dist::WorkerContext* ctx, const WorkerPlan& plan, uint64_t tag,
    bool allow_loss) {
  PeerRecvResult out;
  out.bufs.resize(ctx->num_workers());
  out.lost.assign(ctx->num_workers(), false);
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
    if (s.ok() || s.code() == StatusCode::kResourceExhausted) {
      max_penalty = std::max(max_penalty, penalty);
      pending.erase(std::find(pending.begin(), pending.end(), from));
      if (s.ok()) {
        out.bufs[from] = std::move(buf);
        continue;
      }
      if (!allow_loss) {
        ctx->ChargePhasePenalty(max_penalty);
        return s;
      }
      out.lost[from] = true;
      out.any_lost = true;
      continue;
    }
    ctx->ChargePhasePenalty(max_penalty);
    return s;
  }
  ctx->ChargePhasePenalty(max_penalty);
  return out;
}

/// Wire-tag kinds (combined with epoch/layer in MessageHub::MakeTag).
enum ExchangeTagKind : uint16_t {
  kTagFpRequest = 1,
  kTagFpData = 2,
  kTagBpData = 3,
};

/// Fetches the halo rows of H^layer each epoch. `h_owned` holds the owned
/// rows (local order); the exchanger fills the rows of `h_halo`
/// (plan.num_halo() x dim). h_halo persists across epochs so stale-cache
/// policies (kDelayed) can leave rows untouched.
class FpExchanger {
 public:
  virtual ~FpExchanger() = default;

  /// Split-phase API for overlapped schedules. Start encodes and SENDS
  /// everything this exchange will put on the wire (for ReqEC that means
  /// the whole request/respond handshake: it also *drains* the peers'
  /// requests and ships the responses). Start may mutate responder-side
  /// compensation state; it must not touch h_halo. Between Start and
  /// Finish the caller may run arbitrary compute — the comm phase counters
  /// keep accumulating until the caller ends the phase.
  virtual Status Start(dist::WorkerContext* ctx, const WorkerPlan& plan,
                       uint32_t epoch, uint16_t layer,
                       const tensor::Matrix& h_owned) = 0;

  /// Receives (in arrival order) and decodes into h_halo, updating
  /// requester-side compensation state. Does NOT end the comm phase: the
  /// caller charges it, with overlap credit when compute ran in between
  /// (WorkerContext::EndCommPhaseOverlapped).
  virtual Status Finish(dist::WorkerContext* ctx, const WorkerPlan& plan,
                        uint32_t epoch, uint16_t layer,
                        tensor::Matrix* h_halo) = 0;

  /// One-shot exchange: Start + Finish + EndCommPhase("fp_comm"), for
  /// call sites with nothing to overlap (the one-time feature cache); by
  /// construction it is equivalent to the split-phase path. A streaming
  /// Finish still earns its arrival-order decode credit here — the decode
  /// of early peers ran while later ones were in flight regardless of the
  /// caller's schedule.
  Status Exchange(dist::WorkerContext* ctx, const WorkerPlan& plan,
                  uint32_t epoch, uint16_t layer,
                  const tensor::Matrix& h_owned, tensor::Matrix* h_halo) {
    ECG_RETURN_IF_ERROR(Start(ctx, plan, epoch, layer, h_owned));
    ECG_RETURN_IF_ERROR(Finish(ctx, plan, epoch, layer, h_halo));
    const double credit = TakeFinishCredit();
    if (credit > 0.0) {
      ctx->EndCommPhaseOverlapped("fp_comm", credit);
    } else {
      ctx->EndCommPhase("fp_comm");
    }
    return Status::OK();
  }

  /// Current compression bits toward peer `p` (for logging/benches);
  /// 32 means uncompressed. With bit_alloc on the width is per layer —
  /// this reports layer 0's.
  virtual int BitsTowards(uint32_t peer) const { return 32; }

  /// Per-(layer, peer) width (the bit_alloc solver's unit of allocation).
  /// Exchangers without per-layer state report the global width.
  virtual int BitsTowards(uint16_t layer, uint32_t peer) const {
    return BitsTowards(peer);
  }

  /// Decode compute charged during Finish while later peers were still in
  /// flight (the streaming arrival-order decode of the bit_alloc path:
  /// each peer's boundary rows decode the moment its message lands, so an
  /// early narrow peer's decode hides under the wait for the wide ones).
  /// Overlapped schedules fold this into their interior-compute credit;
  /// reading resets the accumulator. Exchangers without a streaming path
  /// return 0.
  virtual double TakeFinishCredit() { return 0.0; }

  /// Serializes the exchanger's compensation state (ReqEC trend baselines,
  /// Bit-Tuner widths) into the epoch checkpoint. Stateless exchangers
  /// write nothing.
  virtual void SaveState(ByteWriter* w) const {}
  virtual Status LoadState(ByteReader* r) { return Status::OK(); }

  /// Elastic membership support: re-keys the compensation state by global
  /// vertex id into `bag` (Export) / pulls this plan's rows back out
  /// (Import), so state follows a vertex across a delta-repartition.
  /// Stateless exchangers are no-ops.
  virtual void ExportElasticState(const WorkerPlan& plan,
                                  elastic::ElasticStateBag* bag) const {}
  virtual Status ImportElasticState(const WorkerPlan& plan,
                                    const elastic::ElasticStateBag& bag) {
    return Status::OK();
  }
};

/// Fetches the halo rows of G^layer each epoch during BP.
class BpExchanger {
 public:
  virtual ~BpExchanger() = default;

  /// Split-phase API, mirroring FpExchanger. Start encodes and sends
  /// (ResEC mutates its residual state here — the residual update depends
  /// only on the outgoing gradient); Finish receives in arrival order and
  /// decodes into g_halo without ending the comm phase.
  virtual Status Start(dist::WorkerContext* ctx, const WorkerPlan& plan,
                       uint32_t epoch, uint16_t layer,
                       const tensor::Matrix& g_owned) = 0;
  virtual Status Finish(dist::WorkerContext* ctx, const WorkerPlan& plan,
                        uint32_t epoch, uint16_t layer,
                        tensor::Matrix* g_halo) = 0;

  /// One-shot exchange: Start + Finish + EndCommPhase("bp_comm").
  Status Exchange(dist::WorkerContext* ctx, const WorkerPlan& plan,
                  uint32_t epoch, uint16_t layer,
                  const tensor::Matrix& g_owned, tensor::Matrix* g_halo) {
    ECG_RETURN_IF_ERROR(Start(ctx, plan, epoch, layer, g_owned));
    ECG_RETURN_IF_ERROR(Finish(ctx, plan, epoch, layer, g_halo));
    ctx->EndCommPhase("bp_comm");
    return Status::OK();
  }

  /// Per-(layer, peer) sender-side width (the bit_alloc solver's unit of
  /// allocation); 32 means uncompressed / not width-adaptive.
  virtual int BitsTowards(uint16_t layer, uint32_t peer) const {
    return 32;
  }

  /// Serializes the error-feedback state (ResEC residuals) into the epoch
  /// checkpoint. Stateless exchangers write nothing.
  virtual void SaveState(ByteWriter* w) const {}
  virtual Status LoadState(ByteReader* r) { return Status::OK(); }

  /// Elastic membership support (see FpExchanger::ExportElasticState).
  virtual void ExportElasticState(const WorkerPlan& plan,
                                  elastic::ElasticStateBag* bag) const {}
  virtual Status ImportElasticState(const WorkerPlan& plan,
                                    const elastic::ElasticStateBag& bag) {
    return Status::OK();
  }
};

/// Factories. `num_layers` lets stateful exchangers pre-size per-layer
/// state. One exchanger instance per worker (they hold per-peer state).
std::unique_ptr<FpExchanger> MakeFpExchanger(FpMode mode,
                                             const ExchangeConfig& config,
                                             uint16_t num_layers,
                                             const WorkerPlan& plan);
std::unique_ptr<BpExchanger> MakeBpExchanger(BpMode mode,
                                             const ExchangeConfig& config,
                                             uint16_t num_layers,
                                             const WorkerPlan& plan);

const char* FpModeName(FpMode mode);
const char* BpModeName(BpMode mode);

}  // namespace ecg::core

#endif  // ECGRAPH_CORE_EXCHANGE_H_
