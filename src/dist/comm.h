#ifndef ECGRAPH_DIST_COMM_H_
#define ECGRAPH_DIST_COMM_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "dist/fault.h"

namespace ecg::dist {

/// Thread-safe per-worker traffic accounting. Every byte that crosses a
/// worker boundary in the simulated cluster is recorded here; the benches
/// read these counters to report exact communication volumes (paper's
/// Table II communication column and the compression-ratio results).
class CommStats {
 public:
  explicit CommStats(uint32_t parties)
      : bytes_sent_(parties, 0), messages_sent_(parties, 0) {}

  /// One message of `bytes` sent by worker `from`.
  void RecordSend(uint32_t from, uint64_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    bytes_sent_[from] += bytes;
    ++messages_sent_[from];
  }

  uint64_t TotalBytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (uint64_t b : bytes_sent_) total += b;
    return total;
  }
  uint64_t TotalMessages() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (uint64_t m : messages_sent_) total += m;
    return total;
  }
  uint64_t BytesSent(uint32_t worker) const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_sent_[worker];
  }

 private:
  mutable std::mutex mu_;
  std::vector<uint64_t> bytes_sent_;
  std::vector<uint64_t> messages_sent_;
};

/// What one bounded receive cost beyond the happy path. The simulated
/// seconds accumulate retry backoff and injected delivery delays; the
/// caller charges them to its modelled comm clock so chaos runs report
/// honest makespans.
struct RecvOutcome {
  uint32_t attempts = 1;        // delivery attempts consumed (1 = clean)
  double penalty_seconds = 0.0;  // simulated backoff + injected delay
};

/// In-memory point-to-point transport between simulated workers. Messages
/// are byte buffers addressed by (from, to, tag); TryRecvAny, the one
/// receive, blocks until a candidate sender's message arrives. Tags
/// disambiguate (epoch, layer, direction) so a fast worker can never
/// consume a slow worker's message for the wrong superstep.
///
/// When a FaultInjector is attached (set_fault_injector), every payload is
/// wrapped in a framed envelope (magic, version, attempt, tag echo, length,
/// CRC32C) and delivery attempts consult the injector: drops leave the
/// mailbox empty, corruption flips payload bits that the CRC catches at
/// parse time, duplicates enqueue twice, delays ride along as simulated
/// seconds. The pristine frame is retained sender-side so the receive can
/// run a bounded NACK/retransmit protocol; with no injector the wire format
/// and blocking behavior are byte-identical to the fault-free build.
class MessageHub {
 public:
  explicit MessageHub(uint32_t parties)
      : parties_(parties), boxes_(parties), stats_(parties) {}

  MessageHub(const MessageHub&) = delete;
  MessageHub& operator=(const MessageHub&) = delete;

  uint32_t parties() const { return parties_; }
  CommStats& stats() { return stats_; }

  /// Attaches the fault injector (not owned; nullptr detaches and restores
  /// the exact fault-free transport). Must be called before workers start
  /// exchanging — the framing decision is read on every send and receive.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  /// Delivers `payload` to worker `to`. Never blocks (unbounded queues).
  /// Traffic accounting records the logical payload size in both modes so
  /// fault-injected runs report comparable communication volumes.
  void Send(uint32_t from, uint32_t to, uint64_t tag,
            std::vector<uint8_t> payload);

  /// The transport's one receive, in arrival order: blocks until *any* of
  /// the candidate `froms` peers is ready on `tag` and returns that peer's
  /// payload. With no injector attached the wait is unbounded and the
  /// result always OK. With an injector a peer is ready once a delivery is
  /// queued or the sender's retained slot proves its attempt was applied;
  /// that one peer is then resolved by the bounded NACK/retransmit
  /// protocol: each attempt waits up to the injector's per-attempt timeout
  /// and validates the envelope, and a failed attempt (drop detected,
  /// corrupt frame) NACKs a retransmission of the retained pristine frame,
  /// which draws its own fault decision, up to max_retries times. Peers
  /// with a clean queued delivery are preferred over peers with only drop
  /// evidence, so fast arrivals are consumed first instead of head-of-line
  /// blocking behind a slow or faulty peer.
  ///
  /// Returns ResourceExhausted when every attempt failed (the caller
  /// degrades) or IoError when no candidate sent within the overall
  /// deadline. `*from_out` names the resolved peer on OK and on
  /// ResourceExhausted (so the caller can retire it from its pending set
  /// and degrade just that peer); it is untouched on IoError. `outcome`
  /// (optional) reports attempts used and the simulated seconds of
  /// backoff/delay the caller must charge to its comm clock.
  Status TryRecvAny(uint32_t to, const std::vector<uint32_t>& froms,
                    uint64_t tag, uint32_t* from_out,
                    std::vector<uint8_t>* out, RecvOutcome* outcome = nullptr);

  /// Builds a collision-free tag from superstep coordinates.
  static uint64_t MakeTag(uint32_t epoch, uint16_t layer, uint16_t kind) {
    return (static_cast<uint64_t>(epoch) << 32) |
           (static_cast<uint64_t>(layer) << 16) | kind;
  }

  /// Inverts MakeTag — the transport-level telemetry attributes traffic
  /// back to its (epoch, layer) without the exchangers having to thread
  /// those coordinates through every Send.
  static uint32_t TagEpoch(uint64_t tag) {
    return static_cast<uint32_t>(tag >> 32);
  }
  static uint16_t TagLayer(uint64_t tag) {
    return static_cast<uint16_t>((tag >> 16) & 0xFFFF);
  }
  static uint16_t TagKind(uint64_t tag) {
    return static_cast<uint16_t>(tag & 0xFFFF);
  }

  /// Framed envelope header size in bytes (magic u32, version u8, flags u8,
  /// attempt u32, tag u64, payload length u64, payload CRC32C u32).
  static constexpr size_t kEnvelopeBytes = 30;
  static constexpr uint32_t kEnvelopeMagic = 0x46474345u;  // "ECGF"
  static constexpr uint8_t kEnvelopeVersion = 1;

  /// Wraps `payload` in the framed envelope. Exposed for tests.
  static std::vector<uint8_t> FrameEnvelope(uint64_t tag, uint32_t attempt,
                                            const std::vector<uint8_t>& payload);

  /// Validates and strips the envelope: checks magic, version, the
  /// reserved flags byte (must be 0), tag echo, length, and payload CRC.
  /// The attempt field is not read. Exposed for tests.
  static Status ParseEnvelope(const std::vector<uint8_t>& frame, uint64_t tag,
                              std::vector<uint8_t>* payload);

 private:
  /// One queued delivery. `delay_seconds` is the injected latency the
  /// receiver charges to its simulated comm clock when it pops the message.
  struct Delivery {
    std::vector<uint8_t> bytes;
    double delay_seconds = 0.0;
  };

  /// Per-(from, tag) delivery queue. A tag almost always carries exactly
  /// one delivery — only injected duplicates ever queue a second — so the
  /// first delivery lives inline in the map node and extras overflow to a
  /// lazily-allocated vector. This keeps the fault-free path free of any
  /// per-message allocation beyond the seed transport's map node (measured
  /// by bench_microkernels --fault_overhead).
  struct DeliveryQueue {
    Delivery first;
    bool has_first = false;
    std::vector<Delivery> overflow;

    bool empty() const { return !has_first && overflow.empty(); }
    size_t size() const { return (has_first ? 1 : 0) + overflow.size(); }
    void push_back(Delivery d) {
      if (empty()) {
        first = std::move(d);
        has_first = true;
      } else {
        overflow.push_back(std::move(d));
      }
    }
    Delivery& front() { return has_first ? first : overflow.front(); }
    Delivery pop_front() {
      if (has_first) {
        has_first = false;
        return std::move(first);
      }
      Delivery d = std::move(overflow.front());
      overflow.erase(overflow.begin());
      return d;
    }
  };

  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::map<std::pair<uint32_t, uint64_t>, DeliveryQueue> messages;
    /// Sender-retained pristine frame per (from, tag), for NACK
    /// retransmission. Send installs it before the first delivery attempt,
    /// so its presence with an empty queue proves an attempt was dropped.
    std::map<std::pair<uint32_t, uint64_t>, std::vector<uint8_t>> retained;
  };

  /// Applies the injector's verdict for one delivery attempt of the retained
  /// frame and enqueues the surviving copies. Caller holds box.mu.
  void DeliverAttempt(Mailbox& box, uint32_t from, uint32_t to, uint64_t tag,
                      uint32_t attempt, const std::vector<uint8_t>& frame);

  /// The framed NACK/retransmit loop of TryRecvAny: resolves one ready
  /// (from, tag) stream to either a validated payload or loss
  /// (ResourceExhausted). Requires an attached injector; caller holds
  /// box.mu.
  Status ResolveFramedLocked(Mailbox& box, uint32_t to, uint32_t from,
                             uint64_t tag, std::vector<uint8_t>* out,
                             RecvOutcome& oc);

  const uint32_t parties_;
  std::vector<Mailbox> boxes_;
  CommStats stats_;
  FaultInjector* injector_ = nullptr;
};

}  // namespace ecg::dist

#endif  // ECGRAPH_DIST_COMM_H_
