#ifndef ECGRAPH_DIST_COMM_H_
#define ECGRAPH_DIST_COMM_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "dist/fault.h"

namespace ecg::obs {
class Counter;  // common/metrics.h; Send caches per-link handles to it
}  // namespace ecg::obs

namespace ecg::dist {

/// Thread-safe per-worker traffic accounting. Every byte that crosses a
/// worker boundary in the simulated cluster is recorded here; the benches
/// read these counters to report exact communication volumes (paper's
/// Table II communication column and the compression-ratio results).
class CommStats {
 public:
  explicit CommStats(uint32_t parties)
      : bytes_sent_(parties, 0), bytes_received_(parties, 0),
        messages_sent_(parties, 0), messages_received_(parties, 0) {}

  void RecordSend(uint32_t from, uint32_t to, uint64_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    bytes_sent_[from] += bytes;
    bytes_received_[to] += bytes;
    ++messages_sent_[from];
    ++messages_received_[to];
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

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    std::fill(bytes_sent_.begin(), bytes_sent_.end(), 0);
    std::fill(bytes_received_.begin(), bytes_received_.end(), 0);
    std::fill(messages_sent_.begin(), messages_sent_.end(), 0);
    std::fill(messages_received_.begin(), messages_received_.end(), 0);
  }

 private:
  mutable std::mutex mu_;
  std::vector<uint64_t> bytes_sent_;
  std::vector<uint64_t> bytes_received_;
  std::vector<uint64_t> messages_sent_;
  std::vector<uint64_t> messages_received_;
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
/// are byte buffers addressed by (from, to, tag); Recv blocks until the
/// matching message arrives. Tags disambiguate (epoch, layer, direction)
/// so a fast worker can never consume a slow worker's message for the
/// wrong superstep.
///
/// When a FaultInjector is attached (set_fault_injector), every payload is
/// wrapped in a framed envelope (magic, version, attempt, tag echo, length,
/// CRC32C) and delivery attempts consult the injector: drops leave the
/// mailbox empty, corruption flips payload bits that the CRC catches at
/// parse time, duplicates enqueue twice, delays ride along as simulated
/// seconds. The pristine frame is retained sender-side so TryRecv can run a
/// bounded NACK/retransmit protocol; with no injector the wire format and
/// blocking behavior are byte-identical to the fault-free build.
class MessageHub {
 public:
  explicit MessageHub(uint32_t parties)
      : parties_(parties), boxes_(parties), stats_(parties),
        sent_counters_(static_cast<size_t>(parties) * parties) {}

  MessageHub(const MessageHub&) = delete;
  MessageHub& operator=(const MessageHub&) = delete;

  uint32_t parties() const { return parties_; }
  CommStats& stats() { return stats_; }

  /// Attaches the fault injector (not owned; nullptr detaches and restores
  /// the exact fault-free transport). Must be called before workers start
  /// exchanging — the framing decision is read on every Send/Recv.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  /// Delivers `payload` to worker `to`. Never blocks (unbounded queues).
  /// Traffic accounting records the logical payload size in both modes so
  /// fault-injected runs report comparable communication volumes.
  void Send(uint32_t from, uint32_t to, uint64_t tag,
            std::vector<uint8_t> payload);

  /// Blocks until the (from, tag) message addressed to `to` arrives and
  /// returns its payload. Requires the fault-free transport (no injector);
  /// use TryRecv when faults may be active.
  std::vector<uint8_t> Recv(uint32_t to, uint32_t from, uint64_t tag);

  /// Bounded receive. With no injector attached this is exactly Recv
  /// (blocking, always OK). With an injector it waits up to the injector's
  /// per-attempt timeout, validates the envelope, and on a failed attempt
  /// (drop detected, corrupt frame) NACKs a retransmission of the retained
  /// pristine frame — the retransmitted attempt draws its own fault
  /// decision — up to max_retries times. Returns ResourceExhausted when
  /// every attempt failed (the caller degrades) or IoError when no sender
  /// ever showed up within the overall deadline. `outcome` (optional)
  /// reports attempts used and the simulated seconds of backoff/delay the
  /// caller must charge to its comm clock.
  Status TryRecv(uint32_t to, uint32_t from, uint64_t tag,
                 std::vector<uint8_t>* out, RecvOutcome* outcome = nullptr);

  /// Arrival-order receive: blocks until *any* of the candidate `froms`
  /// peers is ready on `tag` — a delivery is queued, or (with an injector)
  /// the sender's retained slot proves its attempt was applied — then
  /// resolves that one peer with the full TryRecv NACK/retransmit protocol.
  /// Peers with a clean queued delivery are preferred over peers with only
  /// drop evidence, so fast arrivals are consumed first instead of
  /// head-of-line blocking behind a slow or faulty peer. `*from_out` names
  /// the resolved peer on OK and on ResourceExhausted (so the caller can
  /// retire it from its pending set and degrade just that peer); it is
  /// untouched on IoError (nobody sent within the deadline).
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

  /// Validates and strips the envelope: checks magic, version, tag echo,
  /// length, and payload CRC. Exposed for tests.
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

  /// Sender-retained pristine frame for NACK retransmission. `last_attempt`
  /// is the highest attempt index already applied; the receiver uses
  /// last_attempt >= its current attempt plus an empty queue to conclude
  /// "that attempt was dropped" without waiting out the timeout.
  struct Retained {
    std::vector<uint8_t> frame;
    uint32_t last_attempt = 0;
  };

  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::map<std::pair<uint32_t, uint64_t>, DeliveryQueue> messages;
    std::map<std::pair<uint32_t, uint64_t>, Retained> retained;
  };

  /// Applies the injector's verdict for one delivery attempt of the retained
  /// frame and enqueues the surviving copies. Caller holds box.mu.
  void DeliverAttempt(Mailbox& box, uint32_t from, uint32_t to, uint64_t tag,
                      uint32_t attempt, const std::vector<uint8_t>& frame);

  /// The framed NACK/retransmit loop shared by TryRecv and TryRecvAny:
  /// resolves one (from, tag) stream to either a validated payload, loss
  /// (ResourceExhausted), or a no-sender deadline (IoError). Requires an
  /// attached injector; caller holds `lock` on box.mu.
  Status ResolveFramedLocked(Mailbox& box, std::unique_lock<std::mutex>& lock,
                             uint32_t to, uint32_t from, uint64_t tag,
                             std::vector<uint8_t>* out, RecvOutcome& oc);

  const uint32_t parties_;
  std::vector<Mailbox> boxes_;
  CommStats stats_;
  FaultInjector* injector_ = nullptr;
  /// Lazily acquired `ecg_hub_sent_bytes_total{worker,peer}` handles, one
  /// per directed link (parties² cells). Acquisition locks the metrics
  /// registry and builds label strings; caching keeps the per-Send cost at
  /// one relaxed load plus a lock-free Inc.
  mutable std::vector<std::atomic<obs::Counter*>> sent_counters_;
};

}  // namespace ecg::dist

#endif  // ECGRAPH_DIST_COMM_H_
