#include "dist/comm.h"

#include <chrono>
#include <cstring>
#include <sstream>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/trace.h"

namespace ecg::dist {
namespace {

/// Flow-event id shared by every trace event of one logical message:
/// splitmix64 over (tag, from, to). Retransmit attempts keep the same id —
/// they are steps of the same flow, which is exactly how a retry storm
/// should render in the viewer.
uint64_t FlowId(uint32_t from, uint32_t to, uint64_t tag) {
  uint64_t x = tag + 0x9E3779B97F4A7C15ull * (1 + from) +
               0xBF58476D1CE4E5B9ull * (1 + to);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

int32_t FlowLayer(uint64_t tag) {
  return static_cast<int32_t>(MessageHub::TagLayer(tag));
}

/// Deterministic bit corruption for the kCorrupt fault: flips one bit in
/// the payload region (past the header, so the CRC — not the field checks —
/// is what must catch it) at a position derived from the tag and attempt.
void CorruptFrame(std::vector<uint8_t>* frame, uint64_t tag,
                  uint32_t attempt) {
  if (frame->size() <= MessageHub::kEnvelopeBytes) {
    // Header-only frame (empty payload): flip a length byte instead.
    (*frame)[frame->size() - 5] ^= 0x10;
    return;
  }
  const size_t span = frame->size() - MessageHub::kEnvelopeBytes;
  const size_t pos =
      MessageHub::kEnvelopeBytes + ((tag ^ (attempt * 0x9E3779B9u)) % span);
  (*frame)[pos] ^= 1u << (attempt % 8);
}

}  // namespace

std::vector<uint8_t> MessageHub::FrameEnvelope(
    uint64_t tag, uint32_t attempt, const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame;
  frame.reserve(kEnvelopeBytes + payload.size());
  ByteWriter w(&frame);
  w.PutU32(kEnvelopeMagic);
  w.PutU8(kEnvelopeVersion);
  w.PutU8(0);  // flags (reserved)
  w.PutU32(attempt);
  w.PutU64(tag);
  w.PutU64(payload.size());
  w.PutU32(Crc32c(payload.data(), payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

Status MessageHub::ParseEnvelope(const std::vector<uint8_t>& frame,
                                 uint64_t tag,
                                 std::vector<uint8_t>* payload) {
  if (frame.size() < kEnvelopeBytes) {
    return Status::InvalidArgument(
        "envelope truncated: " + std::to_string(frame.size()) + " bytes < " +
        std::to_string(kEnvelopeBytes) + "-byte header");
  }
  ByteReader r(frame);
  uint32_t magic = 0, attempt = 0, crc = 0;
  uint8_t version = 0, flags = 0;
  uint64_t tag_echo = 0, length = 0;
  ECG_RETURN_IF_ERROR(r.GetU32(&magic));
  ECG_RETURN_IF_ERROR(r.GetU8(&version));
  ECG_RETURN_IF_ERROR(r.GetU8(&flags));
  ECG_RETURN_IF_ERROR(r.GetU32(&attempt));
  ECG_RETURN_IF_ERROR(r.GetU64(&tag_echo));
  ECG_RETURN_IF_ERROR(r.GetU64(&length));
  ECG_RETURN_IF_ERROR(r.GetU32(&crc));
  if (magic != kEnvelopeMagic) {
    std::ostringstream os;
    os << "envelope magic mismatch: got 0x" << std::hex << magic
       << " want 0x" << kEnvelopeMagic;
    return Status::InvalidArgument(os.str());
  }
  if (version != kEnvelopeVersion) {
    return Status::InvalidArgument(
        "envelope version mismatch: got " + std::to_string(version) +
        " want " + std::to_string(kEnvelopeVersion));
  }
  if (flags != 0) {
    return Status::InvalidArgument("envelope flags byte is reserved: got " +
                                   std::to_string(flags) + " want 0");
  }
  if (tag_echo != tag) {
    return Status::InvalidArgument(
        "envelope tag echo mismatch: got " + std::to_string(tag_echo) +
        " want " + std::to_string(tag));
  }
  if (length != frame.size() - kEnvelopeBytes) {
    return Status::InvalidArgument(
        "envelope length mismatch: header says " + std::to_string(length) +
        " bytes, frame carries " +
        std::to_string(frame.size() - kEnvelopeBytes));
  }
  const uint8_t* body = frame.data() + kEnvelopeBytes;
  const uint32_t actual_crc = Crc32c(body, length);
  if (actual_crc != crc) {
    std::ostringstream os;
    os << "envelope CRC mismatch: got 0x" << std::hex << actual_crc
       << " want 0x" << crc << " over " << std::dec << length << " bytes";
    return Status::InvalidArgument(os.str());
  }
  payload->assign(body, body + length);
  return Status::OK();
}

void MessageHub::DeliverAttempt(Mailbox& box, uint32_t from, uint32_t to,
                                uint64_t tag, uint32_t attempt,
                                const std::vector<uint8_t>& frame) {
  const FaultDecision decision = injector_->OnAttempt(from, to, tag, attempt);
  FaultCounters& counters = injector_->counters();
  const uint32_t epoch = TagEpoch(tag);
  const int32_t layer = static_cast<int32_t>(TagLayer(tag));
  if (decision.drop) {
    counters.dropped.fetch_add(1, std::memory_order_relaxed);
    obs::RecordStat("fault.dropped", 1.0, epoch, layer,
                    static_cast<int32_t>(from));
    return;  // the attempt vanishes; the receiver times out or NACKs
  }
  const auto key = std::make_pair(from, tag);
  Delivery delivery;
  delivery.bytes = frame;
  delivery.delay_seconds = decision.delay_seconds;
  if (decision.corrupt) {
    counters.corrupted.fetch_add(1, std::memory_order_relaxed);
    obs::RecordStat("fault.corrupted", 1.0, epoch, layer,
                    static_cast<int32_t>(from));
    // Re-frame with the right attempt echo, then flip bits: the receiver
    // must detect this via the CRC, not via a stale attempt field.
    CorruptFrame(&delivery.bytes, tag, attempt);
  }
  if (decision.delay_seconds > 0.0) {
    counters.delayed.fetch_add(1, std::memory_order_relaxed);
    obs::RecordStat("fault.delayed", 1.0, epoch, layer,
                    static_cast<int32_t>(from));
  }
  if (decision.duplicate) {
    counters.duplicated.fetch_add(1, std::memory_order_relaxed);
    obs::RecordStat("fault.duplicated", 1.0, epoch, layer,
                    static_cast<int32_t>(from));
    box.messages[key].push_back(delivery);
  }
  box.messages[key].push_back(std::move(delivery));
}

void MessageHub::Send(uint32_t from, uint32_t to, uint64_t tag,
                      std::vector<uint8_t> payload) {
  ECG_CHECK(from < parties_ && to < parties_)
      << "Send worker id out of range: from=" << from << " to=" << to
      << " parties=" << parties_;
  stats_.RecordSend(from, payload.size());
  if (obs::TraceEnabled(1)) {
    obs::Tracer::Global().RecordFlow(obs::FlowPhase::kStart, "msg", from, to,
                                     FlowLayer(tag), FlowId(from, to, tag));
  }
  Mailbox& box = boxes_[to];
  if (injector_ == nullptr) {
    // Fault-free fast path: raw payload, no framing, no copies retained.
    std::lock_guard<std::mutex> lock(box.mu);
    const auto key = std::make_pair(from, tag);
    ECG_CHECK(box.messages.find(key) == box.messages.end())
        << "duplicate message from " << from << " tag " << tag;
    box.messages[key].push_back(Delivery{std::move(payload), 0.0});
    box.cv.notify_all();
    return;
  }
  std::vector<uint8_t> frame = FrameEnvelope(tag, /*attempt=*/0, payload);
  {
    std::lock_guard<std::mutex> lock(box.mu);
    const auto key = std::make_pair(from, tag);
    ECG_CHECK(box.retained.find(key) == box.retained.end())
        << "duplicate message from " << from << " tag " << tag;
    box.retained[key] = frame;
    DeliverAttempt(box, from, to, tag, /*attempt=*/0, frame);
  }
  box.cv.notify_all();
}

Status MessageHub::ResolveFramedLocked(Mailbox& box, uint32_t to,
                                       uint32_t from, uint64_t tag,
                                       std::vector<uint8_t>* out,
                                       RecvOutcome& oc) {
  FaultCounters& counters = injector_->counters();
  const uint32_t max_retries = injector_->max_retries();
  const auto key = std::make_pair(from, tag);
  uint32_t attempt = 0;
  oc.attempts = 0;
  while (true) {
    // Each pass consumes one attempt. No wait is needed: the peer is ready
    // (its retained slot exists), and every retransmission below is
    // applied before the next pass, so an empty queue means the current
    // attempt was applied and dropped.
    ++oc.attempts;
    auto qit = box.messages.find(key);
    if (qit != box.messages.end()) {
      Delivery delivery = qit->second.pop_front();
      if (qit->second.empty()) box.messages.erase(qit);
      oc.penalty_seconds += delivery.delay_seconds;
      Status parsed = ParseEnvelope(delivery.bytes, tag, out);
      if (parsed.ok()) {
        // Success: drain duplicate deliveries of the same message and drop
        // the retransmit buffer.
        box.messages.erase(key);
        box.retained.erase(key);
        if (obs::TraceEnabled(1)) {
          obs::Tracer::Global().RecordFlow(obs::FlowPhase::kEnd, "msg", to,
                                           from, FlowLayer(tag),
                                           FlowId(from, to, tag));
        }
        return Status::OK();
      }
      ECG_LOG(Debug) << "receive attempt " << attempt
                     << " failed validation: " << parsed.ToString();
    }

    if (attempt >= max_retries) {
      box.messages.erase(key);
      box.retained.erase(key);
      counters.lost.fetch_add(1, std::memory_order_relaxed);
      obs::RecordStat("fault.lost", 1.0, TagEpoch(tag), TagLayer(tag),
                      static_cast<int32_t>(from));
      return Status::ResourceExhausted(
          "message lost after " + std::to_string(max_retries + 1) +
          " attempts: from=" + std::to_string(from) +
          " epoch=" + std::to_string(TagEpoch(tag)) +
          " layer=" + std::to_string(TagLayer(tag)) +
          " kind=" + std::to_string(TagKind(tag)));
    }
    // NACK: re-request the retained pristine frame. The retransmission
    // draws its own fault decision, and its backoff is charged to the
    // simulated clock.
    ++attempt;
    auto rit = box.retained.find(key);
    ECG_CHECK(rit != box.retained.end())
        << "retransmit buffer missing for from=" << from << " tag=" << tag;
    counters.retried.fetch_add(1, std::memory_order_relaxed);
    counters.nacks.fetch_add(1, std::memory_order_relaxed);
    obs::RecordStat("fault.retried", 1.0, TagEpoch(tag), TagLayer(tag),
                    static_cast<int32_t>(from));
    const double backoff = injector_->retry_backoff_seconds();
    oc.penalty_seconds += backoff;
    std::vector<uint8_t> frame =
        FrameEnvelope(tag, attempt,
                      std::vector<uint8_t>(
                          rit->second.begin() + kEnvelopeBytes,
                          rit->second.end()));
    counters.retransmit_bytes.fetch_add(frame.size(),
                                        std::memory_order_relaxed);
    obs::RecordStat("fault.retransmit_bytes",
                    static_cast<double>(frame.size()), TagEpoch(tag),
                    TagLayer(tag), static_cast<int32_t>(from));
    // Per-link backoff: the retry-storm signal the chaos bench watches
    // (worker = the receiver issuing the NACK).
    obs::RecordStat("fault.backoff_seconds", backoff, TagEpoch(tag),
                    TagLayer(tag), static_cast<int32_t>(from),
                    static_cast<int32_t>(to));
    if (obs::TraceEnabled(1)) {
      obs::Tracer::Global().RecordFlow(obs::FlowPhase::kStep, "msg", to,
                                       from, FlowLayer(tag),
                                       FlowId(from, to, tag));
    }
    DeliverAttempt(box, from, to, tag, attempt, frame);
  }
}

Status MessageHub::TryRecvAny(uint32_t to,
                              const std::vector<uint32_t>& froms,
                              uint64_t tag, uint32_t* from_out,
                              std::vector<uint8_t>* out,
                              RecvOutcome* outcome) {
  ECG_CHECK(to < parties_) << "TryRecvAny worker id out of range: to=" << to
                           << " parties=" << parties_;
  for (uint32_t from : froms) {
    ECG_CHECK(from < parties_)
        << "TryRecvAny worker id out of range: from=" << from
        << " parties=" << parties_;
  }
  if (froms.empty()) {
    return Status::InvalidArgument("TryRecvAny: empty candidate set");
  }
  RecvOutcome local;
  RecvOutcome& oc = outcome != nullptr ? *outcome : local;
  oc = RecvOutcome{};

  Mailbox& box = boxes_[to];
  std::unique_lock<std::mutex> lock(box.mu);
  if (injector_ == nullptr) {
    // Fault-free transport: block, unbounded, until any candidate's
    // message is queued.
    box.cv.wait(lock, [&] {
      for (uint32_t from : froms) {
        if (box.messages.count(std::make_pair(from, tag)) > 0) return true;
      }
      return false;
    });
    for (uint32_t from : froms) {
      auto it = box.messages.find(std::make_pair(from, tag));
      if (it == box.messages.end()) continue;
      *from_out = from;
      *out = std::move(it->second.front().bytes);
      box.messages.erase(it);
      if (obs::TraceEnabled(1)) {
        obs::Tracer::Global().RecordFlow(obs::FlowPhase::kEnd, "msg", to,
                                         from, FlowLayer(tag),
                                         FlowId(from, to, tag));
      }
      return Status::OK();
    }
    ECG_CHECK(false) << "TryRecvAny woke without a ready peer";
    return Status::IoError("unreachable");
  }

  const uint32_t max_retries = injector_->max_retries();
  const auto attempt_timeout =
      std::chrono::milliseconds(injector_->recv_timeout_ms());
  const auto deadline = std::chrono::steady_clock::now() +
                        attempt_timeout * (max_retries + 2);
  // A peer is "ready" once a delivery is queued or its retained slot exists
  // (Send installs the slot before the first delivery attempt, so its
  // presence is proof the sender has sent — a missing queue entry then
  // means the attempt was dropped and the NACK path can run without any
  // further waiting).
  const bool signalled = box.cv.wait_until(lock, deadline, [&] {
    for (uint32_t from : froms) {
      const auto key = std::make_pair(from, tag);
      if (box.messages.count(key) > 0) return true;
      if (box.retained.count(key) > 0) return true;
    }
    return false;
  });
  if (!signalled) {
    return Status::IoError(
        "TryRecvAny deadline: no sender for to=" + std::to_string(to) +
        " among " + std::to_string(froms.size()) +
        " peers, epoch=" + std::to_string(TagEpoch(tag)) +
        " layer=" + std::to_string(TagLayer(tag)) +
        " kind=" + std::to_string(TagKind(tag)));
  }
  // Prefer a peer with a clean queued delivery over one with only drop
  // evidence so undamaged arrivals resolve first.
  uint32_t chosen = parties_;
  for (uint32_t from : froms) {
    if (box.messages.count(std::make_pair(from, tag)) > 0) {
      chosen = from;
      break;
    }
  }
  if (chosen == parties_) {
    for (uint32_t from : froms) {
      if (box.retained.count(std::make_pair(from, tag)) > 0) {
        chosen = from;
        break;
      }
    }
  }
  ECG_CHECK(chosen != parties_) << "TryRecvAny woke without a ready peer";
  *from_out = chosen;
  return ResolveFramedLocked(box, to, chosen, tag, out, oc);
}

}  // namespace ecg::dist
