#include "dist/cluster.h"

#include <algorithm>
#include <mutex>
#include <thread>

#include "common/stats.h"
#include "common/trace.h"

namespace ecg::dist {

void WorkerContext::Send(uint32_t to, uint64_t tag,
                         std::vector<uint8_t> payload) {
  if (obs::StatsEnabled()) {
    // Tags carry (epoch, layer) by construction (MakeTag), so the
    // transport can attribute every wire byte to its (layer, peer, worker)
    // link without the exchangers passing coordinates down.
    obs::RecordStat("comm.sent_bytes", static_cast<double>(payload.size()),
                    MessageHub::TagEpoch(tag), MessageHub::TagLayer(tag),
                    static_cast<int32_t>(to),
                    static_cast<int32_t>(worker_id_));
  }
  phase_sent_bytes_ += payload.size();
  ++phase_sent_msgs_;
  hub_->Send(worker_id_, to, tag, std::move(payload));
}

Status WorkerContext::TryRecvAny(const std::vector<uint32_t>& froms,
                                 uint64_t tag, uint32_t* from_out,
                                 std::vector<uint8_t>* out,
                                 double* penalty_seconds) {
  RecvOutcome outcome;
  Status status =
      hub_->TryRecvAny(worker_id_, froms, tag, from_out, out, &outcome);
  if (penalty_seconds != nullptr) *penalty_seconds = outcome.penalty_seconds;
  if (status.ok()) {
    phase_recv_bytes_ += out->size();
    ++phase_recv_msgs_;
  }
  return status;
}

void WorkerContext::EndCommPhase(const char* phase) {
  EndCommPhaseOverlapped(phase, 0.0);
}

double WorkerContext::EndCommPhaseOverlapped(const char* phase,
                                             double overlap_credit_seconds,
                                             double* phase_comm_seconds) {
  const double seconds =
      net_.PhaseSeconds(phase_sent_bytes_, phase_sent_msgs_,
                        phase_recv_bytes_, phase_recv_msgs_) +
      phase_penalty_seconds_;
  if (phase_comm_seconds != nullptr) *phase_comm_seconds = seconds;
  const double hidden = std::min(seconds, overlap_credit_seconds);
  const double charged = seconds - hidden;
  if (obs::TraceEnabled() && hidden > 0.0) {
    // The hidden wire time ran concurrently with already-charged compute:
    // draw it under the compute span it hid behind.
    obs::Tracer::Global().RecordSimSpan("overlap_hidden", worker_id_, -1,
                                        std::max(0.0, total_seconds() - hidden),
                                        hidden);
  }
  if (obs::TraceEnabled() && charged > 0.0) {
    obs::Tracer::Global().RecordSimSpan(phase, worker_id_, -1,
                                        total_seconds(), charged);
  }
  comm_seconds_ += charged;
  phase_sent_bytes_ = phase_sent_msgs_ = 0;
  phase_recv_bytes_ = phase_recv_msgs_ = 0;
  phase_penalty_seconds_ = 0.0;
  return hidden;
}

void WorkerContext::BarrierSync() { cluster_->BarrierSyncImpl(this); }

SimulatedCluster::SimulatedCluster(uint32_t num_workers, NetworkModel net,
                                   MachineModel machine,
                                   std::vector<double> worker_compute_scale)
    : num_workers_(num_workers), net_(net), machine_(machine),
      worker_compute_scale_(std::move(worker_compute_scale)),
      hub_(num_workers), barrier_(num_workers), clocks_(num_workers, 0.0) {}

void SimulatedCluster::BarrierSyncImpl(WorkerContext* ctx) {
  clocks_[ctx->worker_id_] = ctx->total_seconds();
  barrier_.Wait();
  const double mx = *std::max_element(clocks_.begin(), clocks_.end());
  // Waiting for the slowest peer is idle time, booked as communication
  // stall so the clocks stay aligned (lock-step BSP semantics).
  const double stall = mx - ctx->total_seconds();
  if (obs::TraceEnabled() && stall > 0.0) {
    obs::Tracer::Global().RecordSimSpan("barrier_stall", ctx->worker_id_, -1,
                                        ctx->total_seconds(), stall);
  }
  ctx->comm_seconds_ += stall;
  barrier_.Wait();
}

Status SimulatedCluster::Run(
    const std::function<Status(WorkerContext*)>& worker_fn) {
  std::vector<WorkerContext> contexts(num_workers_);
  for (uint32_t w = 0; w < num_workers_; ++w) {
    contexts[w].worker_id_ = w;
    contexts[w].num_workers_ = num_workers_;
    contexts[w].net_ = net_;
    contexts[w].machine_ = machine_;
    contexts[w].compute_scale_ = w < worker_compute_scale_.size()
                                     ? worker_compute_scale_[w]
                                     : 1.0;
    contexts[w].hub_ = &hub_;
    contexts[w].cluster_ = this;
  }

  Status first_error;
  std::mutex error_mu;
  std::vector<std::thread> threads;
  threads.reserve(num_workers_);
  for (uint32_t w = 0; w < num_workers_; ++w) {
    threads.emplace_back([&, w] {
      // Names this thread's real-time trace track "worker-N" and routes a
      // flight-recorder dump from this thread to flight_<N>.json.
      obs::SetCurrentThreadWorker(w);
      Status s = worker_fn(&contexts[w]);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) first_error = std::move(s);
      }
    });
  }
  for (auto& t : threads) t.join();

  makespan_seconds_ = 0.0;
  for (const auto& ctx : contexts) {
    makespan_seconds_ = std::max(makespan_seconds_, ctx.total_seconds());
  }
  return first_error;
}

}  // namespace ecg::dist
