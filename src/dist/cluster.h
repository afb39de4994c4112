#ifndef ECGRAPH_DIST_CLUSTER_H_
#define ECGRAPH_DIST_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/barrier.h"
#include "common/status.h"
#include "common/trace.h"
#include "dist/comm.h"
#include "dist/network_model.h"

namespace ecg::dist {

class SimulatedCluster;

/// Per-worker handle inside SimulatedCluster::Run. It wraps the transport
/// with two clocks:
///   * compute clock — real measured seconds, charged via ChargeCompute();
///   * comm clock — modelled seconds from the NetworkModel, charged when a
///     communication phase ends (EndCommPhase).
/// BarrierSync() is the BSP superstep boundary: all workers align their
/// simulated clocks to the slowest one, exactly like a lock-step cluster.
class WorkerContext {
 public:
  uint32_t worker_id() const { return worker_id_; }
  uint32_t num_workers() const { return num_workers_; }
  const NetworkModel& net() const { return net_; }

  /// The hub's fault injector, or nullptr when faults are off. Exchangers
  /// consult it to agree — deterministically, with no extra messages —
  /// on which of their sends can never be delivered (PermanentlyLost) so
  /// responder-side compensation state stays consistent with the peer.
  FaultInjector* fault_injector() const { return hub_->fault_injector(); }

  /// Sends a payload to `to`; traffic is attributed to the current phase.
  void Send(uint32_t to, uint64_t tag, std::vector<uint8_t> payload);

  /// The one receive: arrival-order, bounded under faults, over a
  /// candidate peer set (see MessageHub::TryRecvAny). The received bytes
  /// count toward the current comm phase. The fault penalty is NOT folded
  /// into the phase: a receiver fanning in from many peers waits on them
  /// concurrently, so the caller collects the per-peer penalties, takes
  /// the max, and charges it once via ChargePhasePenalty.
  /// `*penalty_seconds` (optional) reports this call's penalty.
  Status TryRecvAny(const std::vector<uint32_t>& froms, uint64_t tag,
                    uint32_t* from_out, std::vector<uint8_t>* out,
                    double* penalty_seconds = nullptr);

  /// Adds fault-induced wait seconds (retry backoff, injected delay) to the
  /// current comm phase. Fan-in callers charge the max across concurrently
  /// awaited peers, not the sum.
  void ChargePhasePenalty(double seconds) { phase_penalty_seconds_ += seconds; }

  /// Adds measured single-core compute seconds to this worker's clock,
  /// scaled by the machine model's multi-core speedup. When tracing is on,
  /// the charge lands as a span on this worker's simulated-clock track.
  /// Returns the charged (machine-scaled) seconds so overlapped schedules
  /// can credit them against an in-flight exchange.
  double ChargeCompute(double single_core_seconds) {
    const double charged =
        machine_.ComputeSeconds(single_core_seconds) * compute_scale_;
    if (obs::TraceEnabled() && charged > 0.0) {
      obs::Tracer::Global().RecordSimSpan("compute", worker_id_, -1,
                                          total_seconds(), charged);
    }
    compute_seconds_ += charged;
    return charged;
  }

  /// Adds modelled seconds directly (parameter-server pulls/pushes, which
  /// bypass the worker-to-worker hub).
  void ChargeCommSeconds(double seconds) { comm_seconds_ += seconds; }

  /// Ends the current communication phase: converts the bytes/messages
  /// sent and received since the last call into modelled seconds
  /// (full-duplex, slower direction dominates) and resets phase counters.
  /// `phase` names the span on the simulated-clock trace track; it must be
  /// a string literal (the tracer stores the pointer, not a copy).
  void EndCommPhase(const char* phase = "comm");

  /// Ends the current communication phase with overlap credit: compute that
  /// ran while the exchange was in flight hides up to its own duration of
  /// the wire time, so the phase charges max(0, comm − credit). Returns the
  /// hidden seconds (min(comm, credit)) for overlap.* stats;
  /// `*phase_comm_seconds` (optional) reports the full modelled comm time
  /// of the phase before the credit. With credit 0 this is exactly
  /// EndCommPhase.
  double EndCommPhaseOverlapped(const char* phase,
                                double overlap_credit_seconds,
                                double* phase_comm_seconds = nullptr);

  /// BSP barrier that also propagates the slowest worker's simulated time
  /// to everyone.
  void BarrierSync();

  double compute_seconds() const { return compute_seconds_; }
  double comm_seconds() const { return comm_seconds_; }
  double total_seconds() const { return compute_seconds_ + comm_seconds_; }

 private:
  friend class SimulatedCluster;

  // Phase traffic counters, reset by EndCommPhase().
  uint64_t phase_sent_bytes_ = 0;
  uint64_t phase_sent_msgs_ = 0;
  uint64_t phase_recv_bytes_ = 0;
  uint64_t phase_recv_msgs_ = 0;
  // Simulated seconds of fault-induced retry backoff and injected delay
  // accumulated this phase (ChargePhasePenalty), folded in by
  // EndCommPhase().
  double phase_penalty_seconds_ = 0.0;

  double compute_seconds_ = 0.0;
  double comm_seconds_ = 0.0;
  // Per-worker slowdown multiplier on charged compute (1.0 = nominal).
  // Models a heterogeneous / degraded machine: 2.0 = every compute second
  // costs two simulated seconds on this worker. Set from the cluster's
  // worker_compute_scale at Run().
  double compute_scale_ = 1.0;

  uint32_t worker_id_ = 0;
  uint32_t num_workers_ = 0;
  NetworkModel net_;
  MachineModel machine_;
  MessageHub* hub_ = nullptr;
  SimulatedCluster* cluster_ = nullptr;
};

/// Runs N workers as threads in lock-step. Owns the MessageHub and the
/// shared barrier. One SimulatedCluster instance = one training job.
class SimulatedCluster {
 public:
  /// `worker_compute_scale` (optional) gives per-worker compute slowdown
  /// multipliers — entry w scales worker w's ChargeCompute; missing entries
  /// default to 1.0. Used to model persistent stragglers (elastic bench).
  SimulatedCluster(uint32_t num_workers, NetworkModel net,
                   MachineModel machine = {},
                   std::vector<double> worker_compute_scale = {});

  /// Executes `worker_fn(ctx)` once per worker, concurrently, and joins.
  /// Statuses from workers are aggregated (first error wins).
  Status Run(const std::function<Status(WorkerContext*)>& worker_fn);

  MessageHub& hub() { return hub_; }
  CommStats& stats() { return hub_.stats(); }

  /// After Run: simulated makespan = max over workers of total_seconds.
  double MakespanSeconds() const { return makespan_seconds_; }

 private:
  friend class WorkerContext;

  void BarrierSyncImpl(WorkerContext* ctx);

  const uint32_t num_workers_;
  NetworkModel net_;
  MachineModel machine_;
  std::vector<double> worker_compute_scale_;
  MessageHub hub_;
  Barrier barrier_;
  std::vector<double> clocks_;  // per-worker total_seconds at last sync
  double makespan_seconds_ = 0.0;
};

}  // namespace ecg::dist

#endif  // ECGRAPH_DIST_CLUSTER_H_
