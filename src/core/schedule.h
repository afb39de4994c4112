#ifndef ECGRAPH_CORE_SCHEDULE_H_
#define ECGRAPH_CORE_SCHEDULE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/exchange.h"
#include "core/gnn_layer.h"
#include "core/halo.h"
#include "core/metrics_board.h"
#include "dist/cluster.h"
#include "dist/param_server.h"
#include "tensor/csr.h"
#include "tensor/nn.h"
#include "tensor/ops.h"

namespace ecg::core::internal {

/// Books the simulated seconds a scope advances the worker's clock by
/// (compute charges + modelled comm + stalls) as one row of the
/// "phase.<name>" stat at (`epoch`, `layer`); `layer` is the one the
/// scope's trace span carries, -1 where it has none. These rows are the
/// one store of the sim-clock phase breakdown; ECG_TRACE_SCOPE records the
/// *real* seconds of the same scope on the trace track.
class PhaseScope {
 public:
  PhaseScope(dist::WorkerContext* ctx, uint32_t epoch, const char* name,
             int32_t layer = -1)
      : ctx_(ctx), epoch_(epoch), name_(name), layer_(layer),
        start_(ctx->total_seconds()) {}
  ~PhaseScope() {
    if (obs::StatsEnabled()) {
      obs::RecordStat(std::string("phase.") + name_,
                      ctx_->total_seconds() - start_, epoch_, layer_);
    }
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  dist::WorkerContext* ctx_;
  uint32_t epoch_;
  const char* name_;
  int32_t layer_;
  double start_;
};

/// One compute step of a trainer's epoch: books the scope's simulated
/// seconds as phase `phase` (PhaseScope), records the real-clock span
/// `span`, both at `layer`, and on close charges the thread CPU the scope
/// used to the worker's compute clock. `*charged` (optional) receives the
/// charged, machine-scaled seconds — an overlapped exchange's credit.
class ComputeStep {
 public:
  ComputeStep(dist::WorkerContext* ctx, uint32_t epoch, const char* phase,
              const char* span, int32_t layer, double* charged = nullptr)
      : ctx_(ctx),
        charged_(charged),
        phase_(ctx, epoch, phase, layer),
        trace_(span, ctx->worker_id(), layer) {}
  ~ComputeStep() {
    const double charged = ctx_->ChargeCompute(cpu_.ElapsedSeconds());
    if (charged_ != nullptr) *charged_ = charged;
  }
  ComputeStep(const ComputeStep&) = delete;
  ComputeStep& operator=(const ComputeStep&) = delete;

 private:
  dist::WorkerContext* ctx_;
  double* charged_;
  // Declaration order is construction order: the CPU timer starts last,
  // and the charge lands before the span and the phase close.
  PhaseScope phase_;
  obs::TraceScope trace_;
  ThreadCpuTimer cpu_;
};

/// The one epoch schedule both trainers run, for one worker and one
/// epoch. Every halo exchange goes
///
///   Start → owned step → Finish → comm charge + overlap.* stats
///         → halo step
///
/// where the owned step aggregates every row's owned columns and the halo
/// step adds its halo columns and finishes the layer (GnnLayer). `overlap`
/// only decides whether the owned step's CPU is credited against the
/// exchange's wire time: with it off the same steps run in the same order
/// with zero credit, so activations, gradients and wire bytes are
/// identical either way.
class Schedule {
 public:
  Schedule(dist::WorkerContext* ctx, MetricsBoard* board, uint32_t epoch,
           bool overlap)
      : ctx_(ctx), board_(board), epoch_(epoch), overlap_(overlap) {}

  /// A compute step booked as `phase`, traced as `span` (default: the
  /// phase name) at `layer`.
  ComputeStep Step(const char* phase, int32_t layer,
                   const char* span = nullptr) const {
    return ComputeStep(ctx_, epoch_, phase, span != nullptr ? span : phase,
                       layer);
  }

  /// Split-phase halo exchange of layer `layer`'s `owned` rows into
  /// `halo`, with `owned_step` and `halo_step` run as the two compute
  /// steps. The exchanger's direction names the phases: FP exchanges
  /// H^layer and books both steps as layer+1's fp_compute; BP exchanges
  /// G^layer and books both steps as layer's bp_compute.
  Status SplitPhase(HaloExchanger* ex, const WorkerPlan& plan, uint16_t layer,
                    const tensor::Matrix& owned, tensor::Matrix* halo,
                    const std::function<void()>& owned_step,
                    const std::function<void()>& halo_step) const {
    const HaloDirection& dir = ex->direction();
    const int32_t compute_layer = layer + dir.compute_layer_offset;
    {
      PhaseScope phase(ctx_, epoch_, dir.exchange, layer);
      ECG_TRACE_SCOPE(dir.exchange, ctx_->worker_id(), layer);
      ECG_RETURN_IF_ERROR(ex->Start(ctx_, plan, epoch_, layer, owned));
    }
    double credit = 0.0;
    {
      ComputeStep step(ctx_, epoch_, dir.compute, dir.compute, compute_layer,
                       &credit);
      owned_step();
    }
    if (!overlap_) credit = 0.0;
    {
      PhaseScope phase(ctx_, epoch_, dir.exchange, layer);
      ECG_TRACE_SCOPE(dir.finish, ctx_->worker_id(), layer);
      ECG_RETURN_IF_ERROR(ex->Finish(ctx_, plan, epoch_, layer, halo));
      double comm_s = 0.0;
      const double hidden =
          ctx_->EndCommPhaseOverlapped(dir.comm, credit, &comm_s);
      if (obs::StatsEnabled()) {
        obs::RecordStat("overlap.hidden_seconds", hidden, epoch_, layer);
        if (comm_s > 0.0) {
          obs::RecordStat("overlap.frac", hidden / comm_s, epoch_, layer);
        }
      }
    }
    ComputeStep step(ctx_, epoch_, dir.compute, dir.compute, compute_layer);
    halo_step();
    return Status::OK();
  }

  /// Layer `l`'s (1-based) forward: its input `x` goes out through `ex`
  /// into `halo` around the layer's owned and halo steps.
  Status Forward(HaloExchanger* ex, const WorkerPlan& plan, int32_t l,
                 GnnLayer* layer, const tensor::Matrix& x,
                 tensor::Matrix* halo) const {
    return SplitPhase(
        ex, plan, static_cast<uint16_t>(l - 1), x, halo,
        [&] { layer->ForwardOwned(plan.adj, x); },
        [&] { layer->ForwardHalo(plan.adj, x, *halo); });
  }

  /// Layer `l`'s backward: `*g` is dL/dH^l on entry, dL/dH^{l-1} on
  /// return. The ReLU mask, layer 1's dW/db and SAGE's G·Wᵀ are bp_compute
  /// steps of their own; from layer 2 up the shipped matrix goes out
  /// through `ex` around the owned and halo steps.
  Status Backward(HaloExchanger* ex, const WorkerPlan& plan, int32_t l,
                  GnnLayer* layer, tensor::Matrix* g, tensor::Matrix* dw,
                  tensor::Matrix* db) const {
    if (layer->relu()) {
      auto step = Step("bp_compute", l);
      layer->ReluBackward(g);
    }
    if (l == 1) {
      auto step = Step("bp_compute", l);
      layer->ParamGrads(*g, dw, db);
      return Status::OK();
    }
    const tensor::Matrix* shipped = g;
    if (layer->TransformsBeforeShip()) {
      auto step = Step("bp_compute", l);
      shipped = &layer->Ship(*g);
    }
    tensor::Matrix halo(plan.num_halo(), shipped->cols()), g_in;
    ECG_RETURN_IF_ERROR(SplitPhase(
        ex, plan, static_cast<uint16_t>(l), *shipped, &halo,
        [&] { layer->BackwardOwned(plan.bp_adj(), *g, dw, db, &g_in); },
        [&] { layer->BackwardHalo(plan.bp_adj(), halo, &g_in); }));
    *g = std::move(g_in);
    return Status::OK();
  }

  /// Pulls layer `layer`'s weights and bias (param_sync phase).
  void Pull(const dist::ParameterServerGroup& ps, int32_t layer,
            tensor::Matrix* w, tensor::Matrix* b) const {
    PhaseScope phase(ctx_, epoch_, "param_sync", layer);
    ECG_TRACE_SCOPE("param_pull", ctx_->worker_id(), layer);
    const auto pull = ps.Pull(layer, w, b);
    ctx_->ChargeCommSeconds(pull.Seconds(ctx_->net()));
    board_->param_bytes.fetch_add(pull.bytes, std::memory_order_relaxed);
    if (obs::StatsEnabled()) {
      obs::RecordStat("ps.pull_bytes", static_cast<double>(pull.bytes),
                      epoch_, layer);
    }
  }

  /// Pushes the epoch's gradients (param_sync phase).
  void Push(dist::ParameterServerGroup* ps, std::vector<tensor::Matrix> dw,
            std::vector<tensor::Matrix> db) const {
    PhaseScope phase(ctx_, epoch_, "param_sync");
    ECG_TRACE_SCOPE("param_push", ctx_->worker_id(), -1);
    const auto push =
        ps->Push(ctx_->worker_id(), std::move(dw), std::move(db));
    ctx_->ChargeCommSeconds(push.Seconds(ctx_->net()));
    board_->param_bytes.fetch_add(push.bytes, std::memory_order_relaxed);
    if (obs::StatsEnabled()) {
      obs::RecordStat("ps.push_bytes", static_cast<double>(push.bytes),
                      epoch_);
    }
  }

  /// Loss step at `layer`: softmax cross-entropy of `logits` over the
  /// training rows (rows_of[0]) into `grad`; this worker's loss and
  /// train/val/test hit counts go to the board.
  void Loss(const tensor::Matrix& logits, const std::vector<int32_t>& labels,
            const std::vector<uint32_t> (&rows_of)[3], size_t global_train,
            int32_t layer, tensor::Matrix* grad) const {
    uint64_t correct[3], totals[3];
    double local_loss;
    {
      auto step = Step("loss", layer);
      local_loss = tensor::SoftmaxCrossEntropy(logits, labels, rows_of[0],
                                               global_train, grad);
      for (int s = 0; s < 3; ++s) {
        totals[s] = rows_of[s].size();
        correct[s] = static_cast<uint64_t>(
            tensor::Accuracy(logits, labels, rows_of[s]) *
                static_cast<double>(rows_of[s].size()) +
            0.5);
      }
    }
    board_->AddLocal(ctx_->worker_id(), local_loss, correct, totals);
  }

  /// Ends the epoch: worker 0 books it at `clock` with `comm_bytes` sent
  /// so far (logged as `tag` every `log_every` epochs), then all workers
  /// sync, and worker 0 flushes the epoch's stats rows: every worker's
  /// rows of the epoch precede that barrier, so each (epoch, series) is
  /// written as one row. Returns whether early stopping ends the run.
  bool EndEpoch(double clock, uint64_t comm_bytes, size_t global_train,
                uint32_t patience, uint32_t log_every,
                const std::string& tag) const {
    if (ctx_->worker_id() == 0) {
      board_->FinalizeEpoch(epoch_, clock, comm_bytes, global_train,
                            patience);
      if (log_every > 0 && epoch_ % log_every == 0) {
        const EpochMetrics& m = board_->epochs.back();
        ECG_LOG(Info) << tag << " epoch " << epoch_ << " loss " << m.loss
                      << " val " << m.val_acc << " test " << m.test_acc
                      << " sim_s " << m.sim_seconds;
      }
    }
    ctx_->BarrierSync();
    if (ctx_->worker_id() == 0 && obs::StatsEnabled()) {
      obs::StatsRegistry::Global().FlushEpoch(epoch_);
    }
    return board_->stop.load(std::memory_order_relaxed);
  }

 private:
  dist::WorkerContext* ctx_;
  MetricsBoard* board_;
  uint32_t epoch_;
  bool overlap_;
};

}  // namespace ecg::core::internal

#endif  // ECGRAPH_CORE_SCHEDULE_H_
