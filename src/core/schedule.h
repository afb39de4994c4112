#ifndef ECGRAPH_CORE_SCHEDULE_H_
#define ECGRAPH_CORE_SCHEDULE_H_

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/timer.h"
#include "common/trace.h"
#include "compress/int8_gemm.h"
#include "core/exchange.h"
#include "core/halo.h"
#include "core/metrics_board.h"
#include "dist/cluster.h"
#include "dist/param_server.h"
#include "tensor/csr.h"
#include "tensor/nn.h"
#include "tensor/ops.h"

namespace ecg::core::internal {

/// One compute step of a trainer's epoch: books the scope's simulated
/// seconds as phase `phase` (PhaseScope), records the real-clock span
/// `span` at `layer`, and on close charges the thread CPU the scope used
/// to the worker's compute clock. `*charged` (optional) receives the
/// charged, machine-scaled seconds — an overlapped exchange's credit.
class ComputeStep {
 public:
  ComputeStep(dist::WorkerContext* ctx, MetricsBoard* board, uint32_t epoch,
              const char* phase, const char* span, int32_t layer,
              double* charged = nullptr)
      : ctx_(ctx),
        charged_(charged),
        phase_(ctx, board, epoch, phase),
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
  PhaseScope<dist::WorkerContext> phase_;
  obs::TraceScope trace_;
  ThreadCpuTimer cpu_;
};

/// The one epoch schedule both trainers run, for one worker and one
/// epoch. Every halo exchange goes
///
///   Start → interior step → Finish → comm charge + overlap.* stats
///         → boundary step
///
/// where the interior step computes the rows whose aggregation reads only
/// owned columns and the boundary step the rest. `overlap` only decides
/// whether the interior step's CPU is credited against the exchange's
/// wire time: with it off the same steps run in the same order with zero
/// credit, so activations, gradients and wire bytes are identical either
/// way.
class Schedule {
 public:
  Schedule(dist::WorkerContext* ctx, MetricsBoard* board, uint32_t epoch,
           bool overlap)
      : ctx_(ctx), board_(board), epoch_(epoch), overlap_(overlap) {}

  /// A compute step booked as `phase`, traced as `span` (default: the
  /// phase name) at `layer`.
  ComputeStep Step(const char* phase, int32_t layer,
                   const char* span = nullptr) const {
    return ComputeStep(ctx_, board_, epoch_, phase,
                       span != nullptr ? span : phase, layer);
  }

  /// Split-phase halo exchange of layer `layer`'s `owned` rows into
  /// `halo`, with `interior` and `boundary` run as the two compute steps.
  /// FP exchanges H^layer and books both steps as layer+1's fp_compute;
  /// BP exchanges G^layer and books both steps as layer's bp_compute.
  template <typename Exchanger>
  Status SplitPhase(Exchanger* ex, const WorkerPlan& plan, uint16_t layer,
                    const tensor::Matrix& owned, tensor::Matrix* halo,
                    const std::function<void()>& interior,
                    const std::function<void()>& boundary) const {
    constexpr bool fp = std::is_base_of_v<FpExchanger, Exchanger>;
    const char* exchange = fp ? "fp_exchange" : "bp_exchange";
    const char* compute = fp ? "fp_compute" : "bp_compute";
    const int32_t compute_layer = fp ? layer + 1 : layer;
    {
      Phase phase(ctx_, board_, epoch_, exchange);
      ECG_TRACE_SCOPE(exchange, ctx_->worker_id(), layer);
      ECG_RETURN_IF_ERROR(ex->Start(ctx_, plan, epoch_, layer, owned));
    }
    double credit = 0.0;
    {
      ComputeStep step(ctx_, board_, epoch_, compute, compute, compute_layer,
                       &credit);
      interior();
    }
    if (!overlap_) credit = 0.0;
    {
      Phase phase(ctx_, board_, epoch_, exchange);
      ECG_TRACE_SCOPE(fp ? "fp_finish" : "bp_finish", ctx_->worker_id(),
                      layer);
      ECG_RETURN_IF_ERROR(ex->Finish(ctx_, plan, epoch_, layer, halo));
      double comm_s = 0.0;
      const double hidden = ctx_->EndCommPhaseOverlapped(
          fp ? "fp_comm" : "bp_comm", credit, &comm_s);
      if (obs::StatsEnabled()) {
        obs::RecordStat("overlap.hidden_seconds", hidden, epoch_, layer);
        if (comm_s > 0.0) {
          obs::RecordStat("overlap.frac", hidden / comm_s, epoch_, layer);
        }
      }
    }
    ComputeStep step(ctx_, board_, epoch_, compute, compute, compute_layer);
    boundary();
    return Status::OK();
  }

  /// Pulls layer `layer`'s weights and bias (param_sync phase).
  void Pull(const dist::ParameterServerGroup& ps, int32_t layer,
            tensor::Matrix* w, tensor::Matrix* b) const {
    Phase phase(ctx_, board_, epoch_, "param_sync");
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
    Phase phase(ctx_, board_, epoch_, "param_sync");
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

 private:
  using Phase = PhaseScope<dist::WorkerContext>;

  dist::WorkerContext* ctx_;
  MetricsBoard* board_;
  uint32_t epoch_;
  bool overlap_;
};

/// GCN forward on `rows`: P[rows] = Â[rows]·[H ; H_halo], then
/// Z[rows] = P[rows]·W — in the int8 packed domain when `int8` is set and
/// the shape allows (compress::Int8GemmRows), else float GemmRows. `p` and
/// `z` are pre-sized; rows not listed are left untouched.
inline void GcnForwardRows(const tensor::CsrMatrix& adj,
                           const tensor::Matrix& h,
                           const tensor::Matrix& h_halo,
                           const tensor::Matrix& w,
                           const std::vector<uint32_t>& rows, bool int8,
                           tensor::Matrix* p, tensor::Matrix* z) {
  adj.SpMMRows(h, h_halo, rows, p);
  if (!(int8 && compress::Int8GemmRows(*p, w, rows, z))) {
    tensor::GemmRows(*p, w, rows, z);
  }
}

/// GCN backward on `rows`: T[rows] = Â[rows]·[G ; G_halo], then
/// G_prev[rows] = T[rows]·Wᵀ. `t` and `g_prev` are pre-sized.
inline void GcnBackwardRows(const tensor::CsrMatrix& adj,
                            const tensor::Matrix& g,
                            const tensor::Matrix& g_halo,
                            const tensor::Matrix& w,
                            const std::vector<uint32_t>& rows,
                            tensor::Matrix* t, tensor::Matrix* g_prev) {
  adj.SpMMRows(g, g_halo, rows, t);
  tensor::GemmTransposeBRows(*t, w, rows, g_prev);
}

}  // namespace ecg::core::internal

#endif  // ECGRAPH_CORE_SCHEDULE_H_
