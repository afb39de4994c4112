#include "core/trainer.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/flight_recorder.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/checkpoint.h"
#include "core/halo.h"
#include "core/metrics_board.h"
#include "core/schedule.h"
#include "core/wire_util.h"
#include "dist/cluster.h"
#include "dist/elastic.h"
#include "dist/fault.h"
#include "tensor/ops.h"

namespace ecg::core {
namespace {

using dist::ParameterServerGroup;
using dist::SimulatedCluster;
using dist::WorkerContext;
using internal::MetricsBoard;
using internal::PhaseScope;
using tensor::Matrix;

}  // namespace

DistributedTrainer::DistributedTrainer(const graph::Graph& g,
                                       const graph::Partition& partition,
                                       TrainOptions options)
    : graph_(g), partition_(partition), options_(std::move(options)) {}

Result<TrainResult> DistributedTrainer::Train() {
  const int L = options_.model.num_layers;
  if (L < 1) return Status::InvalidArgument("GCN needs at least one layer");
  if (graph_.train_set().empty()) {
    return Status::FailedPrecondition("graph has no training split");
  }
  // Elastic membership (DESIGN.md §14): parse the spec up front. An empty
  // spec yields an inactive controller and the loop below runs exactly one
  // fixed-membership round — that path is bit-identical to the pre-elastic
  // trainer (same barriers, same clock arithmetic).
  ECG_ASSIGN_OR_RETURN(elastic::ElasticOptions eopts,
                       elastic::ElasticOptions::Parse(options_.elastic));
  const bool elastic_on = eopts.active;
  elastic::ElasticController controller(eopts, partition_.num_parts,
                                        options_.worker_compute_scale);
  if (elastic_on) elastic::MembershipLog::Global().Reset();

  const std::vector<size_t> dims = GcnLayerDims(
      options_.model, graph_.feature_dim(), graph_.num_classes());
  const size_t global_train = graph_.train_set().size();

  MetricsBoard board;

  // Fault tolerance wiring: the process-wide injector (from --faults /
  // ScopedFaultInjector) attaches to each round's hub, switching the
  // transport to framed envelopes with bounded, retrying receives. A crash
  // schedule forces checkpointing on (every epoch unless configured
  // coarser) so the restore path always has a snapshot to rewind to; an
  // elastic schedule does too, because every membership transition
  // migrates model/optimizer/compensation state out of the latest
  // checkpoint.
  dist::FaultInjector* injector = dist::GlobalFaultInjector();
  uint32_t checkpoint_every = options_.checkpoint_every;
  if (checkpoint_every == 0 && injector != nullptr &&
      injector->HasCrashSchedule()) {
    checkpoint_every = 1;
  }
  if (elastic_on && checkpoint_every == 0) checkpoint_every = 1;

  // Working assignment: starts at the caller's partition and is replaced
  // by every committed membership transition.
  graph::Partition part = partition_;

  // Cross-round accumulators. Each round runs its own SimulatedCluster
  // whose clocks start at zero, so the board sees `base + in-round clock`
  // — the per-epoch deltas telescope across round boundaries. Migrated
  // compensation state rides between rounds in the bag, the parameter
  // servers in ps_blob.
  double sim_base = 0.0;
  uint64_t comm_base = 0;
  bool first_round = true;
  double preprocess_cpu = 0.0;
  elastic::ElasticStateBag bag;
  bool have_bag = false;
  std::vector<uint8_t> ps_blob;
  bool have_ps_blob = false;

  // Per-round objects, rebuilt whenever the membership changes. worker_fn
  // below captures them by reference and only runs while they are alive.
  uint32_t workers = part.num_parts;
  std::vector<WorkerPlan> plans;
  std::unique_ptr<ParameterServerGroup> ps;
  std::unique_ptr<CheckpointStore> ckpt;
  std::unique_ptr<SimulatedCluster> cluster;
  uint32_t epoch_base = 0;             // first epoch of the current round
  uint32_t round_stop = options_.epochs;  // run epochs [epoch_base, stop)

  // Worker 0's crash verdict for the epoch about to start, published to
  // the other workers across a barrier.
  std::atomic<bool> crash_pending{false};
  std::atomic<int32_t> crash_victim{-1};
  // Rebalance verdict: the epoch a straggler migration starts at (the
  // round breaks just before it; 0 = none) and the straggler's id.
  std::atomic<uint32_t> rebal_break_at{0};
  std::atomic<int32_t> rebal_straggler{-1};
  // How the round's workers exited: 0 = ran to round_stop (or early
  // stop), 1 = crash with an elastic response, 2 = rebalance break.
  std::atomic<int> round_exit{0};
  const bool elastic_crash =
      elastic_on && eopts.on_crash != elastic::OnCrash::kRestore;

  auto worker_fn = [&](WorkerContext* ctx) -> Status {
    ThreadPool::SetSerialMode(true);
    const WorkerPlan& plan = plans[ctx->worker_id()];
    const uint16_t num_layers = static_cast<uint16_t>(L);

    // ---- Local data setup -------------------------------------------
    ThreadCpuTimer cpu;
    Matrix x = tensor::GatherRows(graph_.features(), plan.owned);
    const LocalSplits local = LocalizeSplits(graph_, plan.owned);

    auto fp_ex =
        MakeFpExchanger(options_.fp_mode, options_.exchange, num_layers, plan);
    auto bp_ex =
        MakeBpExchanger(options_.bp_mode, options_.exchange, num_layers, plan);
    auto exact_fp = MakeFpExchanger(FpMode::kExact, options_.exchange,
                                    num_layers, plan);
    if (have_bag) {
      // Compensation state migrated from the previous membership round,
      // keyed by global vertex id, and message widths keyed by link:
      // rows this worker now owns (or now receives as halo) pick up
      // exactly the history they had under the old assignment; rows with
      // no history cold-start as usual.
      ECG_RETURN_IF_ERROR(fp_ex->ImportElasticState(plan, bag));
      ECG_RETURN_IF_ERROR(bp_ex->ImportElasticState(plan, bag));
    }

    std::vector<GnnLayer> layers = MakeGnnLayers(options_.model);
    std::vector<Matrix> h_halo(L);
    for (int l = 0; l < L; ++l) h_halo[l].Reset(plan.num_halo(), dims[l]);
    ctx->ChargeCompute(cpu.ElapsedSeconds());

    // Feature-halo caching (Section III-A): ship H^0 once, exactly.
    if (options_.cache_features) {
      ECG_TRACE_SCOPE("feature_cache", ctx->worker_id(), 0);
      ECG_RETURN_IF_ERROR(exact_fp->Exchange(ctx, plan, /*epoch=*/0xFFFFFFFFu,
                                             /*layer=*/0, x, &h_halo[0]));
    }
    ctx->BarrierSync();
    if (ctx->worker_id() == 0 && first_round) {
      board.SetEpochBaseline(ctx->total_seconds(),
                             cluster->stats().TotalBytes());
    }
    ctx->BarrierSync();

    // Cooperative epoch checkpoint, taken between two barriers: worker 0
    // stages the snapshot and deposits the global section (parameter
    // servers), every worker deposits its exchanger compensation state,
    // worker 0 seals it.
    auto take_checkpoint = [&](uint32_t next_epoch) {
      if (ctx->worker_id() == 0) ckpt->Begin(next_epoch);
      ctx->BarrierSync();
      std::vector<uint8_t> blob;
      ByteWriter bw(&blob);
      fp_ex->SaveState(&bw);
      bp_ex->SaveState(&bw);
      ckpt->PutWorker(ctx->worker_id(), std::move(blob));
      if (ctx->worker_id() == 0) {
        std::vector<uint8_t> global;
        ByteWriter gw(&global);
        ps->SaveTo(&gw);
        ckpt->PutGlobal(std::move(global));
      }
      ctx->BarrierSync();
      if (ctx->worker_id() == 0) {
        const Status mirrored = ckpt->Commit();
        if (!mirrored.ok()) {
          ECG_LOG(Warning) << "checkpoint disk mirror failed: "
                           << mirrored.ToString();
        }
        if (injector != nullptr) {
          injector->counters().checkpoints.fetch_add(
              1, std::memory_order_relaxed);
        }
        if (obs::StatsEnabled()) {
          obs::RecordStat("ckpt.save", 1.0, next_epoch);
        }
      }
    };

    // Crash recovery: rewind model, optimizer, and compensation state to
    // the latest checkpoint. Every worker pays the modelled restart
    // downtime — BSP lock-step means one dead worker stalls the cluster.
    auto restore_checkpoint = [&]() -> Status {
      {
        const std::vector<uint8_t> blob =
            ckpt->worker_blob(ctx->worker_id());
        ByteReader r(blob);
        ECG_RETURN_IF_ERROR(fp_ex->LoadState(&r));
        ECG_RETURN_IF_ERROR(bp_ex->LoadState(&r));
      }
      if (ctx->worker_id() == 0) {
        const std::vector<uint8_t> global = ckpt->global();
        ByteReader r(global);
        ECG_RETURN_IF_ERROR(ps->LoadFrom(&r));
        board.RollbackTo(ckpt->next_epoch());
      }
      ctx->ChargeCommSeconds(injector->restart_seconds());
      return Status::OK();
    };

    // The initial checkpoint makes a crash during any epoch of the round
    // recoverable, even before the first periodic checkpoint lands — and
    // guarantees elastic transitions always find a snapshot at or after
    // the round's first epoch.
    if (ckpt != nullptr) take_checkpoint(epoch_base);

    // ---- Epoch loop ---------------------------------------------------
    // A while-loop instead of a for: a crash restore rewinds `epoch` to
    // the latest checkpoint; fault-free runs step through it identically.
    // The round covers epochs [epoch_base, round_stop); an elastic crash
    // response or a rebalance trigger breaks out early and the coordinator
    // starts the next round.
    // Epoch-invariant layer-1 aggregation (DESIGN.md §17): with cached
    // features, [X | X_halo] is fixed for the round, so the round's first
    // forward builds P¹ and every later epoch reuses it (Transform, dW).
    // A crash restore rewinds the model, not the features, so P¹ survives
    // it; a new membership round rebuilds it from its plan.
    bool p1_built = false;
    double compute_mark = ctx->compute_seconds();  // rebalancer deposit base
    uint32_t epoch = epoch_base;
    while (epoch < round_stop) {
      if (ckpt != nullptr && injector != nullptr) {
        if (ctx->worker_id() == 0) {
          int32_t victim = -1;
          const bool crashed = injector->TakeCrash(epoch, &victim);
          crash_victim.store(victim, std::memory_order_relaxed);
          crash_pending.store(crashed, std::memory_order_relaxed);
          if (crashed && obs::StatsEnabled()) {
            obs::RecordStat("fault.crash_detected", 1.0, epoch);
          }
        }
        ctx->BarrierSync();
        if (crash_pending.load(std::memory_order_relaxed)) {
          if (ctx->worker_id() == 0 &&
              obs::FlightRecorder::Global().armed()) {
            // Post-mortem of the pre-crash state, before the restore
            // rewinds it. Failure to dump must not fail the recovery.
            (void)obs::FlightRecorder::Global().DumpNow(
                "injected_crash", "epoch=" + std::to_string(epoch));
          }
          if (elastic_crash) {
            // Permanent-failure policy (shrink/replace): leave the round;
            // the coordinator rewinds to the latest checkpoint and
            // delta-repartitions the victim away.
            if (ctx->worker_id() == 0) {
              round_exit.store(1, std::memory_order_relaxed);
            }
            break;
          }
          ECG_RETURN_IF_ERROR(restore_checkpoint());
          ctx->BarrierSync();
          if (ctx->worker_id() == 0) {
            injector->counters().restores.fetch_add(
                1, std::memory_order_relaxed);
            if (obs::StatsEnabled()) {
              obs::RecordStat("ckpt.restore", 1.0, epoch);
            }
          }
          epoch = ckpt->next_epoch();
          continue;
        }
      }
      // Forward propagation (Algorithm 1); every exchange overlaps the
      // layer's owned step (core/schedule.h).
      const internal::Schedule sched(ctx, &board, epoch, options_.overlap);
      for (int l = 1; l <= L; ++l) {
        GnnLayer& layer = layers[l - 1];
        sched.Pull(*ps, l - 1, &layer.w, &layer.b);
        if (l == 1 && options_.cache_features) {
          // The feature halo is cached: no exchange, and P¹ is built once.
          auto step = sched.Step("fp_compute", l);
          if (!p1_built) {
            layer.Forward(plan.adj, x, h_halo[0]);
            // The features are dead once P¹ holds their aggregation.
            x = Matrix();
            h_halo[0] = Matrix();
            p1_built = true;
          } else {
            layer.Transform();
          }
          continue;
        }
        ECG_RETURN_IF_ERROR(sched.Forward(fp_ex.get(), plan, l, &layer,
                                          l == 1 ? x : layers[l - 2].out(),
                                          &h_halo[l - 1]));
      }

      // Loss + local metrics on the final logits; g = dL/dZ^L.
      Matrix g;
      sched.Loss(layers[L - 1].out(), local.labels, local.rows_of,
                 global_train, L, &g);

      // Backward propagation (Algorithm 2); dW/db run in the owned step.
      std::vector<Matrix> dw(L), db(L);
      for (int l = L; l >= 1; --l) {
        ECG_RETURN_IF_ERROR(sched.Backward(bp_ex.get(), plan, l,
                                           &layers[l - 1], &g, &dw[l - 1],
                                           &db[l - 1]));
      }

      sched.Push(ps.get(), std::move(dw), std::move(db));

      // Superstep boundary: everyone's push is in, Adam has been applied
      // by the last pusher, clocks align to the slowest worker.
      {
        PhaseScope phase(ctx, epoch, "barrier");
        ctx->BarrierSync();
      }

      // Straggler watch: every worker deposits its compute-clock delta
      // for the epoch, worker 0 folds them into the EWMAs and may arm a
      // migration starting at epoch+1. The two extra barriers publish the
      // verdict; they exist only when the rebalancer is on, so the
      // default path's barrier pattern (and its clocks) is untouched.
      if (elastic_on && controller.rebalance_enabled()) {
        controller.rebalancer().Deposit(
            ctx->worker_id(), ctx->compute_seconds() - compute_mark);
        compute_mark = ctx->compute_seconds();
        ctx->BarrierSync();
        if (ctx->worker_id() == 0) {
          const int32_t straggler = controller.rebalancer().EndEpoch(epoch);
          if (straggler >= 0 && workers >= 2 && epoch + 1 < round_stop) {
            rebal_straggler.store(straggler, std::memory_order_relaxed);
            rebal_break_at.store(epoch + 1, std::memory_order_relaxed);
            round_exit.store(2, std::memory_order_relaxed);
          }
        }
        ctx->BarrierSync();
      }

      // Epoch checkpoint: the barrier above guarantees every push of the
      // epoch is applied, so the parameter servers hold exactly the
      // "start of epoch+1" state the exchangers snapshot alongside. A
      // round boundary (scheduled event or armed rebalance) always
      // checkpoints — the transition migrates state out of this snapshot.
      const bool boundary_next =
          elastic_on &&
          (rebal_break_at.load(std::memory_order_relaxed) == epoch + 1 ||
           (epoch + 1 == round_stop && round_stop < options_.epochs));
      if (ckpt != nullptr &&
          ((checkpoint_every > 0 && (epoch + 1) % checkpoint_every == 0 &&
            epoch + 1 < options_.epochs) ||
           boundary_next)) {
        PhaseScope phase(ctx, epoch, "checkpoint");
        take_checkpoint(epoch + 1);
      }

      if (sched.EndEpoch(sim_base + ctx->total_seconds(),
                         comm_base + cluster->stats().TotalBytes(),
                         global_train, options_.patience,
                         options_.log_every, graph_.name)) {
        break;
      }
      ++epoch;
      if (elastic_on &&
          rebal_break_at.load(std::memory_order_relaxed) == epoch) {
        break;  // migrate rows, then resume at this epoch under a new plan
      }
    }
    return Status::OK();
  };

  // ---- Membership rounds ----------------------------------------------
  // Each iteration trains epochs [epoch_base, round_stop) on a fixed
  // membership. Without elastic there is exactly one iteration.
  while (true) {
    workers = part.num_parts;
    Timer preprocess_timer;
    plans.clear();
    ECG_RETURN_IF_ERROR(
        BuildWorkerPlans(graph_, part, &plans, options_.model.kind));
    ps = std::make_unique<ParameterServerGroup>(
        GcnLayerShapes(options_.model, dims[0], graph_.num_classes()),
        options_.num_servers, workers, options_.model.learning_rate,
        options_.model.seed);
    if (have_ps_blob) {
      ByteReader r(ps_blob);
      ECG_RETURN_IF_ERROR(ps->LoadFrom(&r));
    }
    if (checkpoint_every > 0) {
      ckpt = std::make_unique<CheckpointStore>(workers,
                                               options_.checkpoint_dir);
    }
    cluster = std::make_unique<SimulatedCluster>(
        workers, options_.network, options_.machine,
        elastic_on ? controller.worker_scale()
                   : options_.worker_compute_scale);
    cluster->hub().set_fault_injector(injector);
    round_stop = options_.epochs;
    if (elastic_on) {
      round_stop =
          std::min(options_.epochs, controller.NextEventEpoch(epoch_base));
    }
    crash_pending.store(false, std::memory_order_relaxed);
    crash_victim.store(-1, std::memory_order_relaxed);
    rebal_break_at.store(0, std::memory_order_relaxed);
    rebal_straggler.store(-1, std::memory_order_relaxed);
    round_exit.store(0, std::memory_order_relaxed);
    if (first_round) preprocess_cpu = preprocess_timer.ElapsedSeconds();

    ECG_RETURN_IF_ERROR(cluster->Run(worker_fn));
    sim_base += cluster->MakespanSeconds();
    comm_base += cluster->stats().TotalBytes();

    if (!elastic_on) break;
    if (board.stop.load(std::memory_order_relaxed)) break;

    const int exit_kind = round_exit.load(std::memory_order_relaxed);
    uint32_t resume_epoch = 0;
    elastic::Transition t;
    if (exit_kind == 1) {
      // Crash under shrink/replace policy: rewind the board to the latest
      // checkpoint (the round's initial checkpoint guarantees one exists
      // at or after epoch_base), then plan the membership change. The
      // rolled-back epochs' simulated time stays on the clock — rework is
      // part of the recovery cost.
      resume_epoch = ckpt->next_epoch();
      board.RollbackTo(resume_epoch);
      injector->counters().restores.fetch_add(1, std::memory_order_relaxed);
      if (obs::StatsEnabled()) {
        obs::RecordStat("ckpt.restore", 1.0, resume_epoch);
      }
      ECG_ASSIGN_OR_RETURN(
          t, controller.ApplyCrash(
                 graph_, part, resume_epoch,
                 crash_victim.load(std::memory_order_relaxed)));
    } else if (exit_kind == 2) {
      resume_epoch = rebal_break_at.load(std::memory_order_relaxed);
      ECG_ASSIGN_OR_RETURN(
          t, controller.ApplyRebalance(
                 graph_, part, resume_epoch,
                 rebal_straggler.load(std::memory_order_relaxed)));
    } else {
      if (round_stop >= options_.epochs) break;  // trained to completion
      resume_epoch = round_stop;
      ECG_ASSIGN_OR_RETURN(t,
                           controller.ApplyScheduled(graph_, part, round_stop));
    }

    // Lift the compensation state out of the checkpoint under the OLD
    // membership and re-key it by global vertex id: reconstruct each old
    // worker's exchangers, load its checkpoint section, export. The new
    // round's workers import their slices after the re-partition.
    bag.Clear();
    for (uint32_t w = 0; w < workers; ++w) {
      auto fp = MakeFpExchanger(options_.fp_mode, options_.exchange,
                                static_cast<uint16_t>(L), plans[w]);
      auto bp = MakeBpExchanger(options_.bp_mode, options_.exchange,
                                static_cast<uint16_t>(L), plans[w]);
      const std::vector<uint8_t> blob = ckpt->worker_blob(w);
      ByteReader r(blob);
      ECG_RETURN_IF_ERROR(fp->LoadState(&r));
      ECG_RETURN_IF_ERROR(bp->LoadState(&r));
      fp->ExportElasticState(plans[w], &bag);
      bp->ExportElasticState(plans[w], &bag);
    }
    bag.RemapWorkers(t.old_to_new);
    have_bag = true;
    ps_blob = ckpt->global();
    have_ps_blob = true;

    // Modelled transition cost: the configured fixed pause, plus shipping
    // each moved row's feature/trend/residual state over the wire once,
    // plus (for crashes) the restart downtime the injector charges.
    size_t row_floats = dims[0];
    for (int l = 0; l < L; ++l) row_floats += 2 * dims[l];   // ReqEC trend
    for (int l = 2; l <= L; ++l) row_floats += dims[l];      // ResEC residual
    const double migrate_seconds = options_.network.TransferSeconds(
        t.moved_rows * row_floats * sizeof(float),
        t.moved_rows > 0 ? workers : 0);
    double downtime = eopts.downtime_seconds + migrate_seconds;
    if (exit_kind == 1 && injector != nullptr) {
      downtime += injector->restart_seconds();
    }
    controller.Commit(t, resume_epoch, downtime, sim_base);
    sim_base += downtime;
    part = std::move(t.partition);
    epoch_base = resume_epoch;
    first_round = false;
  }

  return board.ToResult(preprocess_cpu);
}

Result<TrainResult> TrainDistributed(const graph::Graph& g,
                                     uint32_t num_workers,
                                     const TrainOptions& options) {
  ECG_ASSIGN_OR_RETURN(graph::Partition p,
                       graph::HashPartition(g, num_workers));
  DistributedTrainer trainer(g, p, options);
  return trainer.Train();
}

}  // namespace ecg::core
