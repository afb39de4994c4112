#ifndef ECGRAPH_DIST_ELASTIC_H_
#define ECGRAPH_DIST_ELASTIC_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/partition.h"

/// Elastic cluster membership (DESIGN.md §14): mid-training worker
/// join/leave/crash-replace plus straggler-aware row migration. The trainer
/// runs rounds of fixed membership; between rounds the ElasticController
/// produces a Transition (delta-repartitioned assignment + old→new worker
/// map), compensation/optimizer state rides across in an ElasticStateBag
/// keyed by *global vertex id* (ownership-independent), and the
/// MembershipLog records what happened for flight dumps and trace reports.
namespace ecg::elastic {

// ---------------------------------------------------------------------------
// Elastic state bag: exchanger compensation state keyed by global vertex.
// ---------------------------------------------------------------------------

/// One ReqEC trend entry: the last reconstructed embedding row (h_last) and
/// its change-rate row (m_cr), both `cols` floats.
struct TrendRow {
  std::vector<float> h;
  std::vector<float> m;
};

/// Ownership-independent snapshot of the error-compensation state both
/// exchangers keep per halo row, plus the Bit-Tuner's per-link knobs. The
/// trainer fills it from the departing membership's checkpoint (via
/// `ExportElasticState`), remaps worker-keyed entries, and the next round's
/// exchangers pull their rows back out (via `ImportElasticState`) — so a
/// vertex that migrates between workers keeps its trend/residual history.
///
/// ReqEC trend rows are canonical per (layer, vertex): both link ends of the
/// protocol maintain the same baseline in the fault-free case, so one copy
/// (exported from the responder side) serves the responder and every
/// requester after the transition. If faults had diverged a pair's baselines
/// (degraded-delivery paths), the transition collapses them back to the
/// canonical copy on both ends — consistent decode, documented loss of the
/// divergent per-pair state.
struct ElasticStateBag {
  /// (layer, global vertex) → trend state.
  std::map<std::pair<uint16_t, uint32_t>, TrendRow> fp_trend;
  /// (layer, global vertex, receiver worker) → ResEC residual row. Keyed by
  /// receiver because a boundary vertex accumulates an independent residual
  /// per peer it ships gradients to.
  std::map<std::tuple<uint16_t, uint32_t, uint32_t>, std::vector<float>>
      bp_residual;
  /// Bit-Tuner predicted proportion, keyed by directed link (requester,
  /// responder).
  std::map<std::pair<uint32_t, uint32_t>, float> proportion;
  /// Message widths, one entry per message group: (layer, requester,
  /// responder) for the FP request widths (Bit-Tuner or bit_alloc solver)
  /// and (layer, sender, receiver) for the ResEC sender widths. Entries
  /// whose link lost either end are dropped by RemapWorkers — the
  /// surviving pairs keep their width, new pairs start at the configured
  /// global width.
  using GroupBits = std::map<std::tuple<uint16_t, uint32_t, uint32_t>, int>;
  GroupBits fp_group_bits;
  GroupBits bp_group_bits;

  /// Rewrites worker-keyed entries through `old_to_new` (old worker id →
  /// new id, -1 = departed). Entries touching a departed worker are
  /// dropped; vertex-keyed trend/residual rows survive untouched except for
  /// the receiver coordinate.
  void RemapWorkers(const std::vector<int32_t>& old_to_new);

  void Clear();
  bool Empty() const {
    return fp_trend.empty() && bp_residual.empty() && proportion.empty() &&
           fp_group_bits.empty() && bp_group_bits.empty();
  }
};

// ---------------------------------------------------------------------------
// Membership schedule and options.
// ---------------------------------------------------------------------------

/// What to do when the fault transport detects a scheduled kCrash:
///   * kRestore — PR-3 behavior: restore every worker from the checkpoint
///                and re-run the epoch on the same membership;
///   * kShrink  — treat the crash as a permanent leave: delta-repartition
///                the victim's vertices onto the survivors and continue
///                with one fewer worker;
///   * kReplace — a standby machine takes the victim's slot: same
///                partition, state restored from the checkpoint.
enum class OnCrash : uint8_t { kRestore = 0, kShrink, kReplace };

/// One scheduled membership event. `worker` ids are interpreted in the
/// numbering current at `epoch` (earlier leaves shift later ids down).
struct ElasticEvent {
  uint32_t epoch = 0;
  bool join = false;    // false = leave
  uint32_t worker = 0;  // leave only: departing worker id
};

/// Parsed `elastic=SPEC` (CLI train key). Grammar: clauses separated by
/// ',' or ';'.
///   leave@epoch=E:worker=W   worker W departs before epoch E (E >= 1)
///   join@epoch=E             one worker joins before epoch E (appended id)
///   on_crash=shrink|replace|restore   crash policy (default shrink)
///   rebalance=on|off         straggler rebalancer (default off)
///   ewma=F                   EWMA smoothing for per-epoch compute (0.3)
///   threshold=F              straggler score (ewma/median) trigger (1.5)
///   hysteresis=N             consecutive epochs above threshold (3)
///   budget=F                 max fraction of the straggler's rows moved
///                            per migration round (0.2)
///   cooldown=N               epochs between membership changes (3)
///   downtime=S               simulated seconds of fixed pause per
///                            transition, on top of modelled row-transfer
///                            time (1.0)
///   cap=F                    rebalance destination size cap ×(n/k) (2.0)
///   max_imbalance=F          delta-repartition bound (kDefaultMaxImbalance)
///   seed=N                   delta-repartition stream seed (29)
/// An empty spec parses to an inactive controller (trainer bit-identical
/// to the fixed-membership path).
struct ElasticOptions {
  bool active = false;
  std::vector<ElasticEvent> events;  // sorted by epoch, one per epoch
  OnCrash on_crash = OnCrash::kShrink;
  bool rebalance = false;
  double ewma = 0.3;
  double threshold = 1.5;
  uint32_t hysteresis = 3;
  double budget = 0.2;
  uint32_t cooldown = 3;
  double downtime_seconds = 1.0;
  double cap = 2.0;
  double max_imbalance = graph::kDefaultMaxImbalance;
  uint64_t seed = 29;

  static Result<ElasticOptions> Parse(const std::string& spec);
};

/// Auto-generated `elastic=SPEC` reference (from the config::Spec binding)
/// for CLI help output.
std::string ElasticSpecHelp();

// ---------------------------------------------------------------------------
// Straggler rebalancer.
// ---------------------------------------------------------------------------

/// Watches per-worker per-epoch compute seconds (deposited by the workers
/// from their `ChargeCompute` deltas) and flags a persistent straggler:
/// score = EWMA(compute) / median over workers; a worker must stay above
/// `threshold` for `hysteresis` consecutive epochs, and at least `cooldown`
/// epochs must have passed since the last membership change, before a
/// migration is triggered — both knobs exist so one noisy epoch (or the
/// rebalancer's own migration) cannot start a thrash loop.
class Rebalancer {
 public:
  void Configure(const ElasticOptions& opts, uint32_t num_workers);

  /// Worker `w` contributes its compute seconds for the epoch in progress.
  /// Thread-safe; called by every worker before the end-of-epoch barrier.
  void Deposit(uint32_t worker, double compute_seconds);

  /// Folds the epoch's deposits into the EWMAs and evaluates the trigger.
  /// Returns the straggler's worker id when a migration should run after
  /// this epoch, -1 otherwise. Called by worker 0 only, between barriers.
  int32_t EndEpoch(uint32_t epoch);

  /// Resets scores/streak after a membership change (worker count and
  /// row placement both changed, so history is stale).
  void OnMembershipChange(uint32_t epoch, uint32_t num_workers);

  const std::vector<double>& ewma() const { return ewma_; }

 private:
  ElasticOptions opts_;
  std::mutex mu_;
  std::vector<double> pending_;
  std::vector<double> ewma_;
  bool have_ewma_ = false;
  uint32_t streak_ = 0;
  int32_t streak_worker_ = -1;
  int64_t last_event_epoch_ = -1;
};

// ---------------------------------------------------------------------------
// Membership log (flight-recorder section + trace-report source).
// ---------------------------------------------------------------------------

struct MembershipEvent {
  uint32_t epoch = 0;      // first epoch run under the new membership
  std::string kind;        // "leave"|"join"|"crash_shrink"|"crash_replace"|
                           // "rebalance"
  int32_t worker = -1;     // departing/joining/straggler worker id
  uint32_t num_workers = 0;  // membership size after the event
  uint64_t moved_rows = 0;
  double downtime_seconds = 0.0;
};

/// Process-wide membership history. Registered as the `elastic_state`
/// flight-recorder section, so a crash dump shows every join/leave/
/// migration that preceded the failure; `ecgraph trace-report` renders the
/// same rows from the dump.
class MembershipLog {
 public:
  static MembershipLog& Global();

  void Reset();
  void Add(const MembershipEvent& e);
  std::vector<MembershipEvent> Snapshot() const;
  /// `{"events":[{...},...]}` — the flight-recorder section payload.
  std::string ToJson() const;

 private:
  MembershipLog() = default;
  mutable std::mutex mu_;
  std::vector<MembershipEvent> events_;
};

// ---------------------------------------------------------------------------
// Controller.
// ---------------------------------------------------------------------------

/// One planned membership transition, produced between training rounds.
struct Transition {
  graph::Partition partition;       // assignment for the next round
  std::vector<int32_t> old_to_new;  // old worker id → new id, -1 = departed
  uint32_t new_num_workers = 0;
  uint64_t moved_rows = 0;  // vertices whose owner changed
  std::string kind;         // MembershipEvent.kind
  int32_t worker = -1;      // event subject (old id space)
};

/// Drives the membership state machine for one training job. Owns the
/// schedule, the per-worker compute-scale vector (remapped across
/// transitions), and the Rebalancer. Not thread-safe: the trainer calls it
/// from the coordinator thread between rounds (Rebalancer::Deposit is the
/// one concurrent entry point, and it locks internally).
class ElasticController {
 public:
  ElasticController(ElasticOptions opts, uint32_t num_workers,
                    std::vector<double> worker_scale);

  bool active() const { return opts_.active; }
  bool rebalance_enabled() const { return opts_.rebalance; }
  OnCrash on_crash() const { return opts_.on_crash; }
  const ElasticOptions& options() const { return opts_; }
  uint32_t num_workers() const { return num_workers_; }
  /// Per-worker compute multipliers for the current membership (empty =
  /// all 1.0).
  const std::vector<double>& worker_scale() const { return worker_scale_; }
  Rebalancer& rebalancer() { return rebalancer_; }

  /// Epoch of the first scheduled event after `after_epoch` (i.e. the next
  /// round must stop before running that epoch), or UINT32_MAX.
  uint32_t NextEventEpoch(uint32_t after_epoch) const;

  /// Plans the scheduled event at exactly `epoch` (leave or join).
  Result<Transition> ApplyScheduled(const graph::Graph& g,
                                    const graph::Partition& part,
                                    uint32_t epoch);
  /// Plans the crash response for `victim` per on_crash (kShrink/kReplace;
  /// kRestore never reaches the controller).
  Result<Transition> ApplyCrash(const graph::Graph& g,
                                const graph::Partition& part,
                                uint32_t epoch, int32_t victim);
  /// Plans a straggler migration away from `straggler` (same worker set).
  Result<Transition> ApplyRebalance(const graph::Graph& g,
                                    const graph::Partition& part,
                                    uint32_t epoch, int32_t straggler);

  /// Records the committed transition: membership log + `elastic.*` stats +
  /// `ecg_elastic_*` metrics + an `elastic_repartition` span on the
  /// simulated timeline at `sim_clock`, then remaps worker scales, adopts
  /// the new worker count and resets the rebalancer.
  void Commit(const Transition& t, uint32_t resume_epoch,
              double downtime_seconds, double sim_clock);

 private:
  ElasticOptions opts_;
  uint32_t num_workers_;
  std::vector<double> worker_scale_;
  Rebalancer rebalancer_;
};

/// Vertices whose owning *new* worker differs from their old owner mapped
/// through `old_to_new` (departed owners count as moved).
uint64_t CountMovedRows(const graph::Partition& base,
                        const std::vector<int32_t>& old_to_new,
                        const graph::Partition& next);

/// Registers the `elastic_state` flight-recorder section (idempotent).
void RegisterElasticFlightSection();

}  // namespace ecg::elastic

#endif  // ECGRAPH_DIST_ELASTIC_H_
