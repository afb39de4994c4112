#include "dist/elastic.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/flight_recorder.h"
#include "common/spec.h"
#include "common/stats.h"
#include "common/trace.h"

namespace ecg::elastic {
namespace {

Status ParseU32(const std::string& s, uint32_t* out) {
  if (s.empty()) return Status::InvalidArgument("empty integer");
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad integer '" + s + "'");
    }
    v = v * 10 + (c - '0');
    if (v > 0xFFFFFFFFull) return Status::InvalidArgument("integer overflow");
  }
  *out = static_cast<uint32_t>(v);
  return Status::OK();
}

// Parses "event@filter:filter" — e.g. "leave@epoch=3:worker=1".
Status ParseEvent(const std::string& clause, bool join, ElasticEvent* out) {
  out->join = join;
  const size_t at = clause.find('@');
  if (at == std::string::npos) {
    return Status::InvalidArgument("elastic event needs @epoch=N: '" +
                                   clause + "'");
  }
  bool have_epoch = false;
  bool have_worker = false;
  std::string rest = clause.substr(at + 1);
  size_t pos = 0;
  while (pos <= rest.size()) {
    size_t colon = rest.find(':', pos);
    if (colon == std::string::npos) colon = rest.size();
    const std::string f = rest.substr(pos, colon - pos);
    pos = colon + 1;
    if (f.empty()) continue;
    const size_t eq = f.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("bad elastic filter '" + f + "'");
    }
    const std::string key = f.substr(0, eq);
    const std::string val = f.substr(eq + 1);
    if (key == "epoch") {
      ECG_RETURN_IF_ERROR(ParseU32(val, &out->epoch));
      have_epoch = true;
    } else if (key == "worker") {
      ECG_RETURN_IF_ERROR(ParseU32(val, &out->worker));
      have_worker = true;
    } else {
      return Status::InvalidArgument("unknown elastic filter '" + key + "'");
    }
  }
  if (!have_epoch || out->epoch == 0) {
    return Status::InvalidArgument(
        "elastic events need epoch>=1 (epoch 0 has no prior state to "
        "migrate): '" + clause + "'");
  }
  if (!join && !have_worker) {
    return Status::InvalidArgument("leave needs worker=N: '" + clause + "'");
  }
  if (join && have_worker) {
    return Status::InvalidArgument(
        "join takes no worker= (the new worker is appended): '" + clause +
        "'");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// ElasticStateBag
// ---------------------------------------------------------------------------

void ElasticStateBag::RemapWorkers(const std::vector<int32_t>& old_to_new) {
  auto map_worker = [&](uint32_t w) -> int32_t {
    return w < old_to_new.size() ? old_to_new[w] : -1;
  };
  std::map<std::tuple<uint16_t, uint32_t, uint32_t>, std::vector<float>>
      residual;
  for (auto& [key, row] : bp_residual) {
    const int32_t nw = map_worker(std::get<2>(key));
    if (nw < 0) continue;
    residual.emplace(std::make_tuple(std::get<0>(key), std::get<1>(key),
                                     static_cast<uint32_t>(nw)),
                     std::move(row));
  }
  bp_residual = std::move(residual);

  // Per-(layer, link) solver widths: both coordinates are workers, so a
  // departed end drops the entry and a renumbered end follows its new id.
  auto remap_group_bits = [&](GroupBits* m) {
    GroupBits next;
    for (const auto& [key, v] : *m) {
      const int32_t a = map_worker(std::get<1>(key));
      const int32_t b = map_worker(std::get<2>(key));
      if (a < 0 || b < 0) continue;
      next.emplace(std::make_tuple(std::get<0>(key), static_cast<uint32_t>(a),
                                   static_cast<uint32_t>(b)),
                   v);
    }
    *m = std::move(next);
  };
  remap_group_bits(&fp_group_bits);
  remap_group_bits(&bp_group_bits);
  // fp_trend is keyed by (layer, vertex) only — nothing to remap.
}

void ElasticStateBag::Clear() {
  fp_trend.clear();
  bp_residual.clear();
  fp_group_bits.clear();
  bp_group_bits.clear();
}

// ---------------------------------------------------------------------------
// ElasticOptions::Parse
// ---------------------------------------------------------------------------

config::Spec& BindElasticSpec(config::Spec& spec, ElasticOptions* opts) {
  spec.Clause("leave", "leave@epoch=E:worker=W",
              "worker W departs before epoch E (E >= 1)",
              [opts](const std::string& clause) -> Status {
                ElasticEvent e;
                ECG_RETURN_IF_ERROR(ParseEvent(clause, /*join=*/false, &e));
                opts->events.push_back(e);
                return Status::OK();
              });
  spec.Clause("join", "join@epoch=E",
              "one worker joins before epoch E (appended id)",
              [opts](const std::string& clause) -> Status {
                ElasticEvent e;
                ECG_RETURN_IF_ERROR(ParseEvent(clause, /*join=*/true, &e));
                opts->events.push_back(e);
                return Status::OK();
              });
  spec.Enum<OnCrash>("on_crash", &opts->on_crash,
                     {{"shrink", OnCrash::kShrink},
                      {"replace", OnCrash::kReplace},
                      {"restore", OnCrash::kRestore}})
      .Help("crash policy");
  spec.Bool("rebalance", &opts->rebalance).Help("straggler rebalancer");
  spec.F64("ewma", &opts->ewma)
      .Check([opts]() -> Status {
        if (!(opts->ewma > 0.0 && opts->ewma <= 1.0)) {
          return Status::InvalidArgument("ewma must be in (0, 1]");
        }
        return Status::OK();
      })
      .Help("EWMA smoothing for per-epoch compute");
  spec.F64("threshold", &opts->threshold)
      .Check([opts]() -> Status {
        if (!(opts->threshold > 1.0)) {
          return Status::InvalidArgument("threshold must exceed 1.0");
        }
        return Status::OK();
      })
      .Help("straggler score (ewma/median) trigger");
  spec.U32("hysteresis", &opts->hysteresis)
      .Min(1)
      .Help("consecutive epochs above threshold");
  spec.F64("budget", &opts->budget)
      .Check([opts]() -> Status {
        if (!(opts->budget > 0.0 && opts->budget <= 1.0)) {
          return Status::InvalidArgument("budget must be in (0, 1]");
        }
        return Status::OK();
      })
      .Help("max fraction of straggler rows moved per round");
  spec.U32("cooldown", &opts->cooldown)
      .Help("epochs between membership changes");
  spec.F64("downtime", &opts->downtime_seconds)
      .Min(0)
      .Help("fixed simulated pause per transition, seconds");
  spec.F64("cap", &opts->cap)
      .Min(1.0)
      .Help("rebalance destination size cap x(n/k)");
  spec.F64("max_imbalance", &opts->max_imbalance)
      .Min(1.0)
      .Help("delta-repartition bound");
  spec.U64("seed", &opts->seed)
      .Max(0xFFFFFFFF)
      .Help("delta-repartition stream seed");
  return spec;
}

std::string ElasticSpecHelp() {
  ElasticOptions defaults;
  config::Spec spec("elastic");
  BindElasticSpec(spec, &defaults);
  return spec.HelpText();
}

Result<ElasticOptions> ElasticOptions::Parse(const std::string& spec_text) {
  ElasticOptions opts;
  config::Spec spec("elastic");
  BindElasticSpec(spec, &opts);
  const std::vector<std::string> clauses =
      config::Spec::Split(spec_text, ",;");
  if (clauses.empty()) return opts;  // inactive
  opts.active = true;
  ECG_RETURN_IF_ERROR(spec.ParseClauses(clauses));
  std::sort(opts.events.begin(), opts.events.end(),
            [](const ElasticEvent& a, const ElasticEvent& b) {
              return a.epoch < b.epoch;
            });
  for (size_t i = 1; i < opts.events.size(); ++i) {
    if (opts.events[i].epoch == opts.events[i - 1].epoch) {
      return Status::InvalidArgument(
          "at most one elastic event per epoch (epoch " +
          std::to_string(opts.events[i].epoch) + " has two)");
    }
  }
  return opts;
}

// ---------------------------------------------------------------------------
// Rebalancer
// ---------------------------------------------------------------------------

void Rebalancer::Configure(const ElasticOptions& opts, uint32_t num_workers) {
  opts_ = opts;
  pending_.assign(num_workers, 0.0);
  ewma_.assign(num_workers, 0.0);
  have_ewma_ = false;
  streak_ = 0;
  streak_worker_ = -1;
  last_event_epoch_ = -1;
}

void Rebalancer::Deposit(uint32_t worker, double compute_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (worker < pending_.size()) pending_[worker] += compute_seconds;
}

int32_t Rebalancer::EndEpoch(uint32_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t k = pending_.size();
  if (k < 2) return -1;
  if (!have_ewma_) {
    ewma_ = pending_;
    have_ewma_ = true;
  } else {
    for (size_t w = 0; w < k; ++w) {
      ewma_[w] = opts_.ewma * pending_[w] + (1.0 - opts_.ewma) * ewma_[w];
    }
  }
  std::fill(pending_.begin(), pending_.end(), 0.0);

  std::vector<double> sorted = ewma_;
  std::sort(sorted.begin(), sorted.end());
  const double median = k % 2 == 1
                            ? sorted[k / 2]
                            : 0.5 * (sorted[k / 2 - 1] + sorted[k / 2]);
  if (!(median > 0.0)) return -1;
  size_t straggler = 0;
  for (size_t w = 1; w < k; ++w) {
    if (ewma_[w] > ewma_[straggler]) straggler = w;
  }
  const double score = ewma_[straggler] / median;
  if (obs::StatsEnabled()) {
    obs::RecordStat("elastic.straggler_score", score, epoch);
  }
  if (score >= opts_.threshold) {
    if (streak_worker_ == static_cast<int32_t>(straggler)) {
      ++streak_;
    } else {
      streak_worker_ = static_cast<int32_t>(straggler);
      streak_ = 1;
    }
  } else {
    streak_ = 0;
    streak_worker_ = -1;
  }
  const bool cooled =
      last_event_epoch_ < 0 ||
      epoch >= static_cast<int64_t>(last_event_epoch_) + opts_.cooldown;
  if (streak_ >= opts_.hysteresis && cooled) {
    streak_ = 0;
    const int32_t victim = streak_worker_;
    streak_worker_ = -1;
    last_event_epoch_ = epoch;
    return victim;
  }
  return -1;
}

void Rebalancer::OnMembershipChange(uint32_t epoch, uint32_t num_workers) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.assign(num_workers, 0.0);
  ewma_.assign(num_workers, 0.0);
  have_ewma_ = false;
  streak_ = 0;
  streak_worker_ = -1;
  last_event_epoch_ = epoch;
}

// ---------------------------------------------------------------------------
// MembershipLog
// ---------------------------------------------------------------------------

MembershipLog& MembershipLog::Global() {
  static MembershipLog* log = new MembershipLog();
  return *log;
}

void MembershipLog::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

void MembershipLog::Add(const MembershipEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(e);
}

std::vector<MembershipEvent> MembershipLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string MembershipLog::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"events\":[";
  for (size_t i = 0; i < events_.size(); ++i) {
    const MembershipEvent& e = events_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"epoch\":%u,\"kind\":\"%s\",\"worker\":%d,"
                  "\"num_workers\":%u,\"moved_rows\":%" PRIu64
                  ",\"downtime_seconds\":%.6f}",
                  i == 0 ? "" : ",", e.epoch,
                  obs::JsonEscape(e.kind).c_str(), e.worker, e.num_workers,
                  e.moved_rows, e.downtime_seconds);
    out += buf;
  }
  out += "]}";
  return out;
}

void RegisterElasticFlightSection() {
  obs::FlightRecorder::Global().AddSection("elastic_state", [] {
    return MembershipLog::Global().ToJson();
  });
}

// ---------------------------------------------------------------------------
// ElasticController
// ---------------------------------------------------------------------------

ElasticController::ElasticController(ElasticOptions opts,
                                     uint32_t num_workers,
                                     std::vector<double> worker_scale)
    : opts_(std::move(opts)),
      num_workers_(num_workers),
      worker_scale_(std::move(worker_scale)) {
  rebalancer_.Configure(opts_, num_workers_);
  if (opts_.active) RegisterElasticFlightSection();
}

uint32_t ElasticController::NextEventEpoch(uint32_t after_epoch) const {
  for (const ElasticEvent& e : opts_.events) {
    if (e.epoch > after_epoch) return e.epoch;
  }
  return std::numeric_limits<uint32_t>::max();
}

Result<Transition> ElasticController::ApplyScheduled(
    const graph::Graph& g, const graph::Partition& part, uint32_t epoch) {
  const ElasticEvent* ev = nullptr;
  for (const ElasticEvent& e : opts_.events) {
    if (e.epoch == epoch) ev = &e;
  }
  if (ev == nullptr) {
    return Status::InvalidArgument("no elastic event at epoch " +
                                   std::to_string(epoch));
  }
  Transition t;
  graph::DeltaRepartitionOptions dopt;
  dopt.max_imbalance = opts_.max_imbalance;
  dopt.seed = opts_.seed;
  if (ev->join) {
    t.kind = "join";
    t.worker = static_cast<int32_t>(num_workers_);  // appended id
    t.new_num_workers = num_workers_ + 1;
    t.old_to_new.resize(num_workers_);
    for (uint32_t w = 0; w < num_workers_; ++w) {
      t.old_to_new[w] = static_cast<int32_t>(w);
    }
  } else {
    if (ev->worker >= num_workers_) {
      return Status::InvalidArgument(
          "leave worker " + std::to_string(ev->worker) + " out of range (" +
          std::to_string(num_workers_) + " workers)");
    }
    if (num_workers_ < 2) {
      return Status::InvalidArgument("cannot leave below 1 worker");
    }
    t.kind = "leave";
    t.worker = static_cast<int32_t>(ev->worker);
    t.new_num_workers = num_workers_ - 1;
    t.old_to_new.resize(num_workers_);
    for (uint32_t w = 0; w < num_workers_; ++w) {
      t.old_to_new[w] = w == ev->worker ? -1
                        : w < ev->worker ? static_cast<int32_t>(w)
                                         : static_cast<int32_t>(w - 1);
    }
  }
  ECG_ASSIGN_OR_RETURN(
      t.partition,
      graph::DeltaRepartition(g, part, t.old_to_new, t.new_num_workers,
                              dopt));
  t.moved_rows = CountMovedRows(part, t.old_to_new, t.partition);
  return t;
}

Result<Transition> ElasticController::ApplyCrash(const graph::Graph& g,
                                                 const graph::Partition& part,
                                                 uint32_t epoch,
                                                 int32_t victim) {
  (void)epoch;
  if (victim < 0 || static_cast<uint32_t>(victim) >= num_workers_) {
    return Status::InvalidArgument("crash victim out of range");
  }
  Transition t;
  if (opts_.on_crash == OnCrash::kReplace) {
    // A standby takes the victim's slot: same assignment, nothing moves.
    t.kind = "crash_replace";
    t.worker = victim;
    t.new_num_workers = num_workers_;
    t.partition = part;
    t.old_to_new.resize(num_workers_);
    for (uint32_t w = 0; w < num_workers_; ++w) {
      t.old_to_new[w] = static_cast<int32_t>(w);
    }
    t.moved_rows = 0;
    return t;
  }
  if (num_workers_ < 2) {
    return Status::InvalidArgument("cannot shrink below 1 worker");
  }
  t.kind = "crash_shrink";
  t.worker = victim;
  t.new_num_workers = num_workers_ - 1;
  t.old_to_new.resize(num_workers_);
  for (uint32_t w = 0; w < num_workers_; ++w) {
    t.old_to_new[w] = static_cast<int32_t>(w) == victim ? -1
                      : static_cast<int32_t>(w) < victim
                          ? static_cast<int32_t>(w)
                          : static_cast<int32_t>(w - 1);
  }
  graph::DeltaRepartitionOptions dopt;
  dopt.max_imbalance = opts_.max_imbalance;
  dopt.seed = opts_.seed;
  ECG_ASSIGN_OR_RETURN(
      t.partition,
      graph::DeltaRepartition(g, part, t.old_to_new, t.new_num_workers,
                              dopt));
  t.moved_rows = CountMovedRows(part, t.old_to_new, t.partition);
  return t;
}

Result<Transition> ElasticController::ApplyRebalance(
    const graph::Graph& g, const graph::Partition& part, uint32_t epoch,
    int32_t straggler) {
  (void)epoch;
  if (straggler < 0 || static_cast<uint32_t>(straggler) >= num_workers_) {
    return Status::InvalidArgument("straggler out of range");
  }
  const uint32_t s = static_cast<uint32_t>(straggler);
  const std::vector<double>& ewma = rebalancer_.ewma();
  std::vector<double> sorted = ewma;
  std::sort(sorted.begin(), sorted.end());
  const size_t k = sorted.size();
  const double median =
      k % 2 == 1 ? sorted[k / 2] : 0.5 * (sorted[k / 2 - 1] + sorted[k / 2]);
  const double ratio = median > 0.0 ? ewma[s] / median : opts_.threshold;

  Transition t;
  t.kind = "rebalance";
  t.worker = straggler;
  t.new_num_workers = num_workers_;
  t.old_to_new.resize(num_workers_);
  for (uint32_t w = 0; w < num_workers_; ++w) {
    t.old_to_new[w] = static_cast<int32_t>(w);
  }
  t.partition = part;

  const uint32_t n = static_cast<uint32_t>(part.owner.size());
  std::vector<uint32_t> part_size(num_workers_, 0);
  for (uint32_t v = 0; v < n; ++v) ++part_size[t.partition.owner[v]];
  const uint32_t size_s = part_size[s];
  if (size_s < 2) return t;  // nothing sensible to move

  // How many rows to shed: enough that the straggler's remaining share,
  // run at `ratio`× per-row cost, matches the median worker — capped by
  // the per-round migration budget so one decision can't over-correct on
  // a noisy estimate (the EWMA re-converges and the hysteresis re-arms
  // before the next migration).
  const double want =
      ratio > 1.0 ? std::ceil(size_s * (1.0 - 1.0 / ratio)) : 0.0;
  const uint32_t budget_rows = std::max<uint32_t>(
      1, static_cast<uint32_t>(size_s * opts_.budget));
  uint32_t moves = static_cast<uint32_t>(
      std::min<double>(want, static_cast<double>(budget_rows)));
  moves = std::min(moves, size_s - 1);
  if (moves == 0) return t;

  // Prefer boundary-light rows: fewest same-part neighbours first — they
  // lose the least locality when they leave (ties by id keep it
  // deterministic).
  std::vector<std::pair<uint32_t, uint32_t>> cost;  // (internal deg, v)
  cost.reserve(size_s);
  for (uint32_t v = 0; v < n; ++v) {
    if (t.partition.owner[v] != s) continue;
    uint32_t internal = 0;
    for (uint32_t u : g.Neighbors(v)) {
      if (t.partition.owner[u] == s) ++internal;
    }
    cost.emplace_back(internal, v);
  }
  std::sort(cost.begin(), cost.end());

  const uint32_t dest_cap = static_cast<uint32_t>(
      opts_.cap * n / num_workers_) + 1;
  uint64_t moved = 0;
  for (uint32_t i = 0; i < moves && i < cost.size(); ++i) {
    const uint32_t v = cost[i].second;
    // Destination: the peer holding the most of v's neighbourhood, ties
    // broken towards the least-loaded (lowest-EWMA) worker, then lowest id.
    std::vector<uint32_t> neigh(num_workers_, 0);
    for (uint32_t u : g.Neighbors(v)) ++neigh[t.partition.owner[u]];
    int32_t best = -1;
    for (uint32_t q = 0; q < num_workers_; ++q) {
      if (q == s || part_size[q] + 1 > dest_cap) continue;
      if (best < 0 || neigh[q] > neigh[best] ||
          (neigh[q] == neigh[best] &&
           (q < ewma.size() && static_cast<size_t>(best) < ewma.size() &&
            ewma[q] < ewma[best]))) {
        best = static_cast<int32_t>(q);
      }
    }
    if (best < 0) break;  // everything else at cap
    t.partition.owner[v] = static_cast<uint32_t>(best);
    --part_size[s];
    ++part_size[best];
    ++moved;
  }
  graph::RebuildMembers(&t.partition);
  t.moved_rows = moved;
  return t;
}

void ElasticController::Commit(const Transition& t, uint32_t resume_epoch,
                               double downtime_seconds, double sim_clock) {
  MembershipEvent e;
  e.epoch = resume_epoch;
  e.kind = t.kind;
  e.worker = t.worker;
  e.num_workers = t.new_num_workers;
  e.moved_rows = t.moved_rows;
  e.downtime_seconds = downtime_seconds;
  MembershipLog::Global().Add(e);

  obs::RecordStat("elastic.migrated_rows", static_cast<double>(t.moved_rows),
                  resume_epoch);
  obs::RecordStat("elastic.repartition_seconds", downtime_seconds,
                  resume_epoch);
  if (obs::TraceEnabled()) {
    obs::Tracer::Global().RecordSimSpan("elastic_repartition", /*worker=*/0,
                                        /*layer=*/-1, sim_clock,
                                        downtime_seconds);
  }

  // Remap per-worker compute scales into the new id space. A replacement
  // machine (crash_replace) starts at scale 1.0; a joiner is appended at
  // 1.0.
  std::vector<double> scale(t.new_num_workers, 1.0);
  if (!worker_scale_.empty() && t.kind != "crash_replace") {
    for (uint32_t w = 0; w < num_workers_ && w < worker_scale_.size(); ++w) {
      const int32_t nw = w < t.old_to_new.size() ? t.old_to_new[w] : -1;
      if (nw >= 0 && static_cast<uint32_t>(nw) < scale.size()) {
        scale[nw] = worker_scale_[w];
      }
    }
    worker_scale_ = std::move(scale);
  } else if (!worker_scale_.empty() && t.kind == "crash_replace") {
    worker_scale_.resize(t.new_num_workers, 1.0);
    if (t.worker >= 0 &&
        static_cast<size_t>(t.worker) < worker_scale_.size()) {
      worker_scale_[t.worker] = 1.0;
    }
  }
  num_workers_ = t.new_num_workers;
  rebalancer_.OnMembershipChange(resume_epoch, num_workers_);
}

uint64_t CountMovedRows(const graph::Partition& base,
                        const std::vector<int32_t>& old_to_new,
                        const graph::Partition& next) {
  uint64_t moved = 0;
  for (uint32_t v = 0; v < base.owner.size(); ++v) {
    const uint32_t old = base.owner[v];
    const int32_t mapped = old < old_to_new.size() ? old_to_new[old] : -1;
    if (mapped < 0 || static_cast<uint32_t>(mapped) != next.owner[v]) {
      ++moved;
    }
  }
  return moved;
}

}  // namespace ecg::elastic
