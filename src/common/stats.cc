#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include "common/flight_recorder.h"
#include "common/kernels.h"
#include "common/metrics.h"
#include "common/thread_pool.h"

namespace ecg::obs {

void StatValue::Add(double v) {
  if (count == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  ++count;
  sum += v;
  last = v;
}

void StatValue::Merge(const StatValue& o) {
  if (o.count == 0) return;
  if (count == 0) {
    min = o.min;
    max = o.max;
  } else {
    min = std::min(min, o.min);
    max = std::max(max, o.max);
  }
  count += o.count;
  sum += o.sum;
  last = o.last;
}

StatsRegistry& StatsRegistry::Global() {
  static StatsRegistry* registry = new StatsRegistry();  // leaked, see Tracer
  return *registry;
}

void StatsRegistry::Enable(const std::string& jsonl_path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    path_ = jsonl_path;
    summary_written_ = false;
    if (!jsonl_path.empty()) {
      // Truncate once at enable; epoch flushes append. The first row is a
      // header stamping the run environment (same identity the benches
      // embed in their BENCH_*.json "stamp").
      std::ofstream out(jsonl_path, std::ios::trunc);
      out << "{\"header\":true,\"commit\":\"" << JsonEscape(BuildCommit())
          << "\",\"kernels\":\"" << kern::ActiveName()
          << "\",\"threads\":" << ThreadPool::Global().num_threads()
          << "}\n";
    }
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void StatsRegistry::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void StatsRegistry::Record(const std::string& name, double value,
                           uint32_t epoch, int32_t layer, int32_t peer,
                           int32_t worker) {
  Histogram* bridged = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    live_[StatKey{name, epoch, layer, peer, worker}].Add(value);
    // Bridge into the live metrics plane: every stat series doubles as a
    // Prometheus histogram labelled by (layer, peer, worker) — epoch is
    // deliberately dropped (a scrape series per epoch would be unbounded
    // cardinality; the time dimension is the scraper's job). This one hook
    // is what makes exchangers, trainers, the param server, the transport
    // and elastic transitions visible live without touching each call
    // site. Handle acquisition (string building, metrics-registry lock)
    // happens once per series; steady state is the cache hit below.
    if (MetricsEnabled()) {
      Histogram*& slot = bridge_[StatKey{name, kNoEpoch, layer, peer, worker}];
      if (slot == nullptr) {
        std::string metric = "ecg_";
        metric.reserve(metric.size() + name.size());
        for (char c : name) metric += (c == '.' || c == '-') ? '_' : c;
        MetricLabels labels;
        if (layer >= 0) labels.emplace_back("layer", std::to_string(layer));
        if (peer >= 0) labels.emplace_back("peer", std::to_string(peer));
        if (worker >= 0) {
          labels.emplace_back("worker", std::to_string(worker));
        }
        slot = MetricsRegistry::Global().GetHistogram(
            metric, "Bridged from stat series '" + name + "'.",
            std::move(labels));
      }
      bridged = slot;
    }
  }
  if (bridged != nullptr) bridged->Observe(value);
}

namespace {

/// Exact and round-trippable: integral values below 2^53 (byte and row
/// counts, whatever their size) print as integers, everything else with
/// %.17g.
void AppendNumber(std::string* out, double v) {
  char buf[32];
  if (std::fabs(v) < 0x1p53 && v == std::trunc(v)) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  *out += buf;
}

}  // namespace

void StatsRegistry::WriteRow(std::ostream& os, const StatKey& key,
                             const StatValue& value, bool summary) const {
  std::string row = "{";
  if (summary) {
    row += "\"summary\":true";
  } else {
    row += "\"epoch\":" + std::to_string(key.epoch);
  }
  row += ",\"name\":\"" + key.name + "\"";
  if (key.layer >= 0) row += ",\"layer\":" + std::to_string(key.layer);
  if (key.peer >= 0) row += ",\"peer\":" + std::to_string(key.peer);
  if (key.worker >= 0) row += ",\"worker\":" + std::to_string(key.worker);
  row += ",\"count\":" + std::to_string(value.count);
  row += ",\"sum\":";
  AppendNumber(&row, value.sum);
  row += ",\"min\":";
  AppendNumber(&row, value.min);
  row += ",\"max\":";
  AppendNumber(&row, value.max);
  row += ",\"avg\":";
  AppendNumber(&row, value.Avg());
  row += ",\"last\":";
  AppendNumber(&row, value.last);
  row += "}\n";
  os << row;
}

void StatsRegistry::DumpEpochTo(uint32_t epoch, std::ostream& os,
                                bool erase) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.lower_bound(StatKey{"", epoch, INT32_MIN, INT32_MIN,
                                      INT32_MIN});
  while (it != live_.end() && it->first.epoch == epoch) {
    WriteRow(os, it->first, it->second, /*summary=*/false);
    if (erase) {
      summary_[it->first.name].Merge(it->second);
      it = live_.erase(it);
    } else {
      ++it;
    }
  }
}

void StatsRegistry::DumpSummaryTo(std::ostream& os) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, value] : summary_) {
    WriteRow(os, StatKey{name}, value, /*summary=*/true);
  }
}

void StatsRegistry::FlushEpoch(uint32_t epoch) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    path = path_;
  }
  if (path.empty()) {
    // Still retire the epoch into the summary so memory stays bounded.
    std::ofstream null_sink;
    DumpEpochTo(epoch, null_sink, /*erase=*/true);
    return;
  }
  std::ofstream out(path, std::ios::app);
  DumpEpochTo(epoch, out, /*erase=*/true);
}

void StatsRegistry::FlushAll() {
  std::vector<uint32_t> epochs;
  std::string path;
  bool write_summary = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    path = path_;
    write_summary = !summary_written_;
    summary_written_ = true;
    for (const auto& [key, value] : live_) {
      if (epochs.empty() || epochs.back() != key.epoch) {
        epochs.push_back(key.epoch);
      }
    }
  }
  if (path.empty()) {
    std::ofstream null_sink;
    for (uint32_t e : epochs) DumpEpochTo(e, null_sink, /*erase=*/true);
    return;
  }
  std::ofstream out(path, std::ios::app);
  for (uint32_t e : epochs) DumpEpochTo(e, out, /*erase=*/true);
  if (write_summary) DumpSummaryTo(out);
}

std::map<StatKey, StatValue> StatsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_;
}

double StatsRegistry::SumFor(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  auto it = summary_.find(name);
  if (it != summary_.end()) total += it->second.sum;
  for (const auto& [key, value] : live_) {
    if (key.name == name) total += value.sum;
  }
  return total;
}

void StatsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  live_.clear();
  summary_.clear();
  path_.clear();
  summary_written_ = false;
  bridge_.clear();
}

}  // namespace ecg::obs
