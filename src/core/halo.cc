#include "core/halo.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>

namespace ecg::core {

Status BuildWorkerPlans(const graph::Graph& g,
                        const graph::Partition& partition,
                        std::vector<WorkerPlan>* plans, GnnKind kind) {
  AdjacencyView view;
  view.num_vertices = g.num_vertices();
  view.neighbors = [&g](uint32_t v) { return g.Neighbors(v); };
  if (kind == GnnKind::kSage) {
    view.norm_weight = [&g](uint32_t v, uint32_t u) {
      return g.MeanWeight(v, u);
    };
    view.norm_weight_bp = [&g](uint32_t v, uint32_t u) {
      return g.MeanWeight(u, v);  // transpose values
    };
  } else {
    view.norm_weight = [&g](uint32_t u, uint32_t v) {
      return g.NormWeight(u, v);
    };
  }
  return BuildWorkerPlansFromView(view, partition, plans);
}

Status BuildWorkerPlansFromView(const AdjacencyView& g,
                                const graph::Partition& partition,
                                std::vector<WorkerPlan>* plans) {
  if (partition.owner.size() != g.num_vertices) {
    return Status::InvalidArgument("partition does not match graph");
  }
  const uint32_t parts = partition.num_parts;
  plans->assign(parts, WorkerPlan{});

  for (uint32_t w = 0; w < parts; ++w) {
    WorkerPlan& plan = (*plans)[w];
    plan.worker_id = w;
    plan.owned = partition.members[w];  // already sorted ascending

    std::unordered_map<uint32_t, uint32_t> local_row;
    local_row.reserve(plan.owned.size() * 2);
    for (uint32_t r = 0; r < plan.owned.size(); ++r) {
      local_row[plan.owned[r]] = r;
    }

    // Halo = remote neighbours of owned vertices, deduped and sorted.
    for (uint32_t v : plan.owned) {
      for (uint32_t u : g.neighbors(v)) {
        if (partition.owner[u] != w) plan.halo.push_back(u);
      }
    }
    std::sort(plan.halo.begin(), plan.halo.end());
    plan.halo.erase(std::unique(plan.halo.begin(), plan.halo.end()),
                    plan.halo.end());
    plan.halo_owner.resize(plan.halo.size());
    std::unordered_map<uint32_t, uint32_t> halo_row;
    halo_row.reserve(plan.halo.size() * 2);
    for (uint32_t i = 0; i < plan.halo.size(); ++i) {
      plan.halo_owner[i] = partition.owner[plan.halo[i]];
      halo_row[plan.halo[i]] = i;
    }

    // recv_halo_rows[p]: halo rows owned by p, ascending global id (halo is
    // sorted so the natural order is already ascending).
    plan.recv_halo_rows.assign(parts, {});
    for (uint32_t i = 0; i < plan.halo.size(); ++i) {
      plan.recv_halo_rows[plan.halo_owner[i]].push_back(i);
    }

    // Âsub rows over [owned | halo] columns, with the self loop of
    // (A + I). A zero self weight (SAGE's mean: W_self carries v itself)
    // stores no entry, in either direction: a stored zero would still
    // turn a non-finite H[v] into NaN.
    std::vector<std::tuple<uint32_t, uint32_t, float>> triplets;
    for (uint32_t r = 0; r < plan.owned.size(); ++r) {
      const uint32_t v = plan.owned[r];
      const float self = g.norm_weight(v, v);
      if (self != 0.0f) triplets.emplace_back(r, r, self);
      for (uint32_t u : g.neighbors(v)) {
        uint32_t col;
        if (partition.owner[u] == w) {
          col = local_row[u];
        } else {
          col = static_cast<uint32_t>(plan.owned.size()) + halo_row[u];
        }
        triplets.emplace_back(r, col, g.norm_weight(v, u));
      }
    }
    ECG_ASSIGN_OR_RETURN(
        plan.adj, tensor::CsrMatrix::FromTriplets(
                      plan.owned.size(), plan.cat_rows(), triplets));
    plan.adj.SplitColumns(plan.num_owned());
    if (g.norm_weight_bp) {
      // Same sparsity, transposed values: entry (v, u) = Ā[u, v].
      std::vector<std::tuple<uint32_t, uint32_t, float>> bp_triplets;
      bp_triplets.reserve(triplets.size());
      for (uint32_t r = 0; r < plan.owned.size(); ++r) {
        const uint32_t v = plan.owned[r];
        const float self = g.norm_weight_bp(v, v);
        if (self != 0.0f) bp_triplets.emplace_back(r, r, self);
        for (uint32_t u : g.neighbors(v)) {
          uint32_t col;
          if (partition.owner[u] == w) {
            col = local_row[u];
          } else {
            col = static_cast<uint32_t>(plan.owned.size()) + halo_row[u];
          }
          bp_triplets.emplace_back(r, col, g.norm_weight_bp(v, u));
        }
      }
      ECG_ASSIGN_OR_RETURN(
          plan.adj_bp, tensor::CsrMatrix::FromTriplets(
                           plan.owned.size(), plan.cat_rows(), bp_triplets));
      plan.adj_bp.SplitColumns(plan.num_owned());
    }
    plan.send_rows.assign(parts, {});
  }

  // send_rows[w][p] mirrors plans[p].recv_halo_rows[w]: the same vertices,
  // same (ascending global id) order, expressed as local rows of w.
  for (uint32_t p = 0; p < parts; ++p) {
    const WorkerPlan& receiver = (*plans)[p];
    for (uint32_t w = 0; w < parts; ++w) {
      if (w == p) continue;
      WorkerPlan& sender = (*plans)[w];
      auto& rows = sender.send_rows[p];
      for (uint32_t halo_row_idx : receiver.recv_halo_rows[w]) {
        const uint32_t global_id = receiver.halo[halo_row_idx];
        // Owned lists are sorted: binary search for the local row.
        const auto it = std::lower_bound(sender.owned.begin(),
                                         sender.owned.end(), global_id);
        rows.push_back(
            static_cast<uint32_t>(it - sender.owned.begin()));
      }
    }
  }
  return Status::OK();
}

}  // namespace ecg::core
