#ifndef ECGRAPH_CORE_HALO_H_
#define ECGRAPH_CORE_HALO_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/gcn.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "tensor/csr.h"

namespace ecg::core {

/// Everything one worker needs to run partitioned GCN supersteps:
///
///  * which vertices it owns (global ids + global->local row map);
///  * its halo — remote 1-hop neighbours of owned vertices, in a fixed
///    sorted order (halo row i of the H_cat matrix = halo_vertices[i]);
///  * per-peer send/recv lists: send_rows[p] are *local row indices* of
///    owned vertices that peer p's halo contains (what this worker must
///    ship to p each exchange), and recv_halo_rows[p] are the *halo row
///    indices* that peer p's message fills in;
///  * the worker's slice of the normalized adjacency
///    Â = D^{-1/2}(A+I)D^{-1/2}: rows = owned vertices (local order),
///    columns = [owned local rows | halo rows] — multiplying it with
///    H_cat = [H_owned ; H_halo] yields the aggregation of Eq. 2;
///  * one adjacency per direction (`adj`, and `adj_bp` for asymmetric
///    aggregators), each with every row split into its owned columns and
///    its halo columns.
///
/// This is the 1-hop NAC (Neighbor Access Controller) of the paper, built
/// once at partition time.
struct WorkerPlan {
  uint32_t worker_id = 0;

  /// Owned vertex ids, ascending. Local row r holds global id owned[r].
  std::vector<uint32_t> owned;
  /// Halo vertex ids, ascending. H_cat row owned.size()+i = halo[i].
  std::vector<uint32_t> halo;
  /// owner[halo[i]] for quick lookup.
  std::vector<uint32_t> halo_owner;

  /// send_rows[p]: local rows this worker ships to peer p (empty for
  /// p == worker_id). Sorted by the *global id* of the vertex, which makes
  /// them positionally consistent with peer p's recv_halo_rows[this].
  std::vector<std::vector<uint32_t>> send_rows;
  /// recv_halo_rows[p]: halo rows filled by peer p's message, in the same
  /// global-id order as p's send_rows[this worker].
  std::vector<std::vector<uint32_t>> recv_halo_rows;

  /// Âsub: owned.size() x (owned.size() + halo.size()), split by
  /// `SplitColumns(owned.size())` for the exchange schedule (DistGNN's
  /// local/remote partial aggregation): `SpMMOwned` aggregates every row's
  /// owned columns while the halo is in flight, `SpMMHalo` adds its halo
  /// columns after, and the two passes are bitwise one SpMM. `adj_bp`,
  /// when populated, is split the same way.
  tensor::CsrMatrix adj;
  /// Backward-flow aggregation slice over the same [owned | halo] column
  /// layout. Empty (nnz == 0) when the aggregation matrix is symmetric
  /// (GCN) — use `adj` then. Populated for asymmetric aggregators
  /// (GraphSAGE mean): entry (v, u) = Ā[u, v], i.e. the transpose values
  /// on the same sparsity.
  tensor::CsrMatrix adj_bp;

  /// The aggregation slice BP should use.
  const tensor::CsrMatrix& bp_adj() const {
    return adj_bp.nnz() > 0 ? adj_bp : adj;
  }

  size_t num_owned() const { return owned.size(); }
  size_t num_halo() const { return halo.size(); }
  size_t cat_rows() const { return owned.size() + halo.size(); }

  /// Total remote 1-hop neighbour entries = ḡ_rmt · |owned| (Table I).
  uint64_t total_send_rows() const {
    uint64_t total = 0;
    for (const auto& s : send_rows) total += s.size();
    return total;
  }
};

/// Builds the plan of every worker for a partition. plans->size() will be
/// partition.num_parts. `kind` picks the aggregation weights: GCN's
/// symmetric normalization or SAGE's row-mean (which also populates
/// adj_bp with the transposed weights).
Status BuildWorkerPlans(const graph::Graph& g,
                        const graph::Partition& partition,
                        std::vector<WorkerPlan>* plans,
                        GnnKind kind = GnnKind::kGcn);

/// Generic adjacency accessor so plans can also be built over per-epoch
/// *sampled* adjacencies (EC-Graph-S) without materializing a Graph.
struct AdjacencyView {
  uint32_t num_vertices = 0;
  std::function<std::span<const uint32_t>(uint32_t)> neighbors;
  std::function<float(uint32_t, uint32_t)> norm_weight;
  /// Weight of edge (v, u) in the BACKWARD aggregation (= forward weight
  /// of (u, v)). Leave unset for symmetric aggregators; when set,
  /// WorkerPlan::adj_bp is populated.
  std::function<float(uint32_t, uint32_t)> norm_weight_bp;
};

/// View-based variant of BuildWorkerPlans (same invariants).
Status BuildWorkerPlansFromView(const AdjacencyView& view,
                                const graph::Partition& partition,
                                std::vector<WorkerPlan>* plans);

}  // namespace ecg::core

#endif  // ECGRAPH_CORE_HALO_H_
