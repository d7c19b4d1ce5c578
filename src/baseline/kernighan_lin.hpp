// Kernighan-Lin min-cut bipartitioning (paper ref [4]) as the classical
// baseline CHOP's related-work section argues against for behavioral
// specifications: KL minimizes "sum of costs of values cut", which does
// not directly correlate with pin counts or chip area once behavioral
// synthesis introduces sequential behavior. We implement it faithfully —
// pairwise-swap passes on an undirected weighted graph — so the
// bench_baseline_kl harness can evaluate KL cuts through CHOP's own
// predictors and compare.
#pragma once

#include <vector>

#include "dfg/graph.hpp"
#include "util/rng.hpp"

namespace chop::baseline {

/// Result of one KL bipartitioning.
struct KlResult {
  std::vector<int> side;  ///< 0/1 per vertex.
  Bits cut_cost = 0;      ///< Total weight of edges crossing the cut.
  int passes = 0;         ///< Improvement passes executed.
};

/// Undirected weighted graph for KL, built from a behavioral graph's
/// operation nodes (edge weight = value bit width; parallel edges merge).
struct KlGraph {
  int vertex_count = 0;
  /// Adjacency: per vertex, (neighbor, weight) pairs.
  std::vector<std::vector<std::pair<int, Bits>>> adjacency;

  static KlGraph from_operations(const dfg::Graph& g,
                                 const std::vector<dfg::NodeId>& ops);
};

/// Runs Kernighan-Lin starting from `initial` (0/1 per vertex, must be
/// balanced to within one vertex) until a pass yields no gain. Classic
/// greedy swapping with locked vertices per pass: each step swaps the
/// unlocked pair of highest gain, the lexicographically smallest (a, b)
/// among ties. Edge weights must be non-negative.
KlResult kernighan_lin(const KlGraph& g, std::vector<int> initial);

/// Balanced random initial assignment.
std::vector<int> random_bisection(int vertex_count, Rng& rng);

/// Recursive KL bisection of `ops` into `k` parts (k a power of two is
/// exact; otherwise the largest part keeps splitting). Returns member
/// lists usable as CHOP partitions.
std::vector<std::vector<dfg::NodeId>> kl_partition(
    const dfg::Graph& g, const std::vector<dfg::NodeId>& ops, int k, Rng& rng);

/// Cut cost of an assignment (for tests and reports).
Bits cut_cost(const KlGraph& g, const std::vector<int>& side);

}  // namespace chop::baseline
