#include "baseline/kernighan_lin.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <set>

namespace chop::baseline {

KlGraph KlGraph::from_operations(const dfg::Graph& g,
                                 const std::vector<dfg::NodeId>& ops) {
  KlGraph out;
  out.vertex_count = static_cast<int>(ops.size());
  out.adjacency.resize(ops.size());

  std::map<dfg::NodeId, int> vertex_of;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    CHOP_REQUIRE(!vertex_of.count(ops[i]), "duplicate operation in KL input");
    vertex_of[ops[i]] = static_cast<int>(i);
  }

  std::map<std::pair<int, int>, Bits> weight;
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const dfg::Edge& edge = g.edge(static_cast<dfg::EdgeId>(e));
    auto s = vertex_of.find(edge.src);
    auto d = vertex_of.find(edge.dst);
    if (s == vertex_of.end() || d == vertex_of.end()) continue;
    const int a = std::min(s->second, d->second);
    const int b = std::max(s->second, d->second);
    if (a == b) continue;
    weight[{a, b}] += edge.width;
  }
  for (const auto& [pair, w] : weight) {
    out.adjacency[static_cast<std::size_t>(pair.first)].emplace_back(
        pair.second, w);
    out.adjacency[static_cast<std::size_t>(pair.second)].emplace_back(
        pair.first, w);
  }
  return out;
}

Bits cut_cost(const KlGraph& g, const std::vector<int>& side) {
  CHOP_REQUIRE(side.size() == static_cast<std::size_t>(g.vertex_count),
               "side vector size mismatch");
  Bits cost = 0;
  for (int v = 0; v < g.vertex_count; ++v) {
    for (const auto& [u, w] : g.adjacency[static_cast<std::size_t>(v)]) {
      if (u > v && side[static_cast<std::size_t>(u)] !=
                       side[static_cast<std::size_t>(v)]) {
        cost += w;
      }
    }
  }
  return cost;
}

std::vector<int> random_bisection(int vertex_count, Rng& rng) {
  CHOP_REQUIRE(vertex_count >= 2, "bisection needs at least two vertices");
  std::vector<int> side(static_cast<std::size_t>(vertex_count), 0);
  for (int i = vertex_count / 2; i < vertex_count; ++i) {
    side[static_cast<std::size_t>(i)] = 1;
  }
  // Fisher-Yates shuffle of the assignment.
  for (int i = vertex_count - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform(0, i));
    std::swap(side[static_cast<std::size_t>(i)], side[j]);
  }
  return side;
}

namespace {

/// External minus internal cost of vertex v under `side`.
Bits d_value(const KlGraph& g, const std::vector<int>& side, int v) {
  Bits external = 0, internal = 0;
  for (const auto& [u, w] : g.adjacency[static_cast<std::size_t>(v)]) {
    if (side[static_cast<std::size_t>(u)] == side[static_cast<std::size_t>(v)]) {
      internal += w;
    } else {
      external += w;
    }
  }
  return external - internal;
}

/// Unlocked vertices of one side keyed (-D, vertex): best D first, ties by
/// index.
using DOrder = std::set<std::pair<Bits, int>>;

}  // namespace

KlResult kernighan_lin(const KlGraph& g, std::vector<int> initial) {
  CHOP_REQUIRE(initial.size() == static_cast<std::size_t>(g.vertex_count),
               "initial assignment size mismatch");
  CHOP_REQUIRE(std::all_of(initial.begin(), initial.end(),
                           [](int s) { return s == 0 || s == 1; }),
               "KL initial assignment must be 0 or 1 per vertex");
  const int ones = static_cast<int>(
      std::count(initial.begin(), initial.end(), 1));
  CHOP_REQUIRE(std::abs(2 * ones - g.vertex_count) <= 1,
               "KL initial assignment must be balanced");
  const auto n = static_cast<std::size_t>(g.vertex_count);

  // incident[u] lists (v, w) for every entry (u, w) in adjacency[v]: the
  // terms of D(v) that change when u switches sides.
  std::vector<std::vector<std::pair<int, Bits>>> incident(n);
  for (int v = 0; v < g.vertex_count; ++v) {
    for (const auto& [u, w] : g.adjacency[static_cast<std::size_t>(v)]) {
      CHOP_REQUIRE(w >= 0, "KL edge weights must be non-negative");
      incident[static_cast<std::size_t>(u)].emplace_back(v, w);
    }
  }

  KlResult result;
  result.side = std::move(initial);

  // weight_to[u] is the weight of the first adjacency entry of stamp[u]
  // toward u: the pair scan's edge lookup, filled once per scanned `a`.
  std::vector<Bits> weight_to(n, 0);
  std::vector<int> stamp(n, -1);

  while (true) {
    ++result.passes;
    std::vector<int> side = result.side;
    std::vector<bool> locked(n, false);
    std::vector<Bits> d(n);
    DOrder order[2];
    for (int v = 0; v < g.vertex_count; ++v) {
      const auto i = static_cast<std::size_t>(v);
      d[i] = d_value(g, side, v);
      order[side[i]].emplace(-d[i], v);
    }

    std::vector<std::pair<int, int>> swaps;  // chosen (a, b) per step
    std::vector<Bits> gains;

    const int steps = g.vertex_count / 2;
    for (int step = 0; step < steps; ++step) {
      // The pair of highest gain D(a) + D(b) - 2w(a, b), lexicographically
      // smallest (a, b) among ties. Weights are >= 0, so D(a) + D(b)
      // bounds every pair's gain: both sides are walked best D first and
      // a walk stops once the bound cannot beat or tie-win the best pair.
      Bits best_gain = std::numeric_limits<Bits>::min();
      int best_a = -1, best_b = -1;
      if (!order[1].empty()) {
        const Bits top_b = -order[1].begin()->first;
        for (const auto& [neg_da, a] : order[0]) {
          const Bits da = -neg_da;
          const Bits bound_a = da + top_b;
          if (bound_a < best_gain || (bound_a == best_gain && a > best_a)) {
            break;
          }
          for (const auto& [u, w] : g.adjacency[static_cast<std::size_t>(a)]) {
            const auto ui = static_cast<std::size_t>(u);
            if (stamp[ui] == a) continue;
            stamp[ui] = a;
            weight_to[ui] = w;
          }
          for (const auto& [neg_db, b] : order[1]) {
            const Bits bound = da - neg_db;
            if (bound < best_gain) break;
            const auto bi = static_cast<std::size_t>(b);
            const Bits w = stamp[bi] == a ? weight_to[bi] : 0;
            const Bits gain = bound - 2 * w;
            if (gain > best_gain ||
                (gain == best_gain &&
                 (a < best_a || (a == best_a && b < best_b)))) {
              best_gain = gain;
              best_a = a;
              best_b = b;
            }
            // A non-adjacent b reaches the bound; every later b has a
            // lower D, or the same D and a higher index.
            if (w == 0) break;
          }
        }
      }
      if (best_a < 0) break;  // one side ran out of unlocked vertices
      swaps.emplace_back(best_a, best_b);
      gains.push_back(best_gain);
      // Lock the pair and update D values as if the swap happened: only
      // the terms for edges to a or b change.
      for (const int x : {best_a, best_b}) {
        const auto xi = static_cast<std::size_t>(x);
        locked[xi] = true;
        order[side[xi]].erase({-d[xi], x});
      }
      std::swap(side[static_cast<std::size_t>(best_a)],
                side[static_cast<std::size_t>(best_b)]);
      for (const int x : {best_a, best_b}) {
        const int to = side[static_cast<std::size_t>(x)];
        for (const auto& [v, w] : incident[static_cast<std::size_t>(x)]) {
          const auto vi = static_cast<std::size_t>(v);
          if (locked[vi]) continue;
          auto& ord = order[side[vi]];
          ord.erase({-d[vi], v});
          // x joined v's side: the term turns internal; else external.
          d[vi] += side[vi] == to ? -2 * w : 2 * w;
          ord.emplace(-d[vi], v);
        }
      }
    }

    // Best prefix of the swap sequence.
    Bits best_total = 0, running = 0;
    std::size_t best_k = 0;
    for (std::size_t k = 0; k < gains.size(); ++k) {
      running += gains[k];
      if (running > best_total) {
        best_total = running;
        best_k = k + 1;
      }
    }
    if (best_total <= 0) break;  // no improvement: done
    for (std::size_t k = 0; k < best_k; ++k) {
      std::swap(result.side[static_cast<std::size_t>(swaps[k].first)],
                result.side[static_cast<std::size_t>(swaps[k].second)]);
    }
  }

  result.cut_cost = cut_cost(g, result.side);
  return result;
}

std::vector<std::vector<dfg::NodeId>> kl_partition(
    const dfg::Graph& g, const std::vector<dfg::NodeId>& ops, int k,
    Rng& rng) {
  CHOP_REQUIRE(k >= 1, "partition count must be positive");
  CHOP_REQUIRE(static_cast<int>(ops.size()) >= k,
               "cannot split fewer operations than partitions");
  std::vector<std::vector<dfg::NodeId>> parts{ops};
  while (static_cast<int>(parts.size()) < k) {
    // Split the largest current part.
    std::size_t largest = 0;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      if (parts[i].size() > parts[largest].size()) largest = i;
    }
    CHOP_REQUIRE(parts[largest].size() >= 2,
                 "cannot split a single-operation partition");
    const std::vector<dfg::NodeId> victim = parts[largest];
    const KlGraph kg = KlGraph::from_operations(g, victim);
    const KlResult kl =
        kernighan_lin(kg, random_bisection(kg.vertex_count, rng));
    std::vector<dfg::NodeId> left, right;
    for (std::size_t v = 0; v < victim.size(); ++v) {
      (kl.side[v] == 0 ? left : right).push_back(victim[v]);
    }
    parts[largest] = std::move(left);
    parts.push_back(std::move(right));
  }
  return parts;
}

}  // namespace chop::baseline
