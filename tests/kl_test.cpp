// Tests for the Kernighan-Lin baseline partitioner (paper ref [4]).
#include "baseline/kernighan_lin.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>
#include <vector>

#include "dfg/benchmarks.hpp"
#include "dfg/generator.hpp"

namespace chop::baseline {
namespace {

TEST(KlGraph, BuildsFromOperations) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const auto ops = ar.all_operations();
  const KlGraph g = KlGraph::from_operations(ar.graph, ops);
  EXPECT_EQ(g.vertex_count, 28);
  // Every adjacency entry is symmetric.
  for (int v = 0; v < g.vertex_count; ++v) {
    for (const auto& [u, w] : g.adjacency[static_cast<std::size_t>(v)]) {
      bool found = false;
      for (const auto& [back, bw] : g.adjacency[static_cast<std::size_t>(u)]) {
        if (back == v && bw == w) found = true;
      }
      EXPECT_TRUE(found) << "asymmetric edge " << v << "<->" << u;
    }
  }
}

TEST(KlGraph, ParallelEdgesMerge) {
  dfg::Graph g("p");
  const auto a = g.add_input("a", 16);
  const auto m = g.add_op(dfg::OpKind::Mul, 16, {a, a});
  const auto s = g.add_op(dfg::OpKind::Add, 16, {m, m});  // two edges m->s
  g.add_output("y", s);
  const KlGraph kg = KlGraph::from_operations(g, {m, s});
  ASSERT_EQ(kg.adjacency[0].size(), 1u);
  EXPECT_EQ(kg.adjacency[0][0].second, 32);  // merged weight
}

TEST(KlGraph, RejectsDuplicates) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  auto ops = ar.all_operations();
  ops.push_back(ops[0]);
  EXPECT_THROW(KlGraph::from_operations(ar.graph, ops), Error);
}

TEST(RandomBisection, Balanced) {
  Rng rng(5);
  for (int n : {2, 7, 28, 101}) {
    const auto side = random_bisection(n, rng);
    const int ones = static_cast<int>(std::count(side.begin(), side.end(), 1));
    EXPECT_LE(std::abs(2 * ones - n), 1) << "n=" << n;
  }
  EXPECT_THROW(random_bisection(1, rng), Error);
}

TEST(KernighanLin, NeverWorsensTheCut) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const auto ops = ar.all_operations();
  const KlGraph g = KlGraph::from_operations(ar.graph, ops);
  Rng rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    const auto initial = random_bisection(g.vertex_count, rng);
    const Bits before = cut_cost(g, initial);
    const KlResult r = kernighan_lin(g, initial);
    EXPECT_LE(r.cut_cost, before);
    EXPECT_GE(r.passes, 1);
  }
}

TEST(KernighanLin, PreservesBalance) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const KlGraph g = KlGraph::from_operations(ar.graph, ar.all_operations());
  Rng rng(23);
  const auto initial = random_bisection(g.vertex_count, rng);
  const int ones_before =
      static_cast<int>(std::count(initial.begin(), initial.end(), 1));
  const KlResult r = kernighan_lin(g, initial);
  const int ones_after =
      static_cast<int>(std::count(r.side.begin(), r.side.end(), 1));
  EXPECT_EQ(ones_before, ones_after);
}

TEST(KernighanLin, FindsTheObviousCut) {
  // Two heavy 64-bit chains connected only through a 1-bit compare: the
  // minimum balanced cut crosses just the two 1-bit bridge edges.
  dfg::Graph g("bridge");
  std::vector<dfg::NodeId> left, right;
  const auto in = g.add_input("in", 64);
  dfg::NodeId prev = in;
  for (int i = 0; i < 4; ++i) {
    prev = g.add_op(dfg::OpKind::Add, 64, {prev, prev});
    left.push_back(prev);
  }
  const auto cmp = g.add_op(dfg::OpKind::Compare, 1, {prev, prev});
  left.push_back(cmp);
  dfg::NodeId prev2 = g.add_op(dfg::OpKind::Add, 64, {cmp, cmp});
  right.push_back(prev2);
  for (int i = 0; i < 3; ++i) {
    prev2 = g.add_op(dfg::OpKind::Add, 64, {prev2, prev2});
    right.push_back(prev2);
  }
  g.add_output("a", prev);
  g.add_output("b", prev2);

  std::vector<dfg::NodeId> ops = left;
  ops.insert(ops.end(), right.begin(), right.end());
  const KlGraph kg = KlGraph::from_operations(g, ops);
  Rng rng(3);
  Bits best = std::numeric_limits<Bits>::max();
  for (int restart = 0; restart < 3; ++restart) {
    const KlResult r =
        kernighan_lin(kg, random_bisection(kg.vertex_count, rng));
    best = std::min(best, r.cut_cost);
  }
  // Only the two 1-bit cmp->add edges must cross.
  EXPECT_LE(best, 2);
}

TEST(KernighanLin, RejectsUnbalancedStart) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const KlGraph g = KlGraph::from_operations(ar.graph, ar.all_operations());
  std::vector<int> all_zero(static_cast<std::size_t>(g.vertex_count), 0);
  EXPECT_THROW(kernighan_lin(g, all_zero), Error);
}

TEST(KernighanLin, RejectsSidesOtherThanZeroAndOne) {
  KlGraph g;
  g.vertex_count = 4;
  g.adjacency.resize(4);
  EXPECT_THROW(kernighan_lin(g, {1, 1, 0, 2}), Error);  // two 1s: balanced
}

/// Among equal-gain pairs each step swaps the lexicographically smallest
/// (a, b). On these graphs another choice of a, or of b for the same a,
/// ends in a different (equally cheap) bisection.
TEST(KernighanLin, TieBreakIsLexicographicallySmallestPair) {
  const auto make = [](int n, std::vector<std::tuple<int, int, Bits>> edges) {
    KlGraph g;
    g.vertex_count = n;
    g.adjacency.resize(static_cast<std::size_t>(n));
    for (const auto& [a, b, w] : edges) {
      g.adjacency[static_cast<std::size_t>(a)].emplace_back(b, w);
      g.adjacency[static_cast<std::size_t>(b)].emplace_back(a, w);
    }
    return g;
  };
  const KlGraph ties_in_a = make(4, {{0, 3, 1}, {1, 3, 2}});
  const KlResult a = kernighan_lin(ties_in_a, {0, 0, 1, 1});
  EXPECT_EQ(a.side, (std::vector<int>{1, 0, 1, 0}));
  EXPECT_EQ(a.cut_cost, 1);

  const KlGraph ties_in_b = make(6, {{0, 1, 1}, {0, 2, 1}, {0, 3, 1},
                                     {0, 5, 2}, {1, 2, 1}, {2, 3, 2},
                                     {2, 5, 1}, {3, 5, 1}});
  const KlResult b = kernighan_lin(ties_in_b, {0, 0, 0, 1, 1, 1});
  EXPECT_EQ(b.side, (std::vector<int>{1, 0, 0, 0, 1, 1}));
  EXPECT_EQ(b.cut_cost, 5);
  EXPECT_EQ(b.passes, 2);
}

TEST(KernighanLin, RejectsNegativeWeights) {
  KlGraph g;
  g.vertex_count = 2;
  g.adjacency = {{{1, -4}}, {{0, -4}}};
  EXPECT_THROW(kernighan_lin(g, {0, 1}), Error);
}

TEST(KlPartition, ProducesKParts) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Rng rng(7);
  for (int k : {1, 2, 3, 4}) {
    const auto parts = kl_partition(ar.graph, ar.all_operations(), k, rng);
    EXPECT_EQ(parts.size(), static_cast<std::size_t>(k));
    std::size_t total = 0;
    for (const auto& p : parts) {
      EXPECT_FALSE(p.empty());
      total += p.size();
    }
    EXPECT_EQ(total, 28u);
  }
  EXPECT_THROW(kl_partition(ar.graph, ar.all_operations(), 0, rng), Error);
}

TEST(KlPartition, DeterministicForSeed) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Rng a(9), b(9);
  const auto pa = kl_partition(ar.graph, ar.all_operations(), 3, a);
  const auto pb = kl_partition(ar.graph, ar.all_operations(), 3, b);
  EXPECT_EQ(pa, pb);
}

class KlProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KlProperty, ImprovesRandomGraphCuts) {
  Rng rng(GetParam());
  dfg::RandomDagSpec spec;
  spec.operations = 30;
  spec.depth = 5;
  const dfg::BenchmarkGraph bg = dfg::random_dag(rng, spec);
  const KlGraph g = KlGraph::from_operations(bg.graph, bg.all_operations());
  const auto initial = random_bisection(g.vertex_count, rng);
  const KlResult r = kernighan_lin(g, initial);
  EXPECT_LE(r.cut_cost, cut_cost(g, initial));
  EXPECT_EQ(r.cut_cost, cut_cost(g, r.side));  // reported cost is real
}

INSTANTIATE_TEST_SUITE_P(Seeds, KlProperty,
                         ::testing::Values(101u, 102u, 103u, 104u, 105u,
                                           106u));

}  // namespace
}  // namespace chop::baseline
