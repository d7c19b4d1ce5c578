// Tests for register-demand estimation from schedules, including the
// pipelined modulo-folding behaviour.
#include "schedule/register_demand.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dfg/analysis.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/generator.hpp"

namespace chop::sched {
namespace {

using dfg::OpKind;

TEST(RegisterDemand, ChainHoldsOneValuePerBoundary) {
  // in -> a -> b -> c -> out, all 16-bit: at any boundary exactly one
  // intermediate value is alive (the output value is held one cycle).
  dfg::Graph g("chain");
  dfg::NodeId prev = g.add_input("in", 16);
  for (int i = 0; i < 3; ++i) {
    prev = g.add_op(i % 2 ? OpKind::Mul : OpKind::Add, 16, {prev, prev});
  }
  g.add_output("y", prev);
  const auto lat = dfg::unit_latencies(g);
  const OpSchedule s = list_schedule(g, lat, ResourceLimits{});
  EXPECT_EQ(register_demand(g, lat, s), 16);
}

TEST(RegisterDemand, InputsAreExcluded) {
  // A single op consuming two inputs: no intermediate values are alive
  // across boundaries except the op result in its handoff cycle.
  dfg::Graph g("io");
  const auto a = g.add_input("a", 16);
  const auto b = g.add_input("b", 16);
  const auto m = g.add_op(OpKind::Mul, 16, {a, b});
  g.add_output("y", m);
  const auto lat = dfg::unit_latencies(g);
  const OpSchedule s = list_schedule(g, lat, ResourceLimits{});
  EXPECT_EQ(register_demand(g, lat, s), 16);  // the output handoff only
}

TEST(RegisterDemand, ParallelValuesAccumulate) {
  // Four independent muls feeding a 3-add tree: after the mul step all
  // four products are alive.
  dfg::Graph g("par");
  std::vector<dfg::NodeId> prods;
  for (int i = 0; i < 4; ++i) {
    const auto x = g.add_input("x" + std::to_string(i), 16);
    prods.push_back(g.add_op(OpKind::Mul, 16, {x, x}));
  }
  const auto s1 = g.add_op(OpKind::Add, 16, {prods[0], prods[1]});
  const auto s2 = g.add_op(OpKind::Add, 16, {prods[2], prods[3]});
  const auto s3 = g.add_op(OpKind::Add, 16, {s1, s2});
  g.add_output("y", s3);
  const auto lat = dfg::unit_latencies(g);
  const OpSchedule sched = list_schedule(g, lat, ResourceLimits{});
  EXPECT_GE(register_demand(g, lat, sched), 64);
}

TEST(RegisterDemand, LongLifetimeDominates) {
  // A value produced early and consumed late stays alive throughout.
  dfg::Graph g("long");
  const auto in = g.add_input("in", 32);
  const auto early = g.add_op(OpKind::Mul, 32, {in, in}, "early");
  dfg::NodeId chain = g.add_op(OpKind::Add, 32, {in, in});
  for (int i = 0; i < 4; ++i) chain = g.add_op(OpKind::Add, 32, {chain, chain});
  const auto last = g.add_op(OpKind::Add, 32, {early, chain});
  g.add_output("y", last);
  const auto lat = dfg::unit_latencies(g);
  ResourceLimits limits;
  limits.fu[OpKind::Add] = 1;
  limits.fu[OpKind::Mul] = 1;
  const OpSchedule s = list_schedule(g, lat, limits);
  // `early` is alive from cycle 1 to the last add: every boundary carries
  // at least its 32 bits.
  EXPECT_GE(register_demand(g, lat, s), 32);
}

TEST(RegisterDemand, PipelinedFoldingStacksIterations) {
  // Serial chain of 4 ops pipelined at II=1: all intermediate values of 4
  // concurrent iterations are alive at the single phase -> demand roughly
  // 4x the nonpipelined single-boundary demand.
  dfg::Graph g("pipe");
  dfg::NodeId prev = g.add_input("in", 16);
  std::vector<dfg::NodeId> ops;
  for (int i = 0; i < 4; ++i) {
    prev = g.add_op(OpKind::Add, 16, {prev, prev});
    ops.push_back(prev);
  }
  g.add_output("y", prev);
  const auto lat = dfg::unit_latencies(g);
  const OpSchedule nonpipe = list_schedule(g, lat, ResourceLimits{});
  const Bits base = register_demand(g, lat, nonpipe);
  ResourceLimits four_adders;
  four_adders.fu[OpKind::Add] = 4;
  const OpSchedule pipe = pipeline_schedule(g, lat, four_adders, 1);
  ASSERT_TRUE(pipe.feasible);
  const Bits folded = register_demand(g, lat, pipe);
  EXPECT_GT(folded, base);
  EXPECT_EQ(folded, 64);  // 4 values x 16 bits at the lone phase
}

TEST(RegisterDemand, RejectsMismatchedInputs) {
  const dfg::BenchmarkGraph fir = dfg::fir16();
  const auto lat = dfg::unit_latencies(fir.graph);
  OpSchedule s;
  s.start.assign(3, 0);
  EXPECT_THROW(register_demand(fir.graph, lat, s), Error);
}

TEST(RegisterDemand, ArFilterSerialVsParallel) {
  // More parallel schedules retire values faster but hold more of them;
  // the estimate must stay in a sane band either way.
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const auto lat = dfg::unit_latencies(ar.graph);
  for (int units : {1, 2, 4}) {
    ResourceLimits limits;
    limits.fu[OpKind::Mul] = units;
    limits.fu[OpKind::Add] = units;
    const OpSchedule s = list_schedule(ar.graph, lat, limits);
    const Bits demand = register_demand(ar.graph, lat, s);
    EXPECT_GE(demand, 16);
    EXPECT_LE(demand, 16 * 28);
  }
}

/// Brute-force reference: every value adds its width at every boundary it
/// crosses, folded modulo the II.
Bits reference_demand(const dfg::Graph& g, std::span<const Cycles> lat,
                      const OpSchedule& s) {
  const Cycles ii = std::max<Cycles>(s.initiation_interval, 1);
  std::vector<Bits> phase(static_cast<std::size_t>(ii), 0);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const dfg::NodeId id = static_cast<dfg::NodeId>(i);
    const dfg::Node& n = g.node(id);
    if (n.kind == OpKind::Output || n.kind == OpKind::Input || n.width == 0) {
      continue;
    }
    const Cycles birth = s.start[i] + lat[i];
    Cycles death = birth;
    for (dfg::EdgeId e : g.fanout(id)) {
      const auto d = static_cast<std::size_t>(g.edge(e).dst);
      death = std::max(death, g.node(g.edge(e).dst).kind == OpKind::Output
                                  ? birth + 1
                                  : s.start[d] + lat[d]);
    }
    for (Cycles b = birth; b < death; ++b) {
      phase[static_cast<std::size_t>(b % ii)] += n.width;
    }
  }
  return *std::max_element(phase.begin(), phase.end());
}

TEST(RegisterDemand, MatchesPerBoundaryReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    dfg::RandomDagSpec spec;
    spec.operations = static_cast<int>(rng.uniform(1, 120));
    spec.depth =
        static_cast<int>(rng.uniform(1, std::min(10, spec.operations)));
    spec.width = static_cast<Bits>(rng.uniform(1, 32));
    spec.memory_blocks = 1;
    spec.mem_reads = static_cast<int>(rng.uniform(0, 3));
    spec.mem_writes = static_cast<int>(rng.uniform(0, 2));
    const dfg::BenchmarkGraph bg = dfg::random_dag(rng, spec);
    const dfg::Graph& g = bg.graph;
    std::vector<Cycles> lat = dfg::unit_latencies(g);
    for (Cycles& l : lat) l = l > 0 ? rng.uniform(0, 4) : 0;

    // Scheduler output, nonpipelined and folded at every II up to its
    // length.
    ResourceLimits limits;
    limits.fu[OpKind::Mul] = static_cast<int>(rng.uniform(1, 4));
    limits.fu[OpKind::Add] = static_cast<int>(rng.uniform(1, 4));
    const OpSchedule list = list_schedule(g, lat, limits);
    EXPECT_EQ(register_demand(g, lat, list), reference_demand(g, lat, list))
        << "seed " << seed;
    for (Cycles ii = 1; ii <= list.length; ++ii) {
      const OpSchedule pipe = pipeline_schedule(g, lat, limits, ii);
      if (!pipe.feasible) continue;
      EXPECT_EQ(register_demand(g, lat, pipe), reference_demand(g, lat, pipe))
          << "seed " << seed << " ii " << ii;
    }

    // Arbitrary start times (lifetimes may be empty or long) and IIs.
    OpSchedule random;
    random.feasible = true;
    for (std::size_t i = 0; i < g.node_count(); ++i) {
      random.start.push_back(rng.uniform(0, 30));
      random.length = std::max(random.length, random.start.back() + lat[i]);
    }
    for (Cycles ii : {Cycles{0}, Cycles{1}, rng.uniform(2, 7), random.length}) {
      random.initiation_interval = ii;
      EXPECT_EQ(register_demand(g, lat, random),
                reference_demand(g, lat, random))
          << "seed " << seed << " random starts, ii " << ii;
    }
  }
}

}  // namespace
}  // namespace chop::sched
