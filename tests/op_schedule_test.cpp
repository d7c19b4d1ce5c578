// Tests for resource-constrained list scheduling and Sehwa-style modulo
// (pipeline) scheduling, including property sweeps over random graphs, and
// for the independent schedule checker those tests rely on.
#include "schedule/op_schedule.hpp"

#include <gtest/gtest.h>

#include <map>

#include "dfg/benchmarks.hpp"
#include "dfg/generator.hpp"
#include "schedule/schedule_check.hpp"

namespace chop::sched {
namespace {

using dfg::OpKind;

/// Checks the schedule with the independent checker.
void expect_valid(const dfg::Graph& g, std::span<const Cycles> lat,
                  const OpSchedule& s, const ResourceLimits& limits) {
  const ScheduleCheck check = check_schedule(g, lat, s, limits);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(ListSchedule, SerialSingleUnit) {
  const dfg::BenchmarkGraph fir = dfg::fir16();
  const auto lat = dfg::unit_latencies(fir.graph);
  ResourceLimits limits;
  limits.fu[OpKind::Mul] = 1;
  limits.fu[OpKind::Add] = 1;
  const OpSchedule s = list_schedule(fir.graph, lat, limits);
  ASSERT_TRUE(s.feasible);
  // 31 unit-latency ops on one mul + one add: length at least 16 (muls
  // serialized) and at most 31 (everything serialized).
  EXPECT_GE(s.length, 16);
  EXPECT_LE(s.length, 31);
  expect_valid(fir.graph, lat, s, limits);
}

TEST(ListSchedule, UnlimitedResourcesReachAsapLength) {
  const dfg::BenchmarkGraph fir = dfg::fir16();
  const auto lat = dfg::unit_latencies(fir.graph);
  const OpSchedule s = list_schedule(fir.graph, lat, ResourceLimits{});
  EXPECT_EQ(s.length, 5);  // the critical path
}

TEST(ListSchedule, MoreUnitsNeverLengthen) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const auto lat = dfg::unit_latencies(ar.graph);
  Cycles prev = 1 << 20;
  for (int units = 1; units <= 8; ++units) {
    ResourceLimits limits;
    limits.fu[OpKind::Mul] = units;
    limits.fu[OpKind::Add] = units;
    const OpSchedule s = list_schedule(ar.graph, lat, limits);
    EXPECT_LE(s.length, prev) << units << " units lengthened the schedule";
    prev = s.length;
  }
}

TEST(ListSchedule, MultiCycleLatencyBlocksUnit) {
  // One multiplier with 10-cycle muls: two independent muls serialize.
  dfg::Graph g("mm");
  const auto a = g.add_input("a", 16);
  const auto b = g.add_input("b", 16);
  const auto m1 = g.add_op(OpKind::Mul, 16, {a, b});
  const auto m2 = g.add_op(OpKind::Mul, 16, {a, b});
  g.add_output("y1", m1);
  g.add_output("y2", m2);
  std::vector<Cycles> lat(g.node_count(), 0);
  lat[static_cast<std::size_t>(m1)] = 10;
  lat[static_cast<std::size_t>(m2)] = 10;
  ResourceLimits limits;
  limits.fu[OpKind::Mul] = 1;
  const OpSchedule s = list_schedule(g, lat, limits);
  EXPECT_EQ(s.length, 20);
}

TEST(ListSchedule, MemoryPortContention) {
  dfg::Graph g("mem");
  const auto r1 = g.add_mem_read(0, 16, dfg::kNoNode, "r1");
  const auto r2 = g.add_mem_read(0, 16, dfg::kNoNode, "r2");
  const auto s1 = g.add_op(OpKind::Add, 16, {r1, r2});
  g.add_output("y", s1);
  std::vector<Cycles> lat(g.node_count(), 0);
  lat[static_cast<std::size_t>(r1)] = 1;
  lat[static_cast<std::size_t>(r2)] = 1;
  lat[static_cast<std::size_t>(s1)] = 1;
  ResourceLimits one_port;
  one_port.memory_ports[0] = 1;
  one_port.fu[OpKind::Add] = 1;
  EXPECT_EQ(list_schedule(g, lat, one_port).length, 3);
  ResourceLimits two_ports;
  two_ports.memory_ports[0] = 2;
  two_ports.fu[OpKind::Add] = 1;
  EXPECT_EQ(list_schedule(g, lat, two_ports).length, 2);
}

TEST(MinInitiationInterval, ResourceBound) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const auto lat = dfg::unit_latencies(ar.graph);
  ResourceLimits limits;
  limits.fu[OpKind::Mul] = 4;
  limits.fu[OpKind::Add] = 3;
  // 16 muls / 4 = 4; 12 adds / 3 = 4.
  EXPECT_EQ(min_initiation_interval(ar.graph, lat, limits), 4);
  limits.fu[OpKind::Mul] = 3;
  EXPECT_EQ(min_initiation_interval(ar.graph, lat, limits), 6);
}

TEST(PipelineSchedule, AchievesMinIiOnArFilter) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const auto lat = dfg::unit_latencies(ar.graph);
  ResourceLimits limits;
  limits.fu[OpKind::Mul] = 4;
  limits.fu[OpKind::Add] = 3;
  const Cycles ii = min_initiation_interval(ar.graph, lat, limits);
  const OpSchedule s = pipeline_schedule(ar.graph, lat, limits, ii);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.initiation_interval, ii);
  expect_valid(ar.graph, lat, s, limits);
}

TEST(PipelineSchedule, InfeasibleBelowResourceBound) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const auto lat = dfg::unit_latencies(ar.graph);
  ResourceLimits limits;
  limits.fu[OpKind::Mul] = 2;
  limits.fu[OpKind::Add] = 2;
  // min II = 8; ask for 4.
  const OpSchedule s = pipeline_schedule(ar.graph, lat, limits, 4);
  EXPECT_FALSE(s.feasible);
}

TEST(PipelineSchedule, RejectsNonpositiveIi) {
  const dfg::BenchmarkGraph fir = dfg::fir16();
  const auto lat = dfg::unit_latencies(fir.graph);
  EXPECT_THROW(pipeline_schedule(fir.graph, lat, ResourceLimits{}, 0), Error);
}

TEST(ListSchedule, RejectsWrongLatencySize) {
  const dfg::BenchmarkGraph fir = dfg::fir16();
  std::vector<Cycles> lat(3, 1);
  EXPECT_THROW(list_schedule(fir.graph, lat, ResourceLimits{}), Error);
}

// ---- the independent schedule checker ----

/// in -> m1, m2 (muls) -> a (add) -> out, and a memory read feeding a.
struct CheckFixture {
  dfg::Graph g{"check"};
  dfg::NodeId m1, m2, r, a;
  std::vector<Cycles> lat;
  CheckFixture() {
    const auto in = g.add_input("in", 16);
    m1 = g.add_op(OpKind::Mul, 16, {in, in});
    m2 = g.add_op(OpKind::Mul, 16, {in, in});
    r = g.add_mem_read(0, 16, dfg::kNoNode, "r");
    a = g.add_op(OpKind::Add, 16, {m1, m2});
    const auto a2 = g.add_op(OpKind::Add, 16, {a, r});
    g.add_output("y", a2);
    lat.assign(g.node_count(), 0);
    for (dfg::NodeId id : {m1, m2}) lat[static_cast<std::size_t>(id)] = 2;
    for (dfg::NodeId id : {r, a, a2}) lat[static_cast<std::size_t>(id)] = 1;
  }
  Cycles& start(dfg::NodeId id, OpSchedule& s) const {
    return s.start[static_cast<std::size_t>(id)];
  }
};

TEST(ScheduleCheck, AcceptsSchedulerOutput) {
  const CheckFixture f;
  ResourceLimits limits;
  limits.fu[OpKind::Mul] = 1;
  limits.fu[OpKind::Add] = 1;
  limits.memory_ports[0] = 1;
  const OpSchedule list = list_schedule(f.g, f.lat, limits);
  EXPECT_TRUE(check_schedule(f.g, f.lat, list, limits).ok);
  const OpSchedule pipe = pipeline_schedule(f.g, f.lat, limits, 4);
  ASSERT_TRUE(pipe.feasible);
  EXPECT_TRUE(check_schedule(f.g, f.lat, pipe, limits).ok);
}

TEST(ScheduleCheck, RejectsEachBrokenRule) {
  const CheckFixture f;
  ResourceLimits limits;
  limits.fu[OpKind::Mul] = 1;
  limits.fu[OpKind::Add] = 1;
  limits.memory_ports[0] = 1;
  const OpSchedule good = list_schedule(f.g, f.lat, limits);
  ASSERT_TRUE(check_schedule(f.g, f.lat, good, limits).ok);

  // The add starts before its second multiply finishes.
  OpSchedule early = good;
  f.start(f.a, early) = std::max(f.start(f.m1, early), f.start(f.m2, early));
  const ScheduleCheck precedence = check_schedule(f.g, f.lat, early, limits);
  EXPECT_FALSE(precedence.ok);
  EXPECT_NE(precedence.detail.find("edge"), std::string::npos);

  // Both multiplies on the one multiplier at once.
  ResourceLimits two_muls = limits;
  two_muls.fu[OpKind::Mul] = 2;
  const OpSchedule parallel = list_schedule(f.g, f.lat, two_muls);
  ASSERT_EQ(parallel.start[static_cast<std::size_t>(f.m1)],
            parallel.start[static_cast<std::size_t>(f.m2)]);
  EXPECT_TRUE(check_schedule(f.g, f.lat, parallel, two_muls).ok);
  const ScheduleCheck cycle = check_schedule(f.g, f.lat, parallel, limits);
  EXPECT_FALSE(cycle.ok);
  EXPECT_NE(cycle.detail.find("mul oversubscribed at cycle"),
            std::string::npos)
      << cycle.detail;

  // Memory ports count like units.
  ResourceLimits no_port = limits;
  no_port.memory_ports[0] = 0;
  const ScheduleCheck port = check_schedule(f.g, f.lat, good, no_port);
  EXPECT_FALSE(port.ok);
  EXPECT_NE(port.detail.find("memory block 0"), std::string::npos)
      << port.detail;

  // Modulo reuse: the multiplies do not overlap in time, but fold onto
  // the same phases at II 2.
  OpSchedule folded = good;
  folded.initiation_interval = 2;
  const ScheduleCheck modulo = check_schedule(f.g, f.lat, folded, limits);
  EXPECT_FALSE(modulo.ok);
  EXPECT_NE(modulo.detail.find("modulo II 2"), std::string::npos)
      << modulo.detail;

  OpSchedule short_length = good;
  short_length.length -= 1;
  EXPECT_FALSE(check_schedule(f.g, f.lat, short_length, limits).ok);

  OpSchedule infeasible = good;
  infeasible.feasible = false;
  EXPECT_FALSE(check_schedule(f.g, f.lat, infeasible, limits).ok);
}

/// One plan serves every allocation and II, with the same results as a
/// fresh plan per call.
TEST(SchedulePlan, ReuseMatchesFreshPlans) {
  Rng rng(31);
  dfg::RandomDagSpec spec;
  spec.operations = 60;
  spec.depth = 6;
  spec.memory_blocks = 2;
  spec.mem_reads = 4;
  spec.mem_writes = 2;
  const dfg::BenchmarkGraph bg = dfg::random_dag(rng, spec);
  std::vector<Cycles> lat = dfg::unit_latencies(bg.graph);
  for (std::size_t i = 0; i < lat.size(); ++i) {
    if (lat[i] > 0) lat[i] = rng.uniform(1, 3);
  }
  const SchedulePlan plan(bg.graph, lat);
  for (int units = 1; units <= 4; ++units) {
    ResourceLimits limits;
    limits.fu[OpKind::Mul] = units;
    limits.fu[OpKind::Add] = 5 - units;
    limits.memory_ports[0] = 1;
    const OpSchedule list = list_schedule(plan, limits);
    const OpSchedule fresh = list_schedule(bg.graph, lat, limits);
    EXPECT_EQ(list.start, fresh.start);
    EXPECT_EQ(list.length, fresh.length);
    expect_valid(bg.graph, lat, list, limits);
    const Cycles min_ii = min_initiation_interval(plan, limits);
    EXPECT_EQ(min_ii, min_initiation_interval(bg.graph, lat, limits));
    for (Cycles ii = min_ii; ii <= min_ii + 3; ++ii) {
      const OpSchedule pipe = pipeline_schedule(plan, limits, ii);
      const OpSchedule pipe_fresh =
          pipeline_schedule(bg.graph, lat, limits, ii);
      EXPECT_EQ(pipe.feasible, pipe_fresh.feasible);
      EXPECT_EQ(pipe.start, pipe_fresh.start);
      if (pipe.feasible) expect_valid(bg.graph, lat, pipe, limits);
    }
  }
}

// ---- property sweep over random graphs ----

struct SchedCase {
  int ops;
  int depth;
  int mul_units;
  int add_units;
  std::uint64_t seed;
};

class ScheduleProperty : public ::testing::TestWithParam<SchedCase> {};

TEST_P(ScheduleProperty, ListScheduleValid) {
  const SchedCase& p = GetParam();
  Rng rng(p.seed);
  dfg::RandomDagSpec spec;
  spec.operations = p.ops;
  spec.depth = p.depth;
  const dfg::BenchmarkGraph bg = dfg::random_dag(rng, spec);
  const auto lat = dfg::unit_latencies(bg.graph);
  ResourceLimits limits;
  limits.fu[OpKind::Mul] = p.mul_units;
  limits.fu[OpKind::Add] = p.add_units;
  const OpSchedule s = list_schedule(bg.graph, lat, limits);
  ASSERT_TRUE(s.feasible);
  EXPECT_GE(s.length, static_cast<Cycles>(p.depth));
  expect_valid(bg.graph, lat, s, limits);
}

TEST_P(ScheduleProperty, PipelineScheduleValidAtFeasibleIi) {
  const SchedCase& p = GetParam();
  Rng rng(p.seed);
  dfg::RandomDagSpec spec;
  spec.operations = p.ops;
  spec.depth = p.depth;
  const dfg::BenchmarkGraph bg = dfg::random_dag(rng, spec);
  const auto lat = dfg::unit_latencies(bg.graph);
  ResourceLimits limits;
  limits.fu[OpKind::Mul] = p.mul_units;
  limits.fu[OpKind::Add] = p.add_units;
  const Cycles min_ii = min_initiation_interval(bg.graph, lat, limits);
  for (Cycles ii = min_ii; ii <= min_ii + 2; ++ii) {
    const OpSchedule s = pipeline_schedule(bg.graph, lat, limits, ii);
    if (!s.feasible) continue;  // greedy modulo scheduling may miss min II
    expect_valid(bg.graph, lat, s, limits);
  }
  // Far above the bound the schedule must exist.
  const OpSchedule relaxed = pipeline_schedule(
      bg.graph, lat, limits, min_ii + static_cast<Cycles>(p.ops));
  EXPECT_TRUE(relaxed.feasible);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScheduleProperty,
    ::testing::Values(SchedCase{8, 2, 1, 1, 11}, SchedCase{16, 4, 2, 2, 12},
                      SchedCase{24, 6, 2, 3, 13}, SchedCase{32, 4, 4, 2, 14},
                      SchedCase{48, 8, 3, 3, 15}, SchedCase{64, 8, 4, 4, 16},
                      SchedCase{20, 10, 1, 2, 17},
                      SchedCase{40, 5, 8, 8, 18}));

}  // namespace
}  // namespace chop::sched
