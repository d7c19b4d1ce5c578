// Tests for BAD's component models: operation latency binding, datapath
// (register/mux) estimation, and the PLA controller model.
#include <gtest/gtest.h>

#include "bad/controller_model.hpp"
#include "bad/datapath_model.hpp"
#include "bad/latency_model.hpp"
#include "dfg/analysis.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/subgraph.hpp"
#include "library/experiment_library.hpp"
#include "library/module_set.hpp"
#include "schedule/op_schedule.hpp"

namespace chop::bad {
namespace {

using dfg::OpKind;

lib::ModuleSet set_for(const lib::ComponentLibrary& lib, int adder, int mul) {
  lib::ModuleSet set;
  set.choose(OpKind::Add, lib.modules_for(OpKind::Add)[static_cast<std::size_t>(adder)]);
  set.choose(OpKind::Mul, lib.modules_for(OpKind::Mul)[static_cast<std::size_t>(mul)]);
  return set;
}

TEST(LatencyModel, SingleCycleEligibility) {
  const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  ClockSpec clocks{300.0, 10, 1};  // datapath period 3000 ns

  // mul2 (2950 ns) fits a 3000 ns cycle with small overhead; mul3
  // (7370 ns) never does.
  const auto ok =
      operation_latencies(ar.graph, set_for(lib, 1, 1),
                          ClockingStyle::SingleCycle, clocks, 20.0);
  ASSERT_TRUE(ok.has_value());
  for (std::size_t i = 0; i < ar.graph.node_count(); ++i) {
    const dfg::Node& n = ar.graph.node(static_cast<dfg::NodeId>(i));
    EXPECT_EQ((*ok)[i], dfg::needs_functional_unit(n.kind) ? 1 : 0);
  }
  const auto bad =
      operation_latencies(ar.graph, set_for(lib, 1, 2),
                          ClockingStyle::SingleCycle, clocks, 20.0);
  EXPECT_FALSE(bad.has_value());
}

TEST(LatencyModel, SingleCycleOverheadCanDisqualify) {
  const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  ClockSpec clocks{300.0, 10, 1};
  // mul2 = 2950; overhead 60 pushes past the 3000 ns period.
  const auto bad =
      operation_latencies(ar.graph, set_for(lib, 1, 1),
                          ClockingStyle::SingleCycle, clocks, 60.0);
  EXPECT_FALSE(bad.has_value());
}

TEST(LatencyModel, MultiCycleCeil) {
  const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  ClockSpec clocks{300.0, 1, 1};
  const auto lat =
      operation_latencies(ar.graph, set_for(lib, 1, 1),
                          ClockingStyle::MultiCycle, clocks, 17.0);
  ASSERT_TRUE(lat.has_value());
  for (std::size_t i = 0; i < ar.graph.node_count(); ++i) {
    const dfg::Node& n = ar.graph.node(static_cast<dfg::NodeId>(i));
    if (n.kind == OpKind::Mul) {
      EXPECT_EQ((*lat)[i], 10);  // ceil((2950+17)/300)
    } else if (n.kind == OpKind::Add) {
      EXPECT_EQ((*lat)[i], 1);  // ceil((53+17)/300)
    }
  }
}

TEST(LatencyModel, MemoryAccessTime) {
  dfg::Graph g("m");
  const auto r = g.add_mem_read(0, 16, dfg::kNoNode, "rd");
  const auto a = g.add_op(OpKind::Add, 16, {r, r});
  g.add_output("y", a);
  const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  lib::ModuleSet set;
  set.choose(OpKind::Add, lib.modules_for(OpKind::Add)[0]);
  ClockSpec clocks{300.0, 1, 1};
  // 650 ns access -> 3 cycles.
  const auto lat = operation_latencies(g, set, ClockingStyle::MultiCycle,
                                       clocks, 10.0, {650.0});
  ASSERT_TRUE(lat.has_value());
  EXPECT_EQ((*lat)[static_cast<std::size_t>(r)], 3);
}

TEST(DatapathModel, MuxCountMatchesSharingFormula) {
  // The paper's own §3.1 numbers validate the formula
  // (ops - units) * 2 * width + register bits: partition 1 had 8 muls on
  // 4 multipliers, 4 adds on 3 adders, 104 register bits -> 349 muxes.
  const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const auto cuts = dfg::ar_two_way_cut(ar);
  const dfg::Subgraph p1 = dfg::induced_subgraph(ar.graph, cuts[0]);
  const auto lat = dfg::unit_latencies(p1.graph);
  std::map<OpKind, int> alloc{{OpKind::Mul, 4}, {OpKind::Add, 3}};
  sched::ResourceLimits limits;
  limits.fu = alloc;
  const sched::OpSchedule s = sched::list_schedule(p1.graph, lat, limits);
  const DatapathEstimate dp =
      estimate_datapath(p1.graph, datapath_profile(p1.graph), lat, s, alloc,
                        lib);
  const double expected_sharing = (8 - 4) * 2 * 16 + (6 - 3) * 2 * 16;
  EXPECT_NEAR(dp.mux_count.likely(),
              expected_sharing + static_cast<double>(dp.register_bits), 1.0);
  EXPECT_GT(dp.register_bits, 0);
  EXPECT_GT(dp.steering_delay, 0.0);
}

TEST(DatapathModel, NoSharingNoSharingMuxes) {
  // As many units as ops: only register-write muxes remain.
  dfg::Graph g("p");
  const auto a = g.add_input("a", 16);
  const auto m1 = g.add_op(OpKind::Mul, 16, {a, a});
  const auto m2 = g.add_op(OpKind::Mul, 16, {m1, a});
  g.add_output("y", m2);
  const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  const auto lat = dfg::unit_latencies(g);
  std::map<OpKind, int> alloc{{OpKind::Mul, 2}};
  sched::ResourceLimits limits;
  limits.fu = alloc;
  const sched::OpSchedule s = sched::list_schedule(g, lat, limits);
  const DatapathEstimate dp =
      estimate_datapath(g, datapath_profile(g), lat, s, alloc, lib);
  EXPECT_DOUBLE_EQ(dp.mux_count.likely(),
                   static_cast<double>(dp.register_bits));
}

TEST(DatapathModel, MoreSharingMoreSteeringLevels) {
  const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const auto lat = dfg::unit_latencies(ar.graph);
  auto levels_for = [&](int units) {
    std::map<OpKind, int> alloc{{OpKind::Mul, units}, {OpKind::Add, units}};
    sched::ResourceLimits limits;
    limits.fu = alloc;
    const sched::OpSchedule s = sched::list_schedule(ar.graph, lat, limits);
    return estimate_datapath(ar.graph, datapath_profile(ar.graph), lat, s,
                             alloc, lib)
        .mux_levels;
  };
  EXPECT_GE(levels_for(1), levels_for(8));
}

TEST(ControllerModel, PlaAreaScalesWithPersonality) {
  const lib::TechnologyParams tech;
  const PlaEstimate small = size_pla(4, 8, 10, tech);
  const PlaEstimate big = size_pla(8, 16, 40, tech);
  EXPECT_GT(big.area.likely(), small.area.likely());
  EXPECT_GT(big.delay, small.delay);
  EXPECT_THROW(size_pla(0, 8, 10, tech), Error);
}

TEST(ControllerModel, MoreStatesBiggerController) {
  const lib::TechnologyParams tech;
  const PlaEstimate c8 = estimate_controller(8, 4, 8, 100, tech);
  const PlaEstimate c32 = estimate_controller(32, 4, 8, 100, tech);
  EXPECT_GT(c32.area.likely(), c8.area.likely());
  EXPECT_GT(c32.product_terms, c8.product_terms);
  EXPECT_THROW(estimate_controller(0, 1, 1, 1, tech), Error);
}

TEST(ControllerModel, TransferControllerTracksTransferTime) {
  const lib::TechnologyParams tech;
  const PlaEstimate quick = estimate_transfer_controller(0, 1, 16, tech);
  const PlaEstimate slow = estimate_transfer_controller(10, 8, 64, tech);
  EXPECT_GT(slow.area.likely(), quick.area.likely());
  EXPECT_THROW(estimate_transfer_controller(0, 0, 16, tech), Error);
}

TEST(ControllerModel, AreaTripletOrdered) {
  const lib::TechnologyParams tech;
  const PlaEstimate pla = size_pla(6, 12, 20, tech);
  EXPECT_LT(pla.area.lo(), pla.area.likely());
  EXPECT_LT(pla.area.likely(), pla.area.hi());
}

}  // namespace
}  // namespace chop::bad
