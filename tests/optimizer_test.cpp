// Tests for the automated designer-loop extension: memory placement
// optimization.
#include <gtest/gtest.h>

#include "chip/mosis_packages.hpp"
#include "core/memory_optimizer.hpp"
#include "dfg/benchmarks.hpp"
#include "library/experiment_library.hpp"

namespace chop::core {
namespace {

const lib::ComponentLibrary& library() {
  static const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  return lib;
}

ChopConfig exp1_config() {
  ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 30000.0};
  return config;
}

// ---- memory placement optimization ----

ChopSession memory_session() {
  static const dfg::BenchmarkGraph arm = dfg::ar_lattice_filter_with_memory();
  chip::MemorySubsystem memory;
  memory.blocks.push_back({"coeff", 16, 64, 1, 300.0, 4000.0, 3});
  memory.blocks.push_back({"spill", 16, 256, 1, 300.0, 6000.0, 3});
  // Deliberately poor start: both blocks off-chip.
  memory.chip_of_block = {chip::kOffTheShelfChip, chip::kOffTheShelfChip};
  std::vector<chip::ChipInstance> chips{
      {"c0", chip::mosis_package_84()}, {"c1", chip::mosis_package_84()}};
  Partitioning pt(arm.graph, std::move(chips), memory);
  const auto cuts = dfg::ar_two_way_cut(dfg::ar_lattice_filter());
  // The memory variant appends its ops in an extra layer; rebuild cuts
  // from the variant's own layers: sections 1-2 / sections 3-4 + mem ops.
  Partitioning fresh(arm.graph,
                     {{"c0", chip::mosis_package_84()},
                      {"c1", chip::mosis_package_84()}},
                     pt.memory());
  (void)cuts;
  static const dfg::BenchmarkGraph& bg = arm;
  fresh.add_partition("P1", bg.layer_span(0, 3), 0);
  fresh.add_partition("P2", bg.layer_span(4, bg.layers.size() - 1), 1);
  ChopConfig config = exp1_config();
  config.constraints = {30000.0, 60000.0};
  return ChopSession(library(), std::move(fresh), config);
}

TEST(MemoryOptimizer, EvaluatesAllPlacements) {
  ChopSession session = memory_session();
  MemoryPlacementOptions options;
  const MemoryPlacementResult r = optimize_memory_placement(session, options);
  // 2 blocks x (2 chips + off-shelf) = 9 placements.
  EXPECT_EQ(r.evaluated, 9u);
  EXPECT_FALSE(r.truncated);
  ASSERT_EQ(r.placement.size(), 2u);
  // The winner is installed in the session.
  EXPECT_EQ(session.partitioning().memory().chip_of_block, r.placement);
}

TEST(MemoryOptimizer, NeverWorseThanStart) {
  ChopSession session = memory_session();
  session.predict_partitions();
  const SearchResult start = session.search({});
  const MemoryPlacementResult r = optimize_memory_placement(session);
  if (!start.designs.empty()) {
    ASSERT_FALSE(r.search.designs.empty());
    EXPECT_LE(r.search.designs.front().integration.ii_main,
              start.designs.front().integration.ii_main);
  }
}

TEST(MemoryOptimizer, RespectsOffTheShelfToggle) {
  ChopSession session = memory_session();
  MemoryPlacementOptions options;
  options.allow_off_the_shelf = false;
  const MemoryPlacementResult r = optimize_memory_placement(session, options);
  EXPECT_EQ(r.evaluated, 4u);  // 2 blocks x 2 chips
  for (int placement : r.placement) {
    EXPECT_NE(placement, chip::kOffTheShelfChip);
  }
}

TEST(MemoryOptimizer, CapTruncates) {
  ChopSession session = memory_session();
  MemoryPlacementOptions options;
  options.max_placements = 3;
  const MemoryPlacementResult r = optimize_memory_placement(session, options);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.evaluated, 3u);
}

TEST(MemoryOptimizer, NoBlocksIsANoOp) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Partitioning pt(ar.graph, {{"c0", chip::mosis_package_84()}});
  pt.add_partition("P1", ar.all_operations(), 0);
  ChopSession session(library(), std::move(pt), exp1_config());
  const MemoryPlacementResult r = optimize_memory_placement(session);
  EXPECT_EQ(r.evaluated, 1u);
  EXPECT_TRUE(r.placement.empty());
}

}  // namespace
}  // namespace chop::core
