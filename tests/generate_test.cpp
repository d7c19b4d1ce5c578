// Tests for the multilevel partition-generation engine (src/gen): the
// coarsener's structural invariants, the generate portfolio's behavior,
// and — load-bearing for the whole subsystem — the determinism contract:
// byte-identical results at any thread count, including under adversarial
// scheduling. (Suite names match the CI TSan regex `Generate|Coarsen`.)
#include "gen/generate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>

#include "baseline/partition_builders.hpp"
#include "chip/mosis_packages.hpp"
#include "core/eval/candidate_evaluator.hpp"
#include "core/eval/thread_pool.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/generator.hpp"
#include "gen/coarsen.hpp"
#include "library/experiment_library.hpp"
#include "obs/metrics.hpp"

namespace chop::gen {
namespace {

dfg::BenchmarkGraph test_workload(std::uint64_t seed, int operations = 24,
                                  int depth = 6) {
  Rng rng(seed);
  dfg::RandomDagSpec spec;
  spec.operations = operations;
  spec.depth = depth;
  spec.extra_inputs = 6;
  return dfg::random_dag(rng, spec);
}

core::ChopConfig test_config() {
  core::ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {60000.0, 120000.0};
  return config;
}

std::vector<chip::ChipInstance> test_chips(int k) {
  std::vector<chip::ChipInstance> chips;
  for (int c = 0; c < k; ++c) {
    chips.push_back({"c" + std::to_string(c), chip::mosis_package_84()});
  }
  return chips;
}

/// Full-content digest of a result; byte-equality across runs/threads is
/// the determinism contract.
std::string digest(const GenerateResult& r) {
  std::ostringstream os;
  os << r.starts_run << "|" << r.starts_killed << "|" << r.evaluations << "|"
     << r.gated << "|" << r.levels << "|" << r.coarsest_vertices << "|"
     << r.cancelled << "\n";
  for (const FrontierPoint& p : r.frontier) {
    os << p.ii << "," << p.delay << "," << p.area << "," << p.start << ":";
    for (const auto& part : p.members) {
      for (const dfg::NodeId id : part) os << id << " ";
      os << ";";
    }
    for (const std::size_t c : p.choice) os << c << " ";
    os << "\n";
  }
  for (const auto& part : r.members) {
    for (const dfg::NodeId id : part) os << id << " ";
    os << ";";
  }
  os << "\n";
  for (const std::string& line : r.log) os << line << "\n";
  return std::move(os).str();
}

// --- Coarsener invariants (satellite: coarsener tests) -----------------

TEST(Coarsen, MatchingIsValidPartitionOfVertices) {
  const dfg::BenchmarkGraph bg = test_workload(11, 32, 6);
  const CoarseGraph g =
      build_operation_graph(bg.graph, bg.all_operations());
  Rng rng(3);
  const std::vector<int> match = heavy_edge_matching(g, rng);
  ASSERT_EQ(match.size(), g.vertex_count());
  // Involution covering every vertex: groups of size one or two.
  for (std::size_t v = 0; v < match.size(); ++v) {
    const auto m = static_cast<std::size_t>(match[v]);
    ASSERT_LT(m, match.size());
    EXPECT_EQ(static_cast<std::size_t>(match[m]), v);
  }
  // Matched pairs must actually be neighbors.
  for (std::size_t v = 0; v < match.size(); ++v) {
    const auto m = static_cast<std::size_t>(match[v]);
    if (m == v) continue;
    bool adjacent = false;
    for (const auto& [u, w] : g.adjacency[v]) {
      (void)w;
      if (static_cast<std::size_t>(u) == m) adjacent = true;
    }
    EXPECT_TRUE(adjacent) << "matched non-neighbors " << v << "," << m;
  }
}

TEST(Coarsen, TransferWeightConservedLevelToLevel) {
  const dfg::BenchmarkGraph bg = test_workload(12, 48, 8);
  CoarsenOptions options;
  options.min_vertices = 4;
  const Hierarchy h = coarsen(bg.graph, bg.all_operations(), options);
  ASSERT_GE(h.level_count(), 1u);
  const Bits base_total =
      h.base.total_edge_bits() + h.base.total_internal_bits();
  int weight_total = std::accumulate(h.base.weight.begin(),
                                     h.base.weight.end(), 0);
  for (std::size_t l = 1; l <= h.level_count(); ++l) {
    const CoarseGraph& g = h.at(l);
    // Every bit of transfer traffic is either still an edge or folded
    // into some vertex's internal traffic — contraction never loses any.
    EXPECT_EQ(g.total_edge_bits() + g.total_internal_bits(), base_total)
        << "level " << l;
    EXPECT_EQ(std::accumulate(g.weight.begin(), g.weight.end(), 0),
              weight_total)
        << "level " << l;
    EXPECT_LT(g.vertex_count(), h.at(l - 1).vertex_count());
  }
}

TEST(Coarsen, ProjectionRoundTripsCutExactly) {
  const dfg::BenchmarkGraph bg = test_workload(13, 40, 5);
  CoarsenOptions options;
  options.min_vertices = 6;
  const Hierarchy h = coarsen(bg.graph, bg.all_operations(), options);
  ASSERT_GE(h.level_count(), 1u);
  const std::size_t top = h.level_count();
  // An arbitrary coarse 3-way cut...
  std::vector<int> coarse(h.coarsest().vertex_count());
  for (std::size_t v = 0; v < coarse.size(); ++v) {
    coarse[v] = static_cast<int>(v % 3);
  }
  // ...projects down with identical cut traffic at every level: cutting
  // between coarse vertices and cutting between their fine members is the
  // same set of spec values.
  const Bits coarse_cut = h.coarsest().cut_bits(coarse);
  std::vector<int> assignment = coarse;
  for (std::size_t l = top; l >= 1; --l) {
    assignment = h.project_one(l, assignment);
    EXPECT_EQ(h.at(l - 1).cut_bits(assignment), coarse_cut) << "level " << l;
  }
  EXPECT_EQ(assignment, h.project_to_base(top, coarse));
  // members_of inverts the assignment without losing an operation.
  const auto members = h.members_of(assignment, 3);
  std::set<dfg::NodeId> seen;
  for (const auto& part : members) {
    for (const dfg::NodeId id : part) EXPECT_TRUE(seen.insert(id).second);
  }
  EXPECT_EQ(seen.size(), h.ops.size());
}

TEST(Coarsen, DeterministicForSeed) {
  const dfg::BenchmarkGraph bg = test_workload(14, 32, 6);
  CoarsenOptions options;
  options.seed = 9;
  const Hierarchy a = coarsen(bg.graph, bg.all_operations(), options);
  const Hierarchy b = coarsen(bg.graph, bg.all_operations(), options);
  ASSERT_EQ(a.level_count(), b.level_count());
  for (std::size_t l = 0; l < a.level_count(); ++l) {
    EXPECT_EQ(a.levels[l].parent, b.levels[l].parent);
    EXPECT_EQ(a.levels[l].graph.adjacency, b.levels[l].graph.adjacency);
    EXPECT_EQ(a.levels[l].graph.weight, b.levels[l].graph.weight);
  }
}

// --- Portfolio behavior -------------------------------------------------

TEST(Generate, FindsFeasibleFrontierOnDiffeq) {
  // diffeq uses Sub/Compare ops, which only the extended library covers.
  const dfg::BenchmarkGraph bg = dfg::diffeq();
  static const lib::ComponentLibrary library =
      lib::dac91_extended_library();
  GenerateOptions options;
  options.num_starts = 3;
  const GenerateResult r = generate_partitions(
      bg.graph, library, test_chips(2), {}, test_config(), options);
  EXPECT_TRUE(r.feasible());
  EXPECT_EQ(r.starts_run, 3u);
  EXPECT_GT(r.evaluations, 0u);
  ASSERT_FALSE(r.members.empty());
  // The result's search corresponds to the best cut and found designs.
  EXPECT_FALSE(r.search.designs.empty());
  // Frontier is sorted by (ii, delay, area) and non-dominated.
  for (std::size_t i = 1; i < r.frontier.size(); ++i) {
    const FrontierPoint& a = r.frontier[i - 1];
    const FrontierPoint& b = r.frontier[i];
    EXPECT_LE(a.ii, b.ii);
    const bool dominates = a.ii <= b.ii && a.delay <= b.delay &&
                           a.area <= b.area;
    EXPECT_FALSE(dominates) << "frontier point " << i << " dominated";
  }
}

TEST(Generate, DominatesOrEqualsLevelOrderBaseline) {
  const dfg::BenchmarkGraph bg = test_workload(21, 28, 7);
  static const lib::ComponentLibrary library =
      lib::dac91_experiment_library();
  const GenerateResult r = generate_partitions(
      bg.graph, library, test_chips(2), {}, test_config(), {});
  ASSERT_TRUE(r.feasible());
  // Evaluate the plain level-order cut directly through the same pipeline.
  const auto baseline_members = baseline::level_order_partition(
      bg.graph, bg.graph.partitionable_operations(), 2);
  core::Partitioning pt(bg.graph, test_chips(2));
  for (std::size_t p = 0; p < baseline_members.size(); ++p) {
    pt.add_partition("P" + std::to_string(p + 1), baseline_members[p],
                     static_cast<int>(p));
  }
  core::ChopSession session(library, std::move(pt), test_config());
  session.predict_partitions();
  core::SearchOptions search;
  search.heuristic = core::Heuristic::Iterative;
  const core::SearchResult baseline = session.search(search);
  // Start 0 evaluates exactly this cut first, so every baseline design is
  // dominated-or-equaled by the returned frontier.
  for (const core::GlobalDesign& d : baseline.designs) {
    bool covered = false;
    for (const FrontierPoint& p : r.frontier) {
      if (p.ii <= d.integration.ii_main &&
          p.delay <= d.integration.system_delay_main) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "baseline design II=" << d.integration.ii_main
                         << " delay=" << d.integration.system_delay_main
                         << " not covered by the generated frontier";
  }
}

TEST(Generate, BudgetCapsEvaluationsPerStart) {
  const dfg::BenchmarkGraph bg = test_workload(22, 32, 6);
  static const lib::ComponentLibrary library =
      lib::dac91_experiment_library();
  GenerateOptions options;
  options.num_starts = 2;
  options.budget = 3;
  const GenerateResult r = generate_partitions(
      bg.graph, library, test_chips(2), {}, test_config(), options);
  // Per-start budget of 3 plus the final authoritative re-evaluation.
  EXPECT_LE(r.evaluations, 2u * 3u + 1u);
}

TEST(Generate, CancelReturnsPartialResult) {
  const dfg::BenchmarkGraph bg = test_workload(23, 32, 6);
  static const lib::ComponentLibrary library =
      lib::dac91_experiment_library();
  std::atomic<bool> cancel{true};  // pre-cancelled: stops at first check
  GenerateOptions options;
  options.num_starts = 4;
  options.cancel = &cancel;
  const GenerateResult r = generate_partitions(
      bg.graph, library, test_chips(2), {}, test_config(), options);
  EXPECT_TRUE(r.cancelled);
  ASSERT_FALSE(r.members.empty());  // still a valid (partial) answer
}

TEST(Generate, SharedEvaluatorGetsCrossStartHits) {
  const dfg::BenchmarkGraph bg = test_workload(24, 24, 6);
  static const lib::ComponentLibrary library =
      lib::dac91_experiment_library();
  core::CandidateEvaluator evaluator;
  GenerateOptions options;
  options.num_starts = 3;
  options.search.evaluator = &evaluator;
  const GenerateResult r = generate_partitions(
      bg.graph, library, test_chips(2), {}, test_config(), options);
  ASSERT_TRUE(r.feasible());
  // The final re-evaluation of the winning cut replays integrations the
  // winning start just computed, so shared-cache hits are guaranteed.
  EXPECT_GT(evaluator.stats().hits, 0u);
}

// --- Automatic partitioning of the paper's workloads --------------------
// The generator is the one automatic partitioner; these cases pin its
// quality on the AR filter (experiment 1 constraints), where the paper's
// manual cuts reach II=30.

const lib::ComponentLibrary& experiment_library() {
  static const lib::ComponentLibrary library =
      lib::dac91_experiment_library();
  return library;
}

core::ChopConfig exp1_config() {
  core::ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 30000.0};
  return config;
}

/// Defaults plus the wider per-level candidate list that reaches the best
/// cuts on these small graphs.
GenerateOptions wide_options() {
  GenerateOptions options;
  options.max_candidates_per_level = 12;
  return options;
}

std::size_t count_lines(const GenerateResult& r, const std::string& text) {
  std::size_t n = 0;
  for (const std::string& line : r.log) {
    if (line.find(text) != std::string::npos) ++n;
  }
  return n;
}

/// Every member list covers each operation at most once; returns the
/// number of operations covered.
std::size_t covered_disjointly(const GenerateResult& r) {
  std::set<dfg::NodeId> seen;
  for (const auto& part : r.members) {
    for (const dfg::NodeId id : part) EXPECT_TRUE(seen.insert(id).second);
  }
  return seen.size();
}

TEST(Generate, FindsFeasibleTwoChipCut) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const GenerateResult r =
      generate_partitions(ar.graph, experiment_library(), test_chips(2), {},
                          exp1_config(), wide_options());
  ASSERT_TRUE(r.feasible());
  ASSERT_EQ(r.members.size(), 2u);
  EXPECT_EQ(covered_disjointly(r), 28u);
  EXPECT_GE(r.evaluations, 1u);
  EXPECT_FALSE(r.log.empty());
  // Matches (or beats) the paper's manual 2-way result of II=30.
  ASSERT_FALSE(r.search.designs.empty());
  EXPECT_LE(r.search.designs.front().integration.ii_main, 30);
}

TEST(Generate, ThreeChipCutMatchesManualII) {
  // At the default 6 candidates per level this case stops at II=50.
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const GenerateResult r =
      generate_partitions(ar.graph, experiment_library(), test_chips(3), {},
                          exp1_config(), wide_options());
  ASSERT_TRUE(r.feasible());
  ASSERT_EQ(r.members.size(), 3u);
  EXPECT_EQ(covered_disjointly(r), 28u);
  ASSERT_FALSE(r.search.designs.empty());
  EXPECT_LE(r.search.designs.front().integration.ii_main, 30);
}

TEST(Generate, SingleChipDegenerates) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const GenerateResult r =
      generate_partitions(ar.graph, experiment_library(), test_chips(1), {},
                          exp1_config(), wide_options());
  ASSERT_EQ(r.members.size(), 1u);
  EXPECT_EQ(r.members[0].size(), 28u);
  EXPECT_EQ(count_lines(r, ": move "), 0u);  // no boundary to move across
  EXPECT_TRUE(r.feasible());
}

TEST(Generate, LogNarratesDecisions) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  obs::Counter& moves =
      obs::MetricsRegistry::global().counter("gen.moves_accepted");
  const std::uint64_t moves_before = moves.value();
  const GenerateResult r =
      generate_partitions(ar.graph, experiment_library(), test_chips(2), {},
                          exp1_config(), wide_options());
  ASSERT_GE(r.log.size(), 2u);
  EXPECT_EQ(r.log.front().rfind("coarsened", 0), 0u);
  EXPECT_EQ(r.log.back().rfind("final", 0), 0u);
  EXPECT_EQ(count_lines(r, ": seed ("), r.starts_run);
  // One "move" line per accepted move, in every start.
  EXPECT_EQ(count_lines(r, ": move "), moves.value() - moves_before);
}

TEST(Generate, HandlesMemoryWorkload) {
  const dfg::BenchmarkGraph arm = dfg::ar_lattice_filter_with_memory();
  chip::MemorySubsystem memory;
  memory.blocks.push_back({"coeff", 16, 64, 1, 300.0, 4000.0, 3});
  memory.blocks.push_back({"spill", 16, 256, 1, 300.0, 6000.0, 3});
  memory.chip_of_block = {0, 1};
  core::ChopConfig config = exp1_config();
  config.constraints = {30000.0, 60000.0};
  const GenerateResult r =
      generate_partitions(arm.graph, experiment_library(), test_chips(2),
                          memory, config, wide_options());
  // Memory ops must be covered too (33 operations total).
  EXPECT_EQ(covered_disjointly(r), arm.graph.operation_count() + 3);
}

TEST(Generate, RejectsBadOptions) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  GenerateOptions options;
  options.max_candidates_per_level = 0;
  EXPECT_THROW(generate_partitions(ar.graph, experiment_library(),
                                   test_chips(1), {}, exp1_config(), options),
               Error);
  EXPECT_THROW(generate_partitions(ar.graph, experiment_library(), {}, {},
                                   exp1_config()),
               Error);
}

void expect_same_search(const core::SearchResult& a,
                        const core::SearchResult& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.feasible_raw, b.feasible_raw);
  EXPECT_EQ(a.probe_integrations, b.probe_integrations);
  ASSERT_EQ(a.designs.size(), b.designs.size());
  for (std::size_t i = 0; i < a.designs.size(); ++i) {
    const core::IntegrationResult& x = a.designs[i].integration;
    const core::IntegrationResult& y = b.designs[i].integration;
    EXPECT_EQ(a.designs[i].choice, b.designs[i].choice);
    EXPECT_EQ(x.feasible, y.feasible);
    EXPECT_EQ(x.reason, y.reason);
    EXPECT_EQ(x.ii_main, y.ii_main);
    EXPECT_EQ(x.system_delay_main, y.system_delay_main);
    EXPECT_EQ(x.clock_ns(), y.clock_ns());
    EXPECT_EQ(x.performance_ns.likely(), y.performance_ns.likely());
    EXPECT_EQ(x.system_power_mw.likely(), y.system_power_mw.likely());
    ASSERT_EQ(x.chip_area.size(), y.chip_area.size());
    for (std::size_t c = 0; c < x.chip_area.size(); ++c) {
      EXPECT_EQ(x.chip_area[c].likely(), y.chip_area[c].likely());
    }
    ASSERT_EQ(x.transfers.size(), y.transfers.size());
    for (std::size_t t = 0; t < x.transfers.size(); ++t) {
      EXPECT_EQ(x.transfers[t].buffer_bits, y.transfers[t].buffer_bits);
      EXPECT_EQ(x.transfers[t].pins, y.transfers[t].pins);
      EXPECT_EQ(x.transfers[t].wait_cycles, y.transfers[t].wait_cycles);
    }
  }
}

TEST(Generate, CachedRunEqualsFreshRun) {
  // The portfolio's shared memo cache may change hit counts, never
  // results: a run that recomputes every integration must agree exactly.
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  GenerateOptions options = wide_options();
  options.num_starts = 2;
  options.budget = 12;
  const GenerateResult cached =
      generate_partitions(ar.graph, experiment_library(), test_chips(2), {},
                          exp1_config(), options);
  core::CandidateEvaluator no_cache(0);  // recompute every integration
  options.search.evaluator = &no_cache;
  const GenerateResult fresh =
      generate_partitions(ar.graph, experiment_library(), test_chips(2), {},
                          exp1_config(), options);

  EXPECT_EQ(cached.members, fresh.members);
  EXPECT_EQ(cached.evaluations, fresh.evaluations);
  EXPECT_EQ(cached.log, fresh.log);
  ASSERT_EQ(cached.frontier.size(), fresh.frontier.size());
  for (std::size_t i = 0; i < cached.frontier.size(); ++i) {
    const FrontierPoint& a = cached.frontier[i];
    const FrontierPoint& b = fresh.frontier[i];
    EXPECT_EQ(a.members, b.members);
    EXPECT_EQ(a.choice, b.choice);
    EXPECT_EQ(a.ii, b.ii);
    EXPECT_EQ(a.delay, b.delay);
    EXPECT_EQ(a.area, b.area);
    EXPECT_EQ(a.start, b.start);
  }
  expect_same_search(cached.search, fresh.search);
  EXPECT_EQ(no_cache.stats().hits, 0u);
}

// --- Shared prediction lists ------------------------------------------
// One generate call shares a PredictionCache across its starts, candidate
// cuts and final pass. Content keys make a hit exactly the list a fresh
// prediction would give, so every frontier point must reproduce bit for
// bit on a cold session that shares nothing.

TEST(Generate, SharesPredictionsAcrossCandidateCuts) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  obs::Counter& hits =
      obs::MetricsRegistry::global().counter("bad.prediction_cache.hits");
  const std::uint64_t hits_before = hits.value();
  const GenerateOptions options = wide_options();
  const GenerateResult r =
      generate_partitions(ar.graph, experiment_library(), test_chips(3), {},
                          exp1_config(), options);
  ASSERT_TRUE(r.feasible());
  // One-vertex moves keep k-1 partitions and the final pass repeats the
  // winning cut, so the call must hit its own cache.
  EXPECT_GT(hits.value() - hits_before, 0u);

  for (const FrontierPoint& p : r.frontier) {
    core::Partitioning pt(ar.graph, test_chips(3));
    for (std::size_t i = 0; i < p.members.size(); ++i) {
      pt.add_partition("P" + std::to_string(i + 1), p.members[i],
                       static_cast<int>(i));
    }
    core::ChopSession cold(experiment_library(), std::move(pt),
                           exp1_config());
    cold.predict_partitions();
    core::CandidateEvaluator no_cache(0);
    core::SearchOptions search = options.search;
    search.evaluator = &no_cache;
    const core::SearchResult fresh = cold.search(search);
    const auto match = std::find_if(
        fresh.designs.begin(), fresh.designs.end(),
        [&](const core::GlobalDesign& d) { return d.choice == p.choice; });
    ASSERT_NE(match, fresh.designs.end()) << "frontier point of start "
                                          << p.start << " not reproduced";
    EXPECT_EQ(match->integration.ii_main, p.ii);
    EXPECT_EQ(match->integration.system_delay_main, p.delay);
    AreaMil2 area = 0.0;
    for (const StatVal& a : match->integration.chip_area) area += a.likely();
    EXPECT_EQ(area, p.area);
  }
}

TEST(Generate, KeepAllSearchPredictsUncached) {
  // A keep-all search reads raw lists, which the cache does not hold.
  const dfg::BenchmarkGraph bg = test_workload(25, 16, 4);
  static const lib::ComponentLibrary library =
      lib::dac91_experiment_library();
  obs::Counter& hits =
      obs::MetricsRegistry::global().counter("bad.prediction_cache.hits");
  obs::Counter& misses =
      obs::MetricsRegistry::global().counter("bad.prediction_cache.misses");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();
  GenerateOptions options;
  options.num_starts = 2;
  options.budget = 4;
  options.search.prune = false;
  const GenerateResult r = generate_partitions(
      bg.graph, library, test_chips(2), {}, test_config(), options);
  EXPECT_GE(r.evaluations, 1u);
  EXPECT_EQ(hits.value(), hits_before);
  EXPECT_EQ(misses.value(), misses_before);
}

TEST(Generate, SingleChipScoresItsCutOnce) {
  // One chip has one cut: the generator scores it once and gives the same
  // verdict as a cold session on that cut.
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const GenerateResult r =
      generate_partitions(ar.graph, experiment_library(), test_chips(1), {},
                          exp1_config(), wide_options());
  EXPECT_EQ(r.evaluations, 1u);
  EXPECT_EQ(r.starts_run, 0u);
  EXPECT_EQ(count_lines(r, "single chip"), 1u);
  ASSERT_TRUE(r.feasible());

  core::Partitioning pt(ar.graph, test_chips(1));
  pt.add_partition("P1", ar.graph.partitionable_operations(), 0);
  core::ChopSession cold(experiment_library(), std::move(pt), exp1_config());
  cold.predict_partitions();
  const core::SearchResult fresh = cold.search(wide_options().search);
  ASSERT_FALSE(fresh.designs.empty());
  expect_same_search(r.search, fresh);
  std::ostringstream verdict;
  verdict << "final: feasible II=" << fresh.designs.front().integration.ii_main
          << "c delay="
          << fresh.designs.front().integration.system_delay_main << "c";
  EXPECT_EQ(r.log.back().rfind(verdict.str(), 0), 0u) << r.log.back();
}

// --- Determinism contract ----------------------------------------------

TEST(GenerateDeterminism, ByteIdenticalAcrossThreadCounts) {
  const dfg::BenchmarkGraph bg = test_workload(31, 28, 7);
  static const lib::ComponentLibrary library =
      lib::dac91_experiment_library();
  std::string reference;
  for (const int threads : {1, 2, 4, 8}) {
    GenerateOptions options;
    options.num_starts = 6;
    options.threads = threads;
    options.wave_size = 3;
    const GenerateResult r = generate_partitions(
        bg.graph, library, test_chips(3), {}, test_config(), options);
    const std::string d = digest(r);
    if (reference.empty()) {
      reference = d;
    } else {
      EXPECT_EQ(d, reference) << "threads=" << threads;
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(GenerateDeterminism, ByteIdenticalOnExternalPool) {
  const dfg::BenchmarkGraph bg = test_workload(32, 24, 6);
  static const lib::ComponentLibrary library =
      lib::dac91_experiment_library();
  GenerateOptions serial;
  serial.num_starts = 4;
  const std::string reference = digest(generate_partitions(
      bg.graph, library, test_chips(2), {}, test_config(), serial));
  core::ThreadPool pool(4);
  GenerateOptions pooled = serial;
  pooled.pool = &pool;
  pooled.threads = 4;
  EXPECT_EQ(digest(generate_partitions(bg.graph, library, test_chips(2), {},
                                       test_config(), pooled)),
            reference);
}

TEST(GenerateDeterminism, ByteIdenticalUnderAdversarialScheduling) {
  const dfg::BenchmarkGraph bg = test_workload(33, 24, 6);
  static const lib::ComponentLibrary library =
      lib::dac91_experiment_library();
  GenerateOptions options;
  options.num_starts = 6;
  options.wave_size = 3;
  options.threads = 4;
  const GenerateResult fair = generate_partitions(
      bg.graph, library, test_chips(2), {}, test_config(), options);
  const std::string reference = digest(fair);
  for (const std::uint64_t seed : {0xfeedu, 0xbeefu, 0xcafeu, 0xf00du}) {
    core::ThreadPool::set_scheduler_chaos_for_testing(seed);
    const GenerateResult chaotic = generate_partitions(
        bg.graph, library, test_chips(2), {}, test_config(), options);
    core::ThreadPool::set_scheduler_chaos_for_testing(0);
    EXPECT_EQ(digest(chaotic), reference) << "chaos seed " << seed;
  }
}

}  // namespace
}  // namespace chop::gen
