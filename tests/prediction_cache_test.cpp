// Cache-key completeness for the shared PredictionCache: a session whose
// lists come from the cache must see exactly what a fresh session
// predicts. The key must not depend on what BAD never reads (partition
// numbering, member order, op names, which project a partition came
// from), so those must hit; it must depend on everything prediction or
// level-1 pruning reads, so changing any of those must miss. The LRU
// bound and concurrent sharing are covered at the end.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/eval/fingerprint.hpp"
#include "core/eval/prediction_cache.hpp"
#include "core/session.hpp"
#include "serve/protocol.hpp"
#include "testing/scenario.hpp"

namespace chop {
namespace {

using core::PredictionCache;

/// A three-partition scenario with a memory block, so every prediction
/// input (memory ports and access time included) is exercised.
io::Project base_project(std::uint64_t seed = 5) {
  testing::ScenarioKnobs knobs;
  knobs.seed = seed;
  knobs.operations = 18;
  knobs.depth = 4;
  knobs.chips = 2;
  knobs.partitions = 3;
  knobs.memory_blocks = 2;
  knobs.mem_reads = 2;
  knobs.normalize();
  return testing::build_scenario(knobs);
}

/// What a session yields from one predict pass plus a pruned search.
struct Outcome {
  core::PredictionStats stats;
  std::vector<std::vector<std::string>> eligible;  ///< Summaries.
  std::string result;  ///< render_search_result bytes.
};

Outcome run(const io::Project& project, PredictionCache* cache) {
  core::ChopSession session = project.make_session();
  if (cache != nullptr) session.share_predictions(cache);
  Outcome out;
  out.stats = session.predict_partitions();
  for (const auto& list : session.predictions().eligible) {
    std::vector<std::string> rows;
    for (const bad::DesignPrediction& p : list) {
      rows.push_back(p.summary() + "#" + std::to_string(core::fingerprint(p)));
    }
    out.eligible.push_back(std::move(rows));
  }
  core::SearchOptions options;
  options.heuristic = core::Heuristic::Enumeration;
  out.result = serve::render_search_result(session.search(options)).dump();
  return out;
}

void expect_same(const Outcome& cached, const Outcome& fresh) {
  EXPECT_EQ(cached.stats.total, fresh.stats.total);
  EXPECT_EQ(cached.stats.feasible, fresh.stats.feasible);
  EXPECT_EQ(cached.eligible, fresh.eligible);
  EXPECT_EQ(cached.result, fresh.result);
}

/// `project` with its graph rebuilt node by node in id order (ids stay
/// put); `edit` may change each node and its operand list first.
io::Project rebuilt(
    const io::Project& project,
    const std::function<void(std::size_t, dfg::Node&,
                             std::vector<dfg::NodeId>&)>& edit) {
  io::Project out = project;
  const dfg::Graph& g = project.graph;
  dfg::Graph h(g.name());
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const auto id = static_cast<dfg::NodeId>(i);
    dfg::Node n = g.node(id);
    std::vector<dfg::NodeId> operands;
    for (dfg::EdgeId e : g.fanin(id)) operands.push_back(g.edge(e).src);
    edit(i, n, operands);
    switch (n.kind) {
      case dfg::OpKind::Input:
        if (n.constant) {
          h.add_constant_input(n.name, n.width);
        } else {
          h.add_input(n.name, n.width);
        }
        break;
      case dfg::OpKind::Output:
        h.add_output(n.name, operands.at(0));
        break;
      case dfg::OpKind::MemRead:
        h.add_mem_read(n.memory_block, n.width,
                       operands.empty() ? dfg::kNoNode : operands[0], n.name);
        break;
      case dfg::OpKind::MemWrite:
        h.add_mem_write(n.memory_block, operands.at(0),
                        operands.size() > 1 ? operands[1] : dfg::kNoNode,
                        n.name);
        break;
      default:
        h.add_op(n.kind, n.width, operands, n.name);
        break;
    }
  }
  h.validate();
  out.graph = std::move(h);
  return out;
}

/// `project` with every node renamed; structure unchanged.
io::Project renamed(const io::Project& project) {
  return rebuilt(project, [](std::size_t i, dfg::Node& n, auto&) {
    n.name = "renamed_" + std::to_string(i);
  });
}

/// The first node of `kind` in `project`'s graph.
std::size_t first_of(const io::Project& project, dfg::OpKind kind) {
  const std::vector<dfg::NodeId> nodes = project.graph.nodes_of_kind(kind);
  EXPECT_FALSE(nodes.empty()) << dfg::to_string(kind);
  return nodes.empty() ? 0 : static_cast<std::size_t>(nodes.front());
}

TEST(PredictionCache, CachedEqualsFreshAndRepeatsHit) {
  const io::Project project = base_project();
  const Outcome fresh = run(project, nullptr);
  PredictionCache cache;
  const Outcome first = run(project, &cache);
  EXPECT_EQ(cache.stats().misses, project.partitions.size());
  EXPECT_EQ(cache.stats().hits, 0u);
  const Outcome second = run(project, &cache);
  EXPECT_EQ(cache.stats().hits, project.partitions.size());
  EXPECT_EQ(cache.stats().entries, project.partitions.size());
  expect_same(first, fresh);
  expect_same(second, fresh);
  EXPECT_GT(fresh.stats.total, fresh.stats.feasible);  // pruning did work
}

TEST(PredictionCache, RawTotalsComeFromTheCachedCounts) {
  const io::Project project = base_project();
  core::ChopSession fresh = project.make_session();
  fresh.predict_partitions();

  PredictionCache cache;
  run(project, &cache);
  core::ChopSession shared = project.make_session();
  shared.share_predictions(&cache);
  shared.predict_partitions();
  const core::PartitionPredictions& pred = shared.predictions();
  EXPECT_EQ(pred.raw_total(), fresh.predictions().raw_total());
  EXPECT_EQ(pred.eligible_total(), fresh.predictions().eligible_total());
  for (std::size_t p = 0; p < pred.raw.size(); ++p) {
    EXPECT_TRUE(pred.raw[p].empty());
    EXPECT_EQ(pred.raw_counts[p], fresh.predictions().raw[p].size());
  }
  // Without raw lists only a pruned search can run.
  core::SearchOptions keep_all;
  keep_all.prune = false;
  EXPECT_THROW(shared.search(keep_all), Error);
}

TEST(PredictionCache, PartitionRenumberingHits) {
  const io::Project project = base_project();
  io::Project reversed = project;
  std::reverse(reversed.partitions.begin(), reversed.partitions.end());

  PredictionCache cache;
  run(project, &cache);
  const Outcome cached = run(reversed, &cache);
  EXPECT_EQ(cache.stats().hits, project.partitions.size());
  expect_same(cached, run(reversed, nullptr));
}

TEST(PredictionCache, PermutedMemberOrderHits) {
  const io::Project project = base_project();
  io::Project permuted = project;
  for (core::Partition& part : permuted.partitions) {
    std::reverse(part.members.begin(), part.members.end());
  }

  PredictionCache cache;
  run(project, &cache);
  const Outcome cached = run(permuted, &cache);
  EXPECT_EQ(cache.stats().hits, project.partitions.size());
  expect_same(cached, run(permuted, nullptr));
}

TEST(PredictionCache, RenamedOpsHit) {
  const io::Project project = base_project();
  const io::Project other = renamed(project);

  PredictionCache cache;
  run(project, &cache);
  const Outcome cached = run(other, &cache);
  EXPECT_EQ(cache.stats().hits, project.partitions.size());
  expect_same(cached, run(other, nullptr));
}

TEST(PredictionCache, EveryStructuralChangeMisses) {
  // Each edit changes what BAD reads of one node's partition: that
  // partition must miss, and the result must still equal a fresh run.
  const io::Project project = base_project();
  using Edit = std::function<void(std::size_t, dfg::Node&,
                                  std::vector<dfg::NodeId>&)>;
  const std::size_t mul = first_of(project, dfg::OpKind::Mul);
  const std::size_t add = first_of(project, dfg::OpKind::Add);
  const std::size_t read = first_of(project, dfg::OpKind::MemRead);
  std::size_t input = 0;  // a non-constant input feeding an operation
  for (dfg::NodeId id : project.graph.nodes_of_kind(dfg::OpKind::Input)) {
    if (!project.graph.node(id).constant) {
      input = static_cast<std::size_t>(id);
      break;
    }
  }
  const std::vector<std::pair<const char*, Edit>> edits = {
      {"op width",
       [&](std::size_t i, dfg::Node& n, auto&) {
         if (i == add) n.width += 4;
       }},
      {"op kind",
       [&](std::size_t i, dfg::Node& n, auto&) {
         if (i == mul) n.kind = dfg::OpKind::Add;
       }},
      {"input constant flag",
       [&](std::size_t i, dfg::Node& n, auto&) {
         if (i == input) n.constant = true;
       }},
      {"memory block",
       [&](std::size_t i, dfg::Node& n, auto&) {
         if (i == read) n.memory_block = 1 - n.memory_block;
       }},
      {"operand order",
       [&](std::size_t i, dfg::Node&, std::vector<dfg::NodeId>& operands) {
         if (i == add) std::swap(operands[0], operands[1]);
       }},
  };
  for (const auto& [name, edit] : edits) {
    SCOPED_TRACE(name);
    const io::Project changed = rebuilt(project, edit);
    PredictionCache cache;
    run(project, &cache);
    const Outcome cached = run(changed, &cache);
    EXPECT_LT(cache.stats().hits, project.partitions.size());
    expect_same(cached, run(changed, nullptr));
  }
}

TEST(PredictionCache, SamePartitionInAnotherProjectHits) {
  // A second project (renamed ops, one op moved between the last two
  // partitions) shares its first partition with the base project.
  const io::Project project = base_project();
  io::Project other = renamed(project);
  bool moved = false;
  const std::size_t n = other.partitions.size();
  for (std::size_t i = 0; i < other.partitions[n - 2].members.size() && !moved;
       ++i) {
    io::Project candidate = other;
    auto& from = candidate.partitions[n - 2].members;
    if (from.size() < 2) break;
    candidate.partitions[n - 1].members.push_back(from[i]);
    from.erase(from.begin() + static_cast<std::ptrdiff_t>(i));
    try {
      (void)candidate.make_session();
    } catch (const Error&) {
      continue;  // not a valid partitioning; try the next op
    }
    other = std::move(candidate);
    moved = true;
  }
  ASSERT_TRUE(moved);

  PredictionCache cache;
  run(project, &cache);
  const Outcome cached = run(other, &cache);
  EXPECT_EQ(cache.stats().hits, n - 2);  // the untouched partitions
  expect_same(cached, run(other, nullptr));
}

/// One change to a prediction or pruning input, and whether it only
/// touches some partitions (then at least one must miss).
struct Mutation {
  const char* name;
  std::function<void(io::Project&)> apply;
};

std::vector<Mutation> mutations() {
  using P = io::Project;
  std::vector<Mutation> m = {
      // ChopConfig: architecture style and clocks.
      {"style.clocking",
       [](P& p) {
         p.config.style.clocking =
             p.config.style.clocking == bad::ClockingStyle::SingleCycle
                 ? bad::ClockingStyle::MultiCycle
                 : bad::ClockingStyle::SingleCycle;
       }},
      {"style.allow_pipelining",
       [](P& p) {
         p.config.style.allow_pipelining = !p.config.style.allow_pipelining;
       }},
      {"clocks.main_clock", [](P& p) { p.config.clocks.main_clock *= 1.1; }},
      {"clocks.datapath_multiplier",
       [](P& p) { p.config.clocks.datapath_multiplier += 1; }},
      {"clocks.transfer_multiplier",
       [](P& p) { p.config.clocks.transfer_multiplier += 1; }},
      // ChopConfig: constraints and criteria (level-1 pruning).
      {"constraints.performance_ns",
       [](P& p) { p.config.constraints.performance_ns *= 0.9; }},
      {"constraints.delay_ns",
       [](P& p) { p.config.constraints.delay_ns *= 0.9; }},
      {"constraints.system_power_mw",
       [](P& p) { p.config.constraints.system_power_mw = 1e6; }},
      {"constraints.chip_power_mw",
       [](P& p) { p.config.constraints.chip_power_mw = 1e6; }},
      {"criteria.area_prob", [](P& p) { p.config.criteria.area_prob = 0.9; }},
      {"criteria.performance_prob",
       [](P& p) { p.config.criteria.performance_prob = 0.9; }},
      {"criteria.delay_prob", [](P& p) { p.config.criteria.delay_prob = 0.7; }},
      {"criteria.power_prob", [](P& p) { p.config.criteria.power_prob = 0.8; }},
      // PredictorOptions.
      {"predictor.unit_sweep",
       [](P& p) { p.config.predictor.unit_sweep = {1, 2, 3}; }},
      // TestabilityOptions.
      {"testability.scan_design",
       [](P& p) { p.config.testability.scan_design = true; }},
      {"testability.register_area_factor",
       [](P& p) { p.config.testability.register_area_factor = 1.5; }},
      {"testability.register_delay_penalty_ns",
       [](P& p) { p.config.testability.register_delay_penalty_ns = 3.0; }},
      {"testability.controller_area_factor",
       [](P& p) { p.config.testability.controller_area_factor = 1.2; }},
      {"testability.test_pins_per_chip",
       [](P& p) { p.config.testability.test_pins_per_chip = 6; }},
      // Memory subsystem.
      {"memory.ports", [](P& p) { p.memory.blocks.at(0).ports += 1; }},
      {"memory.access_time",
       [](P& p) { p.memory.blocks.at(0).access_time += 5.0; }},
      // Package usable area, on every chip.
      {"package.usable_area",
       [](P& p) {
         for (auto& chip : p.chips) chip.package.io_pad_area *= 1.1;
       }},
      // Library: bit cells.
      {"library.register_bit",
       [](P& p) {
         lib::BitCellSpec cell = p.library.register_bit();
         cell.area += 1.0;
         p.library.set_register_bit(cell);
       }},
      {"library.register_bit.delay",
       [](P& p) {
         lib::BitCellSpec cell = p.library.register_bit();
         cell.delay += 0.5;
         p.library.set_register_bit(cell);
       }},
      {"library.mux_bit",
       [](P& p) {
         lib::BitCellSpec cell = p.library.mux_bit();
         cell.area += 1.0;
         p.library.set_mux_bit(cell);
       }},
      {"library.mux_bit.delay",
       [](P& p) {
         lib::BitCellSpec cell = p.library.mux_bit();
         cell.delay += 0.5;
         p.library.set_mux_bit(cell);
       }},
  };

  // Library: every technology parameter.
  const auto tech = [](const char* name,
                       std::function<void(lib::TechnologyParams&)> edit) {
    return Mutation{name, [edit](P& p) {
                      lib::TechnologyParams t = p.library.technology();
                      edit(t);
                      p.library.set_technology(t);
                    }};
  };
  m.push_back(tech("tech.pla_crosspoint_area",
                   [](auto& t) { t.pla_crosspoint_area *= 1.1; }));
  m.push_back(
      tech("tech.pla_base_delay", [](auto& t) { t.pla_base_delay += 1; }));
  m.push_back(tech("tech.pla_delay_per_term",
                   [](auto& t) { t.pla_delay_per_term *= 1.1; }));
  m.push_back(tech("tech.wiring_area_fraction", [](auto& t) {
    t.wiring_area_fraction = StatVal(0.16, 0.26, 0.33);
  }));
  m.push_back(tech("tech.wiring_delay_fraction", [](auto& t) {
    t.wiring_delay_fraction = StatVal(0.05, 0.09, 0.16);
  }));
  m.push_back(tech("tech.power_per_area_mw",
                   [](auto& t) { t.power_per_area_mw *= 1.1; }));
  m.push_back(tech("tech.idle_power_fraction",
                   [](auto& t) { t.idle_power_fraction = 0.3; }));
  m.push_back(tech("tech.support_power_per_area_mw",
                   [](auto& t) { t.support_power_per_area_mw *= 1.1; }));
  m.push_back(
      tech("tech.pad_power_mw", [](auto& t) { t.pad_power_mw += 0.5; }));

  // Library: every field of a module (the first one).
  const auto module = [](const char* name,
                         std::function<void(lib::ModuleSpec&)> edit) {
    return Mutation{name, [edit](P& p) {
                      lib::ComponentLibrary rebuilt;
                      std::vector<lib::ModuleSpec> modules =
                          p.library.modules();
                      edit(modules.at(0));
                      for (lib::ModuleSpec& spec : modules) {
                        rebuilt.add(std::move(spec));
                      }
                      rebuilt.set_register_bit(p.library.register_bit());
                      rebuilt.set_mux_bit(p.library.mux_bit());
                      rebuilt.set_technology(p.library.technology());
                      p.library = std::move(rebuilt);
                    }};
  };
  m.push_back(module("module.name", [](auto& s) { s.name += "_v2"; }));
  m.push_back(module("module.width", [](auto& s) { s.width += 1; }));
  m.push_back(module("module.area", [](auto& s) { s.area += 10.0; }));
  m.push_back(module("module.delay", [](auto& s) { s.delay += 1.0; }));
  m.push_back(module("module.active_power_mw",
                     [](auto& s) { s.active_power_mw += 1.0; }));
  return m;
}

TEST(PredictionCache, EveryPredictionInputChangesTheKey) {
  const io::Project project = base_project();
  for (const Mutation& mutation : mutations()) {
    SCOPED_TRACE(mutation.name);
    io::Project changed = project;
    mutation.apply(changed);

    PredictionCache cache;
    run(project, &cache);
    const std::uint64_t hits_before = cache.stats().hits;
    const Outcome cached = run(changed, &cache);
    EXPECT_EQ(cache.stats().hits, hits_before);  // every partition missed
    expect_same(cached, run(changed, nullptr));
  }
}

TEST(PredictionCache, LruKeepsTheBoundAndTheResults) {
  // Six clock settings x three partitions = 18 distinct keys through a
  // four-entry cache.
  constexpr std::size_t kCapacity = 4;
  PredictionCache cache(kCapacity);
  std::vector<io::Project> projects;
  for (int i = 0; i < 6; ++i) {
    io::Project p = base_project();
    p.config.clocks.main_clock += 10.0 * i;
    projects.push_back(std::move(p));
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (const io::Project& p : projects) {
      expect_same(run(p, &cache), run(p, nullptr));
      EXPECT_LE(cache.stats().entries, kCapacity);
    }
  }
  const PredictionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, kCapacity);
  // The second pass found its keys evicted by the first: all misses.
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2 * 6 * projects.front().partitions.size());
  EXPECT_EQ(stats.evictions, stats.misses - kCapacity);
}

TEST(PredictionCache, EvictsTheLeastRecentlyUsedEntry) {
  PredictionCache cache(2);
  const auto entry = [](std::size_t raw) {
    auto e = std::make_shared<core::CachedPrediction>();
    e->raw_count = raw;
    return e;
  };
  cache.insert(1, entry(10));
  cache.insert(2, entry(20));
  ASSERT_NE(cache.find(1), nullptr);  // 1 becomes most recent
  cache.insert(3, entry(30));         // evicts 2
  EXPECT_EQ(cache.find(2), nullptr);
  ASSERT_NE(cache.find(1), nullptr);
  EXPECT_EQ(cache.find(1)->raw_count, 10u);
  EXPECT_EQ(cache.find(3)->raw_count, 30u);
  cache.insert(3, entry(99));  // an existing key keeps its entry
  EXPECT_EQ(cache.find(3)->raw_count, 30u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(PredictionCache, ConcurrentSessionsShareOneCache) {
  std::vector<io::Project> projects;
  std::vector<Outcome> fresh;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    projects.push_back(base_project(seed));
    fresh.push_back(run(projects.back(), nullptr));
  }
  PredictionCache cache(4);  // small: eviction races with lookups
  std::vector<std::vector<Outcome>> seen(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < projects.size(); ++i) {
          seen[t].push_back(run(projects[(i + t) % projects.size()], &cache));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < seen.size(); ++t) {
    for (std::size_t k = 0; k < seen[t].size(); ++k) {
      const std::size_t project = (k % projects.size() + t) % projects.size();
      expect_same(seen[t][k], fresh[project]);
    }
  }
  EXPECT_LE(cache.stats().entries, 4u);
}

}  // namespace
}  // namespace chop
