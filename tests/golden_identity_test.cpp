// Golden identity: digests of BAD prediction lists, raw schedules,
// register demand and Kernighan-Lin cuts, recorded before the scheduling
// and KL kernels were rewritten for speed. The fast kernels must reproduce
// every list, schedule and cut exactly, so these digests never change
// unless a result is meant to change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/kernighan_lin.hpp"
#include "bad/predictor.hpp"
#include "chip/mosis_packages.hpp"
#include "core/session.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/generator.hpp"
#include "library/experiment_library.hpp"
#include "schedule/op_schedule.hpp"
#include "schedule/register_demand.hpp"

namespace chop {
namespace {

/// FNV-1a over a running text rendering of every field that matters.
class Digest {
 public:
  Digest& add(std::int64_t v) { return text(std::to_string(v)); }
  /// Doubles at 12 significant digits: exact for the integer-derived
  /// arithmetic here, and immune to last-bit differences between compilers.
  Digest& add(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return text(buf);
  }
  Digest& add(const StatVal& v) {
    return add(v.lo()).add(v.likely()).add(v.hi());
  }
  Digest& text(const std::string& s) {
    for (unsigned char c : s) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ull;
    }
    hash_ ^= '|';
    hash_ *= 0x100000001b3ull;
    return *this;
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void add_prediction(Digest& d, const bad::DesignPrediction& p) {
  d.add(static_cast<std::int64_t>(p.style)).text(p.module_set_label);
  for (const auto& [kind, name] : p.module_names) {
    d.add(static_cast<std::int64_t>(kind)).text(name);
  }
  for (const auto& [kind, count] : p.fu_alloc) {
    d.add(static_cast<std::int64_t>(kind)).add(std::int64_t{count});
  }
  d.add(p.stages).add(p.ii_dp).add(p.ii_main).add(p.latency_main);
  d.add(p.register_bits).add(p.mux_count_likely);
  d.add(p.fu_area).add(p.register_area).add(p.mux_area);
  d.add(p.controller_area).add(p.wiring_area).add(p.total_area);
  d.add(p.clock_overhead_ns).add(p.power_mw);
  for (const auto& [block, count] : p.memory_accesses) {
    d.add(std::int64_t{block}).add(std::int64_t{count});
  }
}

std::uint64_t digest_of(const std::vector<bad::DesignPrediction>& preds) {
  Digest d;
  d.add(static_cast<std::int64_t>(preds.size()));
  for (const auto& p : preds) add_prediction(d, p);
  return d.value();
}

void add_schedule(Digest& d, const sched::OpSchedule& s) {
  d.add(std::int64_t{s.feasible}).add(s.length).add(s.initiation_interval);
  if (!s.feasible) return;
  for (Cycles c : s.start) d.add(c);
}

/// Prints the digest so a deliberate result change can be re-recorded.
void expect_digest(std::uint64_t actual, std::uint64_t expected,
                   const std::string& what) {
  EXPECT_EQ(actual, expected)
      << what << ": digest is 0x" << std::hex << actual << "ull";
}

// ---- AR filter, paper experiments 1 and 2 ----

std::uint64_t experiment_digest(int exp, int nparts) {
  static const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  static const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  std::vector<chip::ChipInstance> chips;
  for (int c = 0; c < nparts; ++c) {
    chips.push_back({"chip" + std::to_string(c), chip::mosis_package_84()});
  }
  core::Partitioning pt(ar.graph, std::move(chips));
  const auto cuts =
      nparts == 1
          ? std::vector<std::vector<dfg::NodeId>>{ar.all_operations()}
          : (nparts == 2 ? dfg::ar_two_way_cut(ar) : dfg::ar_three_way_cut(ar));
  for (int p = 0; p < nparts; ++p) {
    pt.add_partition("P" + std::to_string(p + 1),
                     cuts[static_cast<std::size_t>(p)], p);
  }
  core::ChopConfig config;
  if (exp == 1) {
    config.style.clocking = bad::ClockingStyle::SingleCycle;
    config.clocks = {300.0, 10, 1};
    config.constraints = {30000.0, 30000.0};
  } else {
    config.style.clocking = bad::ClockingStyle::MultiCycle;
    config.clocks = {300.0, 1, 1};
    config.constraints = {20000.0, 20000.0};
  }
  core::ChopSession session(lib, std::move(pt), config);
  session.predict_partitions();
  Digest d;
  for (const auto& list : session.predictions().raw) {
    d.add(static_cast<std::int64_t>(digest_of(list)));
  }
  return d.value();
}

TEST(GoldenIdentity, ArExperimentPredictions) {
  expect_digest(experiment_digest(1, 1), 0xc6a02884294bd7a7ull,
                "exp1 1 partition");
  expect_digest(experiment_digest(1, 2), 0x4a9f01b31e2d87b5ull,
                "exp1 2 partitions");
  expect_digest(experiment_digest(1, 3), 0xe65e9f41d25789bdull,
                "exp1 3 partitions");
  expect_digest(experiment_digest(2, 1), 0x2a66b38e71281ab6ull,
                "exp2 1 partition");
  expect_digest(experiment_digest(2, 2), 0x11b544a7b4533e89ull,
                "exp2 2 partitions");
  expect_digest(experiment_digest(2, 3), 0x67e97d3755737fc5ull,
                "exp2 3 partitions");
}

// ---- random DAGs with memory traffic, pipelining on ----

struct DagCase {
  int ops;
  int depth;
  int blocks;
  std::uint64_t seed;
  bad::ClockingStyle clocking;
};

dfg::BenchmarkGraph make_dag(const DagCase& c) {
  Rng rng(c.seed);
  dfg::RandomDagSpec spec;
  spec.operations = c.ops;
  spec.depth = c.depth;
  spec.memory_blocks = c.blocks;
  spec.mem_reads = c.blocks * 3;
  spec.mem_writes = c.blocks * 2;
  return dfg::random_dag(rng, spec);
}

std::uint64_t random_dag_prediction_digest(const DagCase& c) {
  static const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  const dfg::BenchmarkGraph bg = make_dag(c);
  bad::PredictionRequest req;
  req.graph = &bg.graph;
  req.library = &lib;
  req.style.clocking = c.clocking;
  req.style.allow_pipelining = true;
  req.clocks = c.clocking == bad::ClockingStyle::SingleCycle
                   ? bad::ClockSpec{300.0, 10, 1}
                   : bad::ClockSpec{300.0, 1, 1};
  req.max_ii_dp = 24;
  for (int b = 0; b < c.blocks; ++b) {
    req.memory_ports[b] = 1 + b % 2;
    req.memory_access_time.push_back(b % 2 ? 700.0 : 250.0);
  }
  bad::PredictorOptions options;
  options.unit_sweep = {1, 2, 3, 6, 12};
  const auto preds = bad::Predictor(options).predict(req);
  std::size_t pipelined = 0;
  for (const auto& p : preds) {
    pipelined += p.style == bad::DesignStyle::Pipelined ? 1 : 0;
  }
  EXPECT_GT(pipelined, 0u) << c.ops << " ops: no pipelined design";
  EXPECT_LT(pipelined, preds.size()) << c.ops << " ops";
  return digest_of(preds);
}

TEST(GoldenIdentity, RandomDagPredictions) {
  using bad::ClockingStyle;
  expect_digest(random_dag_prediction_digest(
                    {50, 5, 1, 101, ClockingStyle::SingleCycle}),
                0x41409a136a64bd7aull, "50 ops");
  expect_digest(random_dag_prediction_digest(
                    {120, 8, 2, 102, ClockingStyle::MultiCycle}),
                0xe368b6eb4f178b6ull, "120 ops");
  expect_digest(random_dag_prediction_digest(
                    {200, 6, 2, 103, ClockingStyle::SingleCycle}),
                0x6e103b2d41145f62ull, "200 ops");
  expect_digest(random_dag_prediction_digest(
                    {300, 12, 3, 104, ClockingStyle::MultiCycle}),
                0x3e45b407d743ad63ull, "300 ops");
}

// ---- raw schedules and register demand ----

std::uint64_t schedule_digest(const DagCase& c) {
  const dfg::BenchmarkGraph bg = make_dag(c);
  const dfg::Graph& g = bg.graph;
  Rng rng(c.seed * 7 + 1);
  // Mixed multi-cycle latencies, zero for boundary nodes.
  std::vector<Cycles> lat(g.node_count(), 0);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const dfg::OpKind kind = g.node(static_cast<dfg::NodeId>(i)).kind;
    if (dfg::needs_functional_unit(kind)) {
      lat[i] = kind == dfg::OpKind::Mul ? rng.uniform(1, 4) : rng.uniform(1, 2);
    } else if (kind == dfg::OpKind::MemRead || kind == dfg::OpKind::MemWrite) {
      lat[i] = rng.uniform(1, 3);
    }
  }
  Digest d;
  for (int units : {1, 2, 5}) {
    sched::ResourceLimits limits;
    limits.fu[dfg::OpKind::Mul] = units;
    limits.fu[dfg::OpKind::Add] = units + 1;
    for (int b = 0; b < c.blocks; ++b) limits.memory_ports[b] = 1 + b % 2;
    const sched::OpSchedule list = sched::list_schedule(g, lat, limits);
    add_schedule(d, list);
    d.add(sched::register_demand(g, lat, list));
    const Cycles min_ii = sched::min_initiation_interval(g, lat, limits);
    d.add(min_ii);
    for (Cycles ii = min_ii; ii <= min_ii + 6; ++ii) {
      const sched::OpSchedule pipe =
          sched::pipeline_schedule(g, lat, limits, ii);
      add_schedule(d, pipe);
      if (pipe.feasible) d.add(sched::register_demand(g, lat, pipe));
    }
  }
  return d.value();
}

TEST(GoldenIdentity, RawSchedulesAndRegisterDemand) {
  using bad::ClockingStyle;
  expect_digest(schedule_digest({40, 4, 1, 201, ClockingStyle::SingleCycle}),
                0xa99723124ec5dc01ull, "40 ops");
  expect_digest(schedule_digest({150, 10, 2, 202, ClockingStyle::SingleCycle}),
                0x7c029f8a224738a9ull, "150 ops");
  expect_digest(schedule_digest({400, 7, 3, 203, ClockingStyle::SingleCycle}),
                0x8f85ef558e659130ull, "400 ops");
}

// ---- Kernighan-Lin ----

std::uint64_t kl_digest(int ops, int k, std::uint64_t seed) {
  Rng graph_rng(seed);
  dfg::RandomDagSpec spec;
  spec.operations = ops;
  spec.depth = std::max(2, ops / 40);
  const dfg::BenchmarkGraph bg = dfg::random_dag(graph_rng, spec);
  Rng rng(seed + 1000);
  Digest d;
  for (const auto& part :
       baseline::kl_partition(bg.graph, bg.all_operations(), k, rng)) {
    d.add(static_cast<std::int64_t>(part.size()));
    for (dfg::NodeId id : part) d.add(std::int64_t{id});
  }
  return d.value();
}

TEST(GoldenIdentity, KlPartitionCuts) {
  expect_digest(kl_digest(28, 2, 1), 0x7387899c17bf869bull, "28 ops k=2");
  expect_digest(kl_digest(101, 3, 2), 0xbc383f2b86ad0174ull, "101 ops k=3");
  expect_digest(kl_digest(250, 4, 3), 0x1d91aa20abca481aull, "250 ops k=4");
  expect_digest(kl_digest(600, 2, 4), 0x783294c638306eb1ull, "600 ops k=2");
  expect_digest(kl_digest(1000, 3, 5), 0x62a650ec26641cdeull, "1000 ops k=3");
  expect_digest(kl_digest(1000, 4, 6), 0x8d302b2535b68007ull, "1000 ops k=4");
}

/// Random weighted graphs, including zero weights and heavy ties, run
/// through kernighan_lin directly.
TEST(GoldenIdentity, KlWeightedGraphs) {
  for (int n : {2, 3, 17, 64, 301}) {
    Rng rng(static_cast<std::uint64_t>(n) * 31 + 7);
    baseline::KlGraph g;
    g.vertex_count = n;
    g.adjacency.resize(static_cast<std::size_t>(n));
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (rng.uniform(0, 99) >= std::max(4, 400 / n)) continue;
        const Bits w = rng.uniform(0, 3) * 8;  // 0, 8, 16, 24: many ties
        g.adjacency[static_cast<std::size_t>(a)].emplace_back(b, w);
        g.adjacency[static_cast<std::size_t>(b)].emplace_back(a, w);
      }
    }
    const baseline::KlResult r =
        baseline::kernighan_lin(g, baseline::random_bisection(n, rng));
    Digest d;
    d.add(r.cut_cost).add(std::int64_t{r.passes});
    for (int s : r.side) d.add(std::int64_t{s});
    std::uint64_t expected = 0;
    switch (n) {
      case 2: expected = 0x73ea185f8271b2adull; break;
      case 3: expected = 0xb127f01c8068076bull; break;
      case 17: expected = 0xef3f5bcf59126ca4ull; break;
      case 64: expected = 0x766a5f4acb04d5aaull; break;
      case 301: expected = 0xe566d8b9422841f1ull; break;
    }
    expect_digest(d.value(), expected, "weighted n=" + std::to_string(n));
  }
}

}  // namespace
}  // namespace chop
