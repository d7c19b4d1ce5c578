// Ablation: automatic constraint-driven partitioning (the multilevel
// generator, gen::generate_partitions) vs the paper's manual cuts vs
// structure-blind baselines, across workloads and chip counts. Measures
// solution quality (best II/delay) and search effort (predict+search
// evaluations) of the closed-loop advisor built on CHOP's feedback cycle.
#include <benchmark/benchmark.h>

#include "baseline/kernighan_lin.hpp"
#include "baseline/partition_builders.hpp"
#include "common.hpp"
#include "gen/generate.hpp"

namespace {

using namespace chop;

core::ChopConfig exp1_config() {
  core::ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 30000.0};
  return config;
}

std::vector<chip::ChipInstance> chips(int n) {
  std::vector<chip::ChipInstance> out;
  for (int i = 0; i < n; ++i) {
    out.push_back({"c" + std::to_string(i), chip::mosis_package_84()});
  }
  return out;
}

/// The generator at its defaults, except for a wider per-level candidate
/// list: on these small graphs it is what reaches the best cuts.
gen::GenerateResult generate(const dfg::Graph& graph, int nparts,
                             const core::ChopConfig& config) {
  gen::GenerateOptions options;
  options.max_candidates_per_level = 12;
  return gen::generate_partitions(graph, bench::experiment_library(),
                                  chips(nparts), {}, config, options);
}

/// Accepted refinement moves across all starts (one log line each).
std::size_t accepted_moves(const gen::GenerateResult& r) {
  std::size_t moves = 0;
  for (const std::string& line : r.log) {
    if (line.find(": move ") != std::string::npos) ++moves;
  }
  return moves;
}

void manual_row(TablePrinter& table, const std::string& name,
                const dfg::Graph& graph,
                const std::vector<std::vector<dfg::NodeId>>& cuts) {
  core::Partitioning pt(graph, chips(static_cast<int>(cuts.size())));
  for (std::size_t p = 0; p < cuts.size(); ++p) {
    pt.add_partition("P" + std::to_string(p + 1), cuts[p],
                     static_cast<int>(p));
  }
  core::ChopSession session(bench::experiment_library(), std::move(pt),
                            exp1_config());
  session.predict_partitions();
  const core::SearchResult r = session.search({});
  if (r.designs.empty()) {
    table.row(name, cuts.size(), 1, "-", "-");
  } else {
    table.row(name, cuts.size(), 1, r.designs.front().integration.ii_main,
              r.designs.front().integration.system_delay_main);
  }
}

void print_table() {
  bench::print_header(
      "Automatic partitioning vs manual and baseline cuts (experiment 1)",
      "the closed-loop advisor should match the paper's hand cuts");
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  TablePrinter table({"Partitioner", "Parts", "Evals", "Best II",
                      "Best Delay"});

  for (int nparts : {2, 3}) {
    const auto manual = nparts == 2 ? dfg::ar_two_way_cut(ar)
                                    : dfg::ar_three_way_cut(ar);
    manual_row(table, "paper manual cut", ar.graph, manual);

    Rng rng(4242);
    const auto kl = baseline::make_acyclic(
        ar.graph,
        baseline::kl_partition(ar.graph, ar.all_operations(), nparts, rng));
    manual_row(table, "kernighan-lin (repaired)", ar.graph, kl);

    const gen::GenerateResult r = generate(ar.graph, nparts, exp1_config());
    if (r.feasible()) {
      table.row("generate (multilevel)", nparts, r.evaluations,
                r.search.designs.front().integration.ii_main,
                r.search.designs.front().integration.system_delay_main);
    } else {
      table.row("generate (multilevel)", nparts, r.evaluations, "-", "-");
    }
  }
  table.print(std::cout);
  std::cout << "\n";

  // A second workload the paper never hand-partitioned: the elliptic
  // wave filter — the advisor has to find its own cut.
  bench::print_header("Automatic partitioning of the elliptic wave filter",
                      "no manual reference exists; the advisor is on its own");
  const dfg::BenchmarkGraph ewf = dfg::elliptic_wave_filter();
  TablePrinter ewf_table({"Parts", "Evals", "Moves", "Best II", "Best Delay"});
  core::ChopConfig config = exp1_config();
  config.constraints = {60000.0, 90000.0};
  for (int nparts : {2, 3}) {
    const gen::GenerateResult r = generate(ewf.graph, nparts, config);
    if (r.feasible()) {
      ewf_table.row(nparts, r.evaluations, accepted_moves(r),
                    r.search.designs.front().integration.ii_main,
                    r.search.designs.front().integration.system_delay_main);
    } else {
      ewf_table.row(nparts, r.evaluations, accepted_moves(r), "-", "-");
    }
  }
  ewf_table.print(std::cout);
  std::cout << "\n";
}

void BM_auto_partition(benchmark::State& state) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const int nparts = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate(ar.graph, nparts, exp1_config()));
  }
}
BENCHMARK(BM_auto_partition)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  chop::bench::ScopedMetricsDump metrics_dump("bench_auto_partition");
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
