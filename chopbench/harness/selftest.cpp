// Self-test of the output oracles: each oracle gets a genuine result,
// which must pass, and a corrupted copy, which must count as a failed
// operation. A benchmark whose oracles cannot see a wrong answer would
// report failed = 0 for any program.
#include <fstream>
#include <iostream>

#include "baseline/partition_builders.hpp"
#include "chip/mosis_packages.hpp"
#include "common.hpp"
#include "dfg/generator.hpp"
#include "library/experiment_library.hpp"
#include "oracles.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace chopbench {
namespace {

using namespace chop;

/// Records one oracle's verdicts on a genuine and a corrupted result.
struct Case {
  int misses = 0;
  Report report;

  void expect(const std::string& oracle, const std::string& genuine,
              const std::string& corrupted) {
    const std::uint64_t before = report.failed;
    report.operation(genuine);
    report.operation(corrupted);
    const bool ok = genuine.empty() && !corrupted.empty() &&
                    report.failed == before + 1;
    std::cerr << "selftest " << oracle << ": "
              << (ok ? "ok" : "ORACLE BROKEN") << " (genuine: "
              << (genuine.empty() ? "pass" : genuine) << "; corrupted: "
              << (corrupted.empty() ? "pass" : corrupted) << ")\n";
    if (!ok) ++misses;
  }
};

}  // namespace

int run_selftest(const RunOptions& options) {
  Case c;
  const lib::ComponentLibrary library = lib::dac91_experiment_library();
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();

  // Served bytes vs a cold session (designer_serve, gen_1k revisions).
  const io::Project two = ar_project(library, ar, 1, 2, true);
  core::ChopSession session = two.make_session();
  const core::PredictionStats stats = session.predict_partitions();
  const core::SearchResult result = session.search(core::SearchOptions{});
  const std::string bytes = serve::render_search_result(result).dump();
  std::string corrupted_bytes = bytes;
  corrupted_bytes[corrupted_bytes.size() / 2] ^= 1;
  c.expect("same_bytes", check_same_bytes(bytes, bytes),
           check_same_bytes(corrupted_bytes, bytes));

  // Prediction counts vs Table 3.
  core::PredictionStats wrong = stats;
  wrong.feasible += 1;
  c.expect("table_counts", check_table_counts(1, 2, stats),
           check_table_counts(1, 2, wrong));

  // Keep-all design set vs the stored exhaustive reference (1 chip).
  {
    const io::Project project = ar_project(library, ar, 1, 1, true);
    core::ChopSession one = project.make_session();
    one.predict_partitions();
    core::SearchOptions o;
    o.prune = false;
    const core::SearchResult r = one.search(o);
    std::ifstream in(options.reference_dir + "/fig7_designs.txt");
    std::string line, reference;
    bool inside = false;
    while (std::getline(in, line)) {
      if (!line.empty() && line.front() == '[') {
        inside = line == "[1x84 keep_all]";
      } else if (inside && !line.empty()) {
        reference += line + "\n";
      }
    }
    core::SearchResult bad = r;
    if (!bad.designs.empty()) bad.designs.front().choice.front() += 1;
    c.expect("design_set", check_design_set(design_set_text(r), reference),
             check_design_set(design_set_text(bad), reference));
    std::size_t leaves = 1;
    for (const auto& list : one.predictions().raw) leaves *= list.size();
    c.expect("leaf_identity",
             check_leaf_identity(r.trials, r.bound_skipped_leaves, leaves),
             check_leaf_identity(r.trials - 1, r.bound_skipped_leaves, leaves));
  }

  // Generation oracles on a small instance.
  {
    Rng rng(11);
    dfg::RandomDagSpec spec;
    spec.operations = 60;
    spec.depth = 6;
    const dfg::BenchmarkGraph g = dfg::random_dag(rng, spec);
    chip::ChipPackage pkg = chip::mosis_package_84();
    pkg.width_mil = pkg.height_mil = 100000.0;
    pkg.pin_count = 1000;
    const std::vector<chip::ChipInstance> chips = {{"c0", pkg}, {"c1", pkg}};
    core::ChopConfig config;
    config.style.clocking = bad::ClockingStyle::SingleCycle;
    config.clocks = {300.0, 10, 1};
    config.constraints = {1.0e9, 2.0e9};
    gen::GenerateOptions o;
    o.num_starts = 2;
    o.budget = 6;
    const gen::GenerateResult r =
        gen::generate_partitions(g.graph, library, chips, {}, config, o);

    const auto session_on = [&](const std::vector<std::vector<dfg::NodeId>>& cut) {
      core::Partitioning pt(g.graph, chips);
      for (std::size_t p = 0; p < cut.size(); ++p) {
        pt.add_partition("P" + std::to_string(p), cut[p], static_cast<int>(p));
      }
      return core::ChopSession(library, std::move(pt), config);
    };
    core::SearchOptions iterative;
    iterative.heuristic = core::Heuristic::Iterative;
    core::ChopSession base = session_on(
        baseline::level_order_partition(g.graph, g.all_operations(), 2));
    base.predict_partitions();
    const BestDesign baseline = best_design(base.search(iterative));
    std::vector<gen::FrontierPoint> worse = r.frontier;
    for (gen::FrontierPoint& p : worse) {
      p.ii = baseline.ii + 1;
      p.delay = baseline.delay + 1;
    }
    c.expect("dominates_baseline", check_dominates_baseline(r.frontier, baseline),
             check_dominates_baseline(worse, baseline));

    if (r.frontier.empty()) {
      c.expect("point_reproduced", "generation found no frontier", "");
    } else {
      core::ChopSession cold = session_on(r.frontier.front().members);
      cold.predict_partitions();
      const core::SearchResult cr = cold.search(iterative);
      gen::FrontierPoint moved = r.frontier.front();
      moved.delay += 1;
      c.expect("point_reproduced", check_point_reproduced(r.frontier.front(), cr),
               check_point_reproduced(moved, cr));
    }
  }

  // Deterministic work counters between two units.
  const std::map<std::string, std::uint64_t> counters = {{"search.trials", 10}};
  c.expect("work_counters", compare_counters(counters, counters),
           compare_counters(counters, {{"search.trials", 11}}));

  std::cerr << "selftest: " << c.report.attempted << " verdicts, "
            << c.report.failed << " failed operations, " << c.misses
            << " broken oracles\n";
  return c.misses;
}

}  // namespace chopbench
