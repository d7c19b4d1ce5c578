#include "common.hpp"

#include <sys/resource.h>

#include <fstream>
#include <string>
#include <utility>

#include "chip/mosis_packages.hpp"

namespace chopbench {

namespace obs = chop::obs;
using namespace chop;

io::Project ar_project(const lib::ComponentLibrary& library,
                       const dfg::BenchmarkGraph& ar, int experiment,
                       int nparts, bool pins84) {
  io::Project project;
  project.graph = ar.graph;
  project.library = library;
  const chip::ChipPackage pkg =
      pins84 ? chip::mosis_package_84() : chip::mosis_package_64();
  for (int i = 0; i < nparts; ++i) {
    project.chips.push_back({"chip" + std::to_string(i), pkg});
  }
  const auto cuts =
      nparts == 1 ? std::vector<std::vector<dfg::NodeId>>{ar.all_operations()}
                  : (nparts == 2 ? dfg::ar_two_way_cut(ar)
                                 : dfg::ar_three_way_cut(ar));
  for (int p = 0; p < nparts; ++p) {
    project.partitions.push_back(
        {"P" + std::to_string(p + 1), cuts[static_cast<std::size_t>(p)], p});
  }
  if (experiment == 1) {
    project.config.style.clocking = bad::ClockingStyle::SingleCycle;
    project.config.clocks = {300.0, 10, 1};
    project.config.constraints = {30000.0, 30000.0};
  } else {
    project.config.style.clocking = bad::ClockingStyle::MultiCycle;
    project.config.clocks = {300.0, 1, 1};
    project.config.constraints = {20000.0, 20000.0};
  }
  return project;
}

std::string compare_counters(const std::map<std::string, std::uint64_t>& want,
                             const std::map<std::string, std::uint64_t>& got) {
  for (const auto& [name, value] : want) {
    const auto it = got.find(name);
    const std::uint64_t other = it == got.end() ? 0 : it->second;
    if (other != value) {
      return "work counter " + name + " is " + std::to_string(other) +
             ", an earlier unit of the same seed counted " +
             std::to_string(value);
    }
  }
  return {};
}

double peak_rss_mb() {
  // VmHWM is the peak of this process image. ru_maxrss is the fallback
  // only: Linux carries it across execve, so a harness started from a
  // larger process (run.py's Python) would report its parent's size.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void report_requests(Report& report, const Requests& submits,
                     const Requests& revisions, double completed,
                     double wall_s) {
  report.metric("submit_cpu_ms.mean", mean(submits.cpu_ms), "ms");
  report.metric("submit_cpu_ms.p99", quantile(submits.cpu_ms, 0.99), "ms");
  report.metric("revise_cpu_ms.mean", mean(revisions.cpu_ms), "ms");
  report.metric("revise_cpu_ms.p99", quantile(revisions.cpu_ms, 0.99), "ms");
  report.metric("wall.submit_ms.mean", mean(submits.wall_ms), "ms");
  report.metric("wall.submit_ms.p99", quantile(submits.wall_ms, 0.99), "ms");
  report.metric("wall.revise_ms.mean", mean(revisions.wall_ms), "ms");
  report.metric("wall.revise_ms.p99", quantile(revisions.wall_ms, 0.99), "ms");
  report.metric("wall.jobs_per_s", ratio(completed, wall_s), "jobs/s");
}

void report_layer_counters(Report& report, const RegistryDelta& d) {
  const auto count = [&](const std::string& name) {
    report.metric(name, d.counter(name), "count");
  };
  for (const char* name :
       {"bad.predictions_raw", "bad.predictions_eligible", "bad.schedules",
        "bad.module_sets", "eval.delta_predict_reused",
        "eval.delta_predict_recomputed", "search.trials",
        "search.pruned_subtrees", "search.bound_skipped_leaves",
        "search.probe_integrations", "integration.attempts",
        "eval.cache_hits", "eval.cache_misses", "eval.cache_evictions",
        "eval.delta_core_hits", "eval.delta_bound_cols_reused",
        "eval.delta_bound_cols_rebuilt", "search.units_stolen",
        "search.frontier_broadcasts", "search.frontier_snapshot_hits",
        "gen.evaluations", "gen.gated", "gen.moves_accepted",
        "gen.starts_killed"}) {
    count(name);
  }
  report.metric("bad.predict_ms", d.histogram_sum("session.predict_ms"), "ms");
  report.metric("bad.predict_calls", d.histogram_count("session.predict_ms"),
                "count");
  report.metric("bad.eligible_ratio",
                ratio(d.counter("bad.predictions_eligible"),
                      d.counter("bad.predictions_raw")),
                "ratio");
  report.metric("search.feasible_ratio",
                ratio(d.counter("search.feasible"), d.counter("search.trials")),
                "ratio");
  const double hits = d.counter("eval.cache_hits");
  report.metric("eval.cache_hit_ratio",
                ratio(hits, hits + d.counter("eval.cache_misses")), "ratio");
  report.metric("gen.accept_ratio",
                ratio(d.counter("gen.moves_accepted"),
                      d.counter("gen.evaluations")),
                "ratio");
}

double phase_ms(const obs::PhaseProfileData& profile, obs::SearchPhase phase) {
  return static_cast<double>(profile.ns[static_cast<std::size_t>(phase)]) /
         1e6;
}

void report_search_phases(Report& report, const obs::PhaseProfileData& profile) {
  using P = obs::SearchPhase;
  const std::pair<const char*, P> phases[] = {
      {"bound_tables", P::kBoundTables}, {"seed_probes", P::kSeedProbes},
      {"leaf_eval", P::kLeafEval},       {"verdict", P::kVerdict},
      {"merge", P::kMerge},              {"frontier_sync", P::kFrontierSync},
      {"cache_wait", P::kCacheWait},     {"render", P::kRender}};
  for (const auto& [name, phase] : phases) {
    report.metric(std::string("search.phase.") + name + "_ms",
                  phase_ms(profile, phase), "ms");
  }
  const auto leaf = static_cast<std::size_t>(P::kLeafEval);
  report.metric("search.leaf_eval_us",
                ratio(static_cast<double>(profile.ns[leaf]) / 1e3,
                      static_cast<double>(profile.calls[leaf])),
                "us");
  report.metric("gen.coarsen_ms", phase_ms(profile, P::kGenCoarsen), "ms");
  report.metric("gen.initial_ms", phase_ms(profile, P::kGenInitial), "ms");
  report.metric("gen.refine_ms", phase_ms(profile, P::kGenRefine), "ms");
}

void fill_missing_layer_metrics(Report& report) {
  static const std::pair<const char*, const char*> kLayer[] = {
      {"wall_ms", "ms"},
      {"unattributed_ms", "ms"},
      {"unattributed_frac", "ratio"},
      {"obs.trace_overhead_frac", "ratio"},
      {"io.parse_ms", "ms"},
      {"serve.call_ms", "ms"},
      {"serve.queue_wait_ms.sum", "ms"},
      {"serve.queue_wait_ms.p50", "ms"},
      {"serve.queue_wait_ms.p99", "ms"},
      {"serve.run_ms.p50", "ms"},
      {"serve.evaluator_reuse_ratio", "ratio"},
      {"serve.rejected", "count"},
      {"serve.jobs", "count"},
      {"core.session_ms", "ms"},
      {"search.ms", "ms"},
      {"baseline.kl_seed_ms", "ms"},
      {"dfg.random_dag_ms", "ms"},
      {"gen.levels", "count"},
      {"gen.other_ms", "ms"},
  };
  // Names and units of the counter and phase metrics come from the same
  // functions the workloads call.
  Report all;
  RegistryDelta none;
  none.stop();
  report_layer_counters(all, none);
  report_search_phases(all, obs::PhaseProfileData{});
  for (const auto& [name, unit] : kLayer) all.metric(name, 0.0, unit);
  for (const auto& [name, m] : all.metrics) {
    if (report.metrics.count(name) == 0) report.metric(name, 0.0, m.unit);
  }
}

}  // namespace chopbench
