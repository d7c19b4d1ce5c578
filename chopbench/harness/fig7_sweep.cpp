// fig7_sweep: the Figure-7 keep-all design space of experiment 1 — the
// four Table-4 configurations (1 chip / 84 pins, 2 chips / 84 and 64
// pins, 3 chips / 84 pins), each on a fresh session: predict, then a
// branch-and-bound enumeration over the raw (unpruned) lists, without an
// evaluator cache, on one shared pool (three workers plus the calling
// thread). After each configuration the designer tightens the performance
// budget and re-asks in the default pruned mode (apply + research on the
// session, with its evaluator).
// Design sets are checked against a stored exhaustive walk.
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "core/eval/thread_pool.hpp"
#include "library/experiment_library.hpp"
#include "oracles.hpp"
#include "util/rng.hpp"

namespace chopbench {
namespace {

using namespace chop;

/// Search workers in the shared pool. The thread that calls search() runs
/// units too while it waits, so three workers keep four threads busy — one
/// per CPU of the reference machine.
constexpr int kThreads = 3;
constexpr int kBusyThreads = kThreads + 1;
/// The designer's revisions: the performance budget (30 us in experiment
/// 1) tightened step by step, each step re-asked on the warm session.
constexpr double kBudgetsNs[] = {27000.0, 24000.0, 21000.0, 18000.0, 15000.0};

struct Fig7Config {
  const char* name;
  int nparts;
  bool pins84;
};

constexpr Fig7Config kConfigs[] = {
    {"1x84", 1, true}, {"2x84", 2, true}, {"2x64", 2, false}, {"3x84", 3, true}};

/// The four experiment-1 projects (kConfigs order) and the shared pool.
struct Setup {
  std::vector<io::Project> projects;
  std::unique_ptr<core::ThreadPool> pool;
};

std::unique_ptr<Setup> make_setup() {
  auto setup = std::make_unique<Setup>();
  const lib::ComponentLibrary library = lib::dac91_experiment_library();
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  for (const Fig7Config& c : kConfigs) {
    setup->projects.push_back(ar_project(library, ar, 1, c.nparts, c.pins84));
  }
  setup->pool = std::make_unique<core::ThreadPool>(kThreads);
  return setup;
}

core::SearchOptions keep_all_options(core::ThreadPool* pool) {
  core::SearchOptions o;
  o.heuristic = core::Heuristic::Enumeration;
  o.prune = false;  // the raw lists: Figure 7's keep-all space
  o.threads = kThreads;
  o.pool = pool;
  return o;
}

/// The revision's re-ask: the paper's default pruned search over the
/// level-1-eligible lists, a small walk that runs on the calling thread.
core::SearchOptions pruned_options() {
  core::SearchOptions o;
  o.heuristic = core::Heuristic::Enumeration;
  return o;
}

std::size_t leaf_count(const core::PartitionPredictions& p) {
  std::size_t n = 1;
  for (const auto& list : p.raw) n *= list.size();
  return n;
}

using Reference = std::map<std::string, std::string>;

/// Sections "[<config> keep_all]" / "[<config> revised]" of design lines.
Reference read_reference(const std::string& path) {
  Reference ref;
  std::ifstream in(path);
  std::string line, section;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.front() == '[' && line.back() == ']') {
      section = line.substr(1, line.size() - 2);
      ref[section];
    } else {
      ref[section] += line + "\n";
    }
  }
  return ref;
}

std::string budget_section(const Fig7Config& c, double budget_ns) {
  return std::string(c.name) + " revised " +
         std::to_string(static_cast<long long>(budget_ns));
}

struct SweepTimes {
  double wall_ms = 0.0;      ///< Configs and revisions.
  Timed cold;                ///< Configs only: the sweep proper.
  Timed revise;              ///< The revision steps of every config.
  double session_ms = 0.0;   ///< ChopSession construction.
  double predict_ms = 0.0;   ///< The cold predict_partitions() calls.
  double search_ms = 0.0;    ///< The keep-all search() calls.
};

/// Phase profiles of a traced sweep: the keep-all searches run on the
/// pool, the revisions on the calling thread.
struct Profiles {
  obs::PhaseProfile keep_all;
  obs::PhaseProfile revisions;
};

/// One sweep in a seeded configuration order: each configuration cold,
/// then its chain of budget revisions.
SweepTimes run_sweep(Setup& s, Rng& rng, const Reference& ref,
                     Profiles* profiles, Report& report,
                     std::vector<double>& best_ii,
                     std::vector<double>& best_delay) {
  const auto expected = [&](const std::string& section) {
    const auto it = ref.find(section);
    return it == ref.end() ? std::string("<missing>") : it->second;
  };
  int order[] = {0, 1, 2, 3};
  for (int i = 3; i > 0; --i) {
    std::swap(order[i], order[rng.bounded(static_cast<std::uint64_t>(i) + 1)]);
  }
  SweepTimes t;
  for (const int index : order) {
    const Fig7Config& c = kConfigs[index];
    core::SearchOptions options = keep_all_options(s.pool.get());
    options.profile = profiles ? &profiles->keep_all : nullptr;
    const Stopwatch cold_watch;
    const Clock::time_point start = Clock::now();
    core::ChopSession session =
        s.projects[static_cast<std::size_t>(index)].make_session();
    const double session_ms = ms_since(start);
    const Clock::time_point predict_start = Clock::now();
    session.predict_partitions();
    const double predict_ms = ms_since(predict_start);
    // Keep-all leaves almost never repeat (the session cache's hit ratio
    // here is ~0), yet filling its 65536 entries tripled the 3-chip search
    // and made it swing between 5 and 25 s across runs on one machine. The
    // keep-all walk therefore integrates without a cache; the revisions
    // below use the session's evaluator.
    core::CandidateEvaluator no_cache(0);
    options.evaluator = &no_cache;
    const Clock::time_point search_start = Clock::now();
    const core::SearchResult cold = session.search(options);
    const double search_ms = ms_since(search_start);
    const Timed cold_time = cold_watch.stop();
    const double ms = cold_time.wall_ms;

    std::string error = check_design_set(
        design_set_text(cold), expected(std::string(c.name) + " keep_all"));
    if (error.empty()) {
      error = check_leaf_identity(cold.trials, cold.bound_skipped_leaves,
                                  leaf_count(session.predictions()));
    }
    report.operation(error.empty() ? error : std::string(c.name) + ": " + error);

    core::SearchOptions revise = pruned_options();
    revise.profile = profiles ? &profiles->revisions : nullptr;
    Timed rev;
    for (const double budget : kBudgetsNs) {
      core::DesignConstraints tight = session.config().constraints;
      tight.performance_ns = budget;
      const Stopwatch revise_watch;
      session.apply(core::EvalDelta::set_constraints(tight));
      const core::SearchResult revised = session.research(revise);
      rev += revise_watch.stop();
      error = check_design_set(design_set_text(revised),
                               expected(budget_section(c, budget)));
      report.operation(error.empty() ? error
                                     : budget_section(c, budget) + ": " + error);
    }

    std::cerr << "fig7_sweep " << c.name << ": " << ms << " ms, cpu "
              << cold_time.cpu_ms << " ms (search " << search_ms << " ms, "
              << cold.trials << " leaves), revisions " << rev.wall_ms << " ms\n";
    const BestDesign best = best_design(cold);
    if (best.feasible) {
      best_ii.push_back(static_cast<double>(best.ii));
      best_delay.push_back(static_cast<double>(best.delay));
    }
    t.cold += cold_time;
    t.revise += rev;
    t.wall_ms += ms + rev.wall_ms;
    t.session_ms += session_ms;
    t.predict_ms += predict_ms;
    t.search_ms += search_ms;
  }
  return t;
}

}  // namespace

void run_fig7_sweep(const RunOptions& options, Report& report) {
  const Reference ref = read_reference(options.reference_dir + "/fig7_designs.txt");
  if (ref.empty()) {
    report.operation("no Figure-7 reference at " + options.reference_dir);
  }

  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  const Clock::time_point setups_begin = Clock::now();
  for (int rep = 0; more_setups(rep, setups_begin); ++rep) {
    setup.reset();
    const Clock::time_point start = Clock::now();
    setup = make_setup();
    setup_s.push_back(ms_since(start) / 1e3);
  }

  Rng rng(options.seed);
  Requests sweeps, revision_passes;
  std::vector<double> best_ii, best_delay, ignored;
  std::vector<double> untraced_ms, traced_ms;
  double wall_ms = 0.0;
  std::size_t requests = 0;
  Profiles profiles;
  std::unique_ptr<RegistryDelta> traced_delta;
  SweepTimes traced_totals;
  // Traced runs spend the first half on plain sweeps (the overhead
  // baseline) and the second on profiled ones; each half runs at least
  // one sweep.
  const Clock::time_point begin = Clock::now();
  const auto at = [&](double fraction) {
    return begin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(options.seconds * fraction));
  };
  const Clock::time_point half = at(options.trace ? 0.5 : 1.0);
  const Clock::time_point stop = at(1.0);
  for (bool first = true;; first = false) {
    const bool traced = options.trace && !untraced_ms.empty() && Clock::now() >= half;
    if (Clock::now() >= stop && !untraced_ms.empty() &&
        (!options.trace || !traced_ms.empty())) {
      break;
    }
    if (traced && !traced_delta) traced_delta = std::make_unique<RegistryDelta>();
    RegistryDelta unit;
    const SweepTimes t =
        run_sweep(*setup, rng, ref, traced ? &profiles : nullptr, report,
                  traced ? ignored : best_ii, traced ? ignored : best_delay);
    unit.stop();
    const auto counters = work_counters(unit);
    if (first) {
      report.deterministic = counters;
    } else {
      report.operation(compare_counters(report.deterministic, counters));
    }
    if (traced) {
      traced_ms.push_back(t.wall_ms);
      traced_totals.wall_ms += t.wall_ms;
      traced_totals.session_ms += t.session_ms;
      traced_totals.predict_ms += t.predict_ms;
      traced_totals.search_ms += t.search_ms;
      traced_totals.revise.wall_ms += t.revise.wall_ms;
    } else {
      untraced_ms.push_back(t.wall_ms);
      sweeps.add(t.cold);
      revision_passes.add(t.revise);
      wall_ms += t.wall_ms;
      requests += std::size(kConfigs) * (1 + std::size(kBudgetsNs));
    }
  }
  if (traced_delta) traced_delta->stop();
  const double rss = peak_rss_mb();

  report.metric("setup_s", fastest(setup_s), "s");
  report_requests(report, sweeps, revision_passes,
                  static_cast<double>(requests), wall_ms / 1e3);
  report.metric("best_ii", mean(best_ii), "cycles");
  report.metric("best_delay", mean(best_delay), "cycles");
  report.metric("peak_rss_mb", rss, "MB");
  if (!options.trace) return;

  // --- Ledger over the traced sweeps. Construction, the cold predicts and
  // the revisions run on this thread. The keep-all searches' phases are
  // thread time on the pool, counted as thread time / kBusyThreads and
  // capped at the searches' wall, so pool capacity no phase accounts for
  // stays unattributed.
  const RegistryDelta& d = *traced_delta;
  report_layer_counters(report, d);
  const obs::PhaseProfileData keep_all = profiles.keep_all.data();
  const obs::PhaseProfileData revisions = profiles.revisions.data();
  obs::PhaseProfileData both = keep_all;
  both += revisions;
  report_search_phases(report, both);
  const auto phases = [](const obs::PhaseProfileData& data) {
    using P = obs::SearchPhase;
    return phase_ms(data, P::kBoundTables) + phase_ms(data, P::kSeedProbes) +
           phase_ms(data, P::kLeafEval) + phase_ms(data, P::kMerge) +
           phase_ms(data, P::kFrontierSync) + phase_ms(data, P::kPredict);
  };
  const double wall = traced_totals.wall_ms;
  const double unattributed =
      wall - traced_totals.session_ms - traced_totals.predict_ms -
      std::min(traced_totals.search_ms, phases(keep_all) / kBusyThreads) -
      std::min(traced_totals.revise.wall_ms, phases(revisions));
  report.metric("wall_ms", wall, "ms");
  report.metric("core.session_ms", traced_totals.session_ms, "ms");
  report.metric("search.ms", traced_totals.search_ms + traced_totals.revise.wall_ms,
                "ms");
  report.metric("unattributed_ms", unattributed, "ms");
  report.metric("unattributed_frac", ratio(unattributed, wall), "ratio");
  report.metric("obs.trace_overhead_frac",
                ratio(mean(traced_ms), mean(untraced_ms)) - 1.0, "ratio");
}

int write_fig7_reference(const std::string& path) {
  std::unique_ptr<Setup> s = make_setup();
  std::ostringstream out;
  out << "# Figure-7 design sets of experiment 1 from the exhaustive walk\n"
         "# (branch-and-bound off, no evaluator cache). Written by\n"
         "# chopbench_harness --make-reference: per configuration the\n"
         "# keep-all search, then the pruned-list search at each tightened\n"
         "# performance budget (ns) of the revision chain.\n";
  const auto exhaustive = [&](std::size_t index, double budget, bool keep_all) {
    const Fig7Config& c = kConfigs[index];
    io::Project project = s->projects[index];
    project.config.constraints.performance_ns = budget;
    core::ChopSession session = project.make_session();
    session.predict_partitions();
    core::CandidateEvaluator no_cache(0);
    core::SearchOptions o =
        keep_all ? keep_all_options(s->pool.get()) : pruned_options();
    o.bound_pruning = false;
    o.evaluator = &no_cache;
    const core::SearchResult r = session.search(o);
    if (keep_all && r.trials != leaf_count(session.predictions())) {
      throw std::runtime_error(std::string("exhaustive walk of ") + c.name +
                               " missed leaves");
    }
    return design_set_text(r);
  };
  for (std::size_t i = 0; i < std::size(kConfigs); ++i) {
    out << "[" << kConfigs[i].name << " keep_all]\n"
        << exhaustive(i, 30000.0, true);
    for (const double budget : kBudgetsNs) {
      out << "[" << budget_section(kConfigs[i], budget) << "]\n"
          << exhaustive(i, budget, false);
    }
  }
  std::ofstream file(path);
  file << out.str();
  return file.good() ? 0 : 1;
}

}  // namespace chopbench
