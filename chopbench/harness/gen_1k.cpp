// gen_1k: multilevel partition generation at scale. generate_partitions
// maps a 1000-operation random layered DAG (depth 20, width 16) onto four
// oversized chips with a 4-start portfolio and budget 12, on one thread.
// Around the call, the designer opens the level-order cut in a session and
// walks seeded chains of single-operation moves (apply + research). The
// generated frontier must dominate the level-order baseline and be
// reproduced by cold sessions; every revision must match a cold session
// byte for byte.
#include <iostream>
#include <memory>
#include <sstream>

#include "baseline/partition_builders.hpp"
#include "common.hpp"
#include "dfg/generator.hpp"
#include "gen/generate.hpp"
#include "library/experiment_library.hpp"
#include "oracles.hpp"
#include "serve/protocol.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace chopbench {
namespace {

using namespace chop;

constexpr int kOperations = 1000;
constexpr int kDepth = 20;
constexpr int kChips = 4;
constexpr int kStarts = 4;
constexpr std::size_t kBudget = 12;
/// Generation runs on the calling thread. With a pool, the caller spins
/// (yield and retry) until the slowest start ends, so the process's CPU
/// time would count that wait; on one thread it counts only the work.
constexpr int kThreads = 1;
constexpr int kRevisions = 12;
/// Designer chains before each generate call.
constexpr int kChainsBefore = 3;
/// The generation instance is pinned: the 1k workload of bench_generate
/// (graph seed 7001, generation seed 1). Generation work differs by tens
/// of percent between instances, so the run seed only drives the
/// designer's revision chain.
constexpr std::uint64_t kGraphSeed = 7001;
constexpr std::uint64_t kGenerationSeed = 1;

/// Big enough that 250-operation partitions stay feasible (the paper's
/// MOSIS dies hold about a hundred operations).
chip::ChipPackage mega_package() {
  chip::ChipPackage pkg;
  pkg.name = "MEGA-1000";
  pkg.width_mil = 100000.0;
  pkg.height_mil = 100000.0;
  pkg.pin_count = 1000;
  pkg.pad_delay = 25.0;
  pkg.io_pad_area = 297.60;
  pkg.validate();
  return pkg;
}

struct Setup {
  lib::ComponentLibrary library;
  dfg::BenchmarkGraph graph;
  std::vector<chip::ChipInstance> chips;
  core::ChopConfig config;
  double dag_ms = 0.0;
};

std::unique_ptr<Setup> make_setup() {
  auto s = std::make_unique<Setup>();
  s->library = lib::dac91_experiment_library();
  const Clock::time_point dag = Clock::now();
  Rng rng(kGraphSeed);
  dfg::RandomDagSpec spec;
  spec.operations = kOperations;
  spec.depth = kDepth;
  spec.width = 16;
  spec.extra_inputs = 8;
  s->graph = dfg::random_dag(rng, spec);
  s->dag_ms = ms_since(dag);
  for (int i = 0; i < kChips; ++i) {
    s->chips.push_back({"c" + std::to_string(i), mega_package()});
  }
  s->config.style.clocking = bad::ClockingStyle::SingleCycle;
  s->config.clocks = {300.0, 10, 1};
  s->config.constraints = {1.0e9, 2.0e9};
  return s;
}

/// The scoring search the generator uses, for sessions on its cuts.
core::SearchOptions cut_search_options() {
  core::SearchOptions o;
  o.heuristic = core::Heuristic::Iterative;
  return o;
}

using Cut = std::vector<std::vector<dfg::NodeId>>;

core::ChopSession make_session(const Setup& s, const Cut& cut) {
  core::Partitioning pt(s.graph.graph, s.chips);
  for (std::size_t p = 0; p < cut.size(); ++p) {
    pt.add_partition("P" + std::to_string(p + 1), cut[p], static_cast<int>(p));
  }
  return core::ChopSession(s.library, std::move(pt), s.config);
}

Cut cut_of(const core::Partitioning& pt) {
  Cut cut;
  for (const core::Partition& p : pt.partitions()) cut.push_back(p.members);
  return cut;
}

/// Full-content serialization of a generation result (the determinism
/// check between iterations).
std::string digest(const gen::GenerateResult& r) {
  std::ostringstream out;
  out << std::hexfloat << r.starts_run << '/' << r.starts_killed << '/'
      << r.evaluations << '/' << r.gated << '/' << r.levels << '\n';
  for (const gen::FrontierPoint& p : r.frontier) {
    out << p.ii << ' ' << p.delay << ' ' << p.area << ' ' << p.start << ' ';
    for (const std::size_t c : p.choice) out << c << ',';
    for (const auto& part : p.members) {
      for (const dfg::NodeId id : part) out << id << ',';
      out << '|';
    }
    out << '\n';
  }
  for (const std::string& line : r.log) out << line << '\n';
  return out.str();
}

/// A single-operation move to a neighbouring partition that keeps the
/// partitioning valid (checked on a copy).
core::EvalDelta pick_move(Rng& rng, const core::Partitioning& pt) {
  const auto& parts = pt.partitions();
  for (int attempt = 0; attempt < 256; ++attempt) {
    const std::size_t from = rng.bounded(parts.size());
    if (parts[from].members.size() < 2) continue;
    const int to = static_cast<int>(from) + (rng.bounded(2) ? 1 : -1);
    if (to < 0 || to >= static_cast<int>(parts.size())) continue;
    const dfg::NodeId op =
        parts[from].members[rng.bounded(parts[from].members.size())];
    core::Partitioning probe = pt;
    try {
      probe.move_operation(op, to);
      probe.validate();
    } catch (const Error&) {
      continue;
    }
    return core::EvalDelta::move_operation(op, to);
  }
  throw Error("no valid single-operation move found");
}

struct Revision {
  Cut cut;            ///< State after the move.
  std::string json;   ///< Warm research() result.
};

}  // namespace

void run_gen_1k(const RunOptions& options, Report& report) {
  std::vector<double> setup_s, dag_ms;
  std::unique_ptr<Setup> setup;
  const Clock::time_point setups_begin = Clock::now();
  for (int rep = 0; more_setups(rep, setups_begin); ++rep) {
    setup.reset();
    const Clock::time_point start = Clock::now();
    setup = make_setup();
    setup_s.push_back(ms_since(start) / 1e3);
    dag_ms.push_back(setup->dag_ms);
  }
  Setup& s = *setup;

  gen::GenerateOptions gen_options;
  gen_options.num_starts = kStarts;
  gen_options.budget = kBudget;
  gen_options.threads = kThreads;
  gen_options.seed = kGenerationSeed;

  Rng rng(options.seed);
  Requests generates, chains;
  Timed traced_gen;
  std::vector<double> best_ii, best_delay;
  std::vector<Revision> revisions;
  std::string first_digest;
  gen::GenerateResult first;
  obs::PhaseProfile profile;
  std::unique_ptr<RegistryDelta> traced_delta;
  double wall_ms = 0.0, traced_wall = 0.0, traced_gen_predict = 0.0;
  double traced_session_ms = 0.0;
  std::size_t requests = 0;
  const Clock::time_point begin = Clock::now();
  const auto at = [&](double fraction) {
    return begin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(options.seconds * fraction));
  };
  // The designer's cut: the level-order baseline, which needs no generate
  // call, so the designer's chains can run before the call as well as
  // after it.
  const Cut designer_cut = baseline::level_order_partition(
      s.graph.graph, s.graph.all_operations(), kChips);

  // An untraced run is one phase; a traced run spends its first half on an
  // untraced phase (the overhead baseline) and its second on a traced one.
  // In a phase the designer opens the cut in a fresh session and walks a
  // chain of moves on it, kChainsBefore times; then comes the generate
  // call (~18 s), then more chains to the phase's end. The CPU's speed
  // drifts by ±15% over seconds, so chains on both sides of the call
  // sample the whole phase. The peak resident set is read right after the
  // first call: up to there the work is fixed, while the chains after it
  // keep more revisions for the oracles the faster the program runs.
  double rss = 0.0;
  for (int phase = 0; phase < (options.trace ? 2 : 1); ++phase) {
    const bool traced = phase == 1;
    const Clock::time_point phase_end = at(options.trace && !traced ? 0.5 : 1.0);
    if (traced) traced_delta = std::make_unique<RegistryDelta>();

    std::size_t phase_chains = 0;
    double phase_ms = 0.0;
    const auto run_chain = [&] {
      const Clock::time_point open_start = Clock::now();
      core::ChopSession session = make_session(s, designer_cut);
      session.predict_partitions();
      (void)session.search(cut_search_options());
      phase_ms += ms_since(open_start);
      Timed chain;
      for (int r = 0; r < kRevisions; ++r) {
        const core::EvalDelta delta = pick_move(rng, session.partitioning());
        const Stopwatch move_watch;
        session.apply(delta);
        const core::SearchResult warm = session.research(cut_search_options());
        chain += move_watch.stop();
        revisions.push_back({cut_of(session.partitioning()),
                             serve::render_search_result(warm).dump()});
      }
      phase_ms += chain.wall_ms;
      if (!traced) chains.add(chain);
      ++phase_chains;
    };
    for (int i = 0; i < kChainsBefore; ++i) run_chain();

    // --- Generate, with its work counters.
    gen::GenerateOptions o = gen_options;
    o.profile = traced ? &profile : nullptr;
    RegistryDelta unit;
    const Stopwatch gen_watch;
    gen::GenerateResult result;
    std::string error;
    try {
      result = gen::generate_partitions(s.graph.graph, s.library, s.chips, {},
                                        s.config, o);
    } catch (const std::exception& e) {
      error = std::string("generate threw: ") + e.what();
    }
    const Timed gen_time = gen_watch.stop();
    unit.stop();
    std::cerr << "gen_1k: generate " << gen_time.wall_ms << " ms, cpu "
              << gen_time.cpu_ms << " ms, " << result.evaluations
              << " evaluations, " << result.frontier.size()
              << " frontier points\n";
    const auto counters = work_counters(unit);
    if (error.empty() && !result.feasible()) error = "generation found no feasible design";
    if (error.empty()) {
      const std::string d = digest(result);
      if (phase == 0) {
        first_digest = d;
        first = result;
        report.deterministic = counters;
      } else if (d != first_digest) {
        error = "generation result differs between phases of one run";
      } else {
        error = compare_counters(report.deterministic, counters);
      }
    }
    report.operation(error);
    if (!error.empty()) break;
    phase_ms += gen_time.wall_ms;
    if (phase == 0) rss = peak_rss_mb();

    do {
      run_chain();
    } while (Clock::now() < phase_end);
    std::cerr << "gen_1k: " << phase_chains << " designer chains\n";

    if (traced) {
      traced_gen = gen_time;
      traced_wall += phase_ms;
      traced_gen_predict += unit.histogram_sum("session.predict_ms");
      traced_session_ms += phase_ms - gen_time.wall_ms;
    } else {
      generates.add(gen_time);
      best_ii.push_back(static_cast<double>(result.frontier.front().ii));
      best_delay.push_back(static_cast<double>(result.frontier.front().delay));
      wall_ms += phase_ms;
      requests += 1 + kRevisions * phase_chains;
    }
  }
  if (traced_delta) traced_delta->stop();

  // --- Oracles (not timed).
  if (!first_digest.empty()) {
    // The level-order baseline, searched like the generator's candidates.
    core::ChopSession base = make_session(s, designer_cut);
    base.predict_partitions();
    report.operation(check_dominates_baseline(
        first.frontier, best_design(base.search(cut_search_options()))));

    std::vector<Cut> cuts;
    std::vector<std::vector<const gen::FrontierPoint*>> points;
    for (const gen::FrontierPoint& p : first.frontier) {
      std::size_t i = 0;
      while (i < cuts.size() && cuts[i] != p.members) ++i;
      if (i == cuts.size()) {
        cuts.push_back(p.members);
        points.emplace_back();
      }
      points[i].push_back(&p);
    }
    for (const std::string& e : run_checks(cuts.size(), [&](std::size_t i) {
           core::ChopSession cold = make_session(s, cuts[i]);
           cold.predict_partitions();
           const core::SearchResult r = cold.search(cut_search_options());
           for (const gen::FrontierPoint* p : points[i]) {
             const std::string e = check_point_reproduced(*p, r);
             if (!e.empty()) return e;
           }
           return std::string();
         })) {
      report.operation(e);
    }
  }
  for (const std::string& e : run_checks(revisions.size(), [&](std::size_t i) {
         core::ChopSession cold = make_session(s, revisions[i].cut);
         cold.predict_partitions();
         return check_same_bytes(
             revisions[i].json,
             serve::render_search_result(cold.search(cut_search_options())).dump());
       })) {
    report.operation(e);
  }

  report.metric("setup_s", fastest(setup_s), "s");
  report_requests(report, generates, chains,
                  static_cast<double>(requests), wall_ms / 1e3);
  report.metric("best_ii", mean(best_ii), "cycles");
  report.metric("best_delay", mean(best_delay), "cycles");
  report.metric("peak_rss_mb", rss, "MB");
  if (!options.trace || !traced_delta) return;

  // --- Ledger over the traced iterations. Coarsening and the starts run
  // on this thread; the starts' phases are counted up to the rest of the
  // generate wall. The designer session (open + revisions) is timed from
  // outside.
  const RegistryDelta& d = *traced_delta;
  report_layer_counters(report, d);
  const obs::PhaseProfileData data = profile.data();
  report_search_phases(report, data);
  using P = obs::SearchPhase;
  const double search_phases =
      phase_ms(data, P::kBoundTables) + phase_ms(data, P::kSeedProbes) +
      phase_ms(data, P::kLeafEval) + phase_ms(data, P::kMerge) +
      phase_ms(data, P::kFrontierSync);
  const double coarsen = phase_ms(data, P::kGenCoarsen);
  const double starts =
      phase_ms(data, P::kGenInitial) + phase_ms(data, P::kGenRefine);
  const double generate_wall = traced_wall - traced_session_ms;
  const double unattributed =
      traced_wall - traced_session_ms - coarsen -
      std::min(generate_wall - coarsen, starts);
  report.metric("wall_ms", traced_wall, "ms");
  report.metric("gen.other_ms", starts - traced_gen_predict - search_phases, "ms");
  report.metric("gen.levels", static_cast<double>(first.levels), "count");
  report.metric("core.session_ms", traced_session_ms, "ms");
  report.metric("dfg.random_dag_ms", median(dag_ms), "ms");
  {
    Rng kl_rng(kGenerationSeed);
    const Clock::time_point kl = Clock::now();
    (void)baseline::repaired_kl_partition(s.graph.graph, s.graph.all_operations(),
                                          kChips, kl_rng);
    report.metric("baseline.kl_seed_ms", ms_since(kl), "ms");
  }
  report.metric("unattributed_ms", unattributed, "ms");
  report.metric("unattributed_frac", ratio(unattributed, traced_wall), "ratio");
  // Only generate is profiled; its CPU time traced and untraced.
  report.metric("obs.trace_overhead_frac",
                ratio(traced_gen.cpu_ms, mean(generates.cpu_ms)) - 1.0, "ratio");
}

}  // namespace chopbench
