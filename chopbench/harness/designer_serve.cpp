// designer_serve: the paper's §2.7 designer loop against a live
// ChopServer. A closed-loop client submits a seeded base project of the
// AR lattice filter (experiment 1 or 2, 1-3 partitions, 64- or 84-pin
// package) as .chop text, waits for the answer, then walks a seeded chain
// of revisions (move_op, replace_package, set_clock, set_constraints),
// waiting for each. One job is in flight at a time, so the process's CPU
// time while a job runs is that job's. Every served result is checked
// against a cold ChopSession of the same project after the clock stops.
#include <memory>
#include <unordered_map>

#include "common.hpp"
#include "io/spec_format.hpp"
#include "io/spec_writer.hpp"
#include "library/experiment_library.hpp"
#include "oracles.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace chopbench {
namespace {

using namespace chop;

constexpr int kRevisionsPerChain = 4;
/// Seeds the warm-up designer, which is the same in every run.
constexpr std::uint64_t kWarmupSeed = 0x5eedc4a1full;

struct BaseConfig {
  int experiment;
  int nparts;
  bool pins84;
};

const std::vector<BaseConfig>& base_configs() {
  static const std::vector<BaseConfig> configs = [] {
    std::vector<BaseConfig> out;
    for (int experiment : {1, 2}) {
      for (int nparts : {1, 2, 3}) {
        for (bool pins84 : {false, true}) out.push_back({experiment, nparts, pins84});
      }
    }
    return out;
  }();
  return configs;
}

struct Setup {
  std::vector<std::string> specs;  ///< One .chop document per base config.
  std::unique_ptr<serve::ChopServer> server;
};

Setup make_setup() {
  Setup setup;
  const lib::ComponentLibrary library = lib::dac91_experiment_library();
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  for (const BaseConfig& c : base_configs()) {
    setup.specs.push_back(io::write_project_string(
        ar_project(library, ar, c.experiment, c.nparts, c.pins84)));
  }
  serve::ServerOptions options;
  options.workers = 1;  // one client, one job in flight
  options.search_threads = 1;  // jobs search single-threaded
  options.queue_capacity = 64;
  setup.server = std::make_unique<serve::ChopServer>(options);
  return setup;
}

serve::JobOptions job_options() {
  serve::JobOptions options;
  options.heuristic = core::Heuristic::Enumeration;
  options.threads = 1;
  options.deadline_ms = 30000;
  return options;
}

/// The cold reference's search options: what the server runs per job.
core::SearchOptions cold_search_options() {
  core::SearchOptions options;
  options.heuristic = core::Heuristic::Enumeration;
  return options;
}

/// A designer: walks the twelve base configurations in a seeded shuffled
/// order, each once per round, and stops only at the end of a round. Every
/// run therefore submits each configuration equally often; the seed moves
/// the order and the revision chains.
struct Client {
  explicit Client(std::uint64_t seed) : rng(seed) {}

  int next_config() {
    if (next == order.size()) {
      order.clear();
      for (std::size_t c = 0; c < base_configs().size(); ++c) {
        order.push_back(static_cast<int>(c));
      }
      for (std::size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng.bounded(i + 1)]);
      }
      next = 0;
    }
    return order[next++];
  }

  bool round_done() const { return next == order.size(); }

  Rng rng;
  std::vector<int> order;
  std::size_t next = 0;
};

struct JobRecord {
  bool base = false;
  bool warmup = false;
  bool traced = false;
  int config = 0;
  std::string state;  ///< .chop text of the project it ran on.
  Timed latency;  ///< Client side, parse to terminal.
  double parse_ms = 0.0;
  double call_ms = 0.0;
  std::string error;  ///< Submission-level failure.
  serve::JobView view;
};

serve::DeltaSpec pick_delta(Rng& rng, const io::Project& p, int experiment) {
  for (int attempt = 0; attempt < 32; ++attempt) {
    serve::DeltaSpec d;
    switch (rng.bounded(4)) {
      case 0: {
        const std::size_t n = p.partitions.size();
        if (n < 2) continue;
        const std::size_t from = rng.bounded(n);
        const auto& members = p.partitions[from].members;
        if (members.size() < 2) continue;
        std::size_t to = rng.bounded(n - 1);
        if (to >= from) ++to;
        d.kind = serve::DeltaSpec::Kind::MoveOp;
        d.op_name = p.graph.node(members[rng.bounded(members.size())]).name;
        d.partition = p.partitions[to].name;
        try {
          (void)serve::apply_delta(p, d).make_session();
        } catch (const Error&) {
          continue;  // would leave an invalid partitioning; draw again
        }
        return d;
      }
      case 1: {
        const auto& c = p.chips[rng.bounded(p.chips.size())];
        d.kind = serve::DeltaSpec::Kind::ReplacePackage;
        d.chip = c.name;
        d.package = c.package.pin_count == 64 ? "mosis84" : "mosis64";
        return d;
      }
      case 2: {
        static constexpr double kClocks[] = {270.0, 300.0, 330.0};
        d.kind = serve::DeltaSpec::Kind::SetClock;
        d.main_clock_ns = kClocks[rng.bounded(3)];
        d.datapath_multiplier = experiment == 1 ? 10 : 1;
        d.transfer_multiplier = 1;
        return d;
      }
      default: {
        static constexpr double kFactors[] = {0.9, 0.95, 1.05, 1.1};
        const double f = kFactors[rng.bounded(4)];
        d.kind = serve::DeltaSpec::Kind::SetConstraints;
        d.performance_ns = p.config.constraints.performance_ns * f;
        d.delay_ns = p.config.constraints.delay_ns * f;
        return d;
      }
    }
  }
  serve::DeltaSpec keep;  // re-states the budget: a no-op revision
  keep.kind = serve::DeltaSpec::Kind::SetConstraints;
  return keep;
}

/// One designer chain: a base submit, then kRevisionsPerChain revisions,
/// each waited for. Appends the jobs.
void run_chain(serve::ChopServer& server, const std::vector<std::string>& specs,
               Client& client, bool traced, bool warmup,
               std::vector<JobRecord>& jobs) {
  Rng& rng = client.rng;
  const int c = client.next_config();
  const int experiment = base_configs()[static_cast<std::size_t>(c)].experiment;
  bool ok = true;

  JobRecord base;
  base.base = true;
  base.warmup = warmup;
  base.traced = traced;
  base.config = c;
  {
    const Stopwatch latency;
    const Clock::time_point start = Clock::now();
    io::Project project = io::parse_project_string(specs[static_cast<std::size_t>(c)]);
    base.parse_ms = ms_since(start);
    const Clock::time_point call = Clock::now();
    const serve::SubmitOutcome out = server.submit(std::move(project), job_options());
    base.call_ms = ms_since(call);
    if (out.status == serve::SubmitStatus::Accepted) {
      base.view = server.view(out.id, /*wait_terminal=*/true);
    } else {
      base.error = "base submit rejected";
    }
    base.latency = latency.stop();
  }
  base.state = specs[static_cast<std::size_t>(c)];
  ok = base.error.empty() && base.view.state == serve::JobState::Done;
  std::string prev = base.view.id;
  io::Project current = io::parse_project_string(base.state);
  jobs.push_back(std::move(base));

  for (int r = 0; ok && r < kRevisionsPerChain; ++r) {
    const serve::DeltaSpec delta = pick_delta(rng, current, experiment);
    io::Project next = serve::apply_delta(current, delta);
    JobRecord rec;
    rec.warmup = warmup;
    rec.traced = traced;
    rec.config = c;
    rec.state = io::write_project_string(next);
    const Stopwatch latency;
    const Clock::time_point start = Clock::now();
    try {
      const serve::ReviseOutcome out = server.revise(prev, delta);
      rec.call_ms = ms_since(start);
      if (out.status == serve::ReviseStatus::Accepted) {
        rec.view = server.view(out.submit.id, /*wait_terminal=*/true);
      } else {
        rec.error = "revise rejected";
      }
    } catch (const std::exception& e) {
      rec.error = std::string("revise threw: ") + e.what();
    }
    rec.latency = latency.stop();
    ok = rec.error.empty() && rec.view.state == serve::JobState::Done;
    prev = rec.view.id;
    current = std::move(next);
    jobs.push_back(std::move(rec));
  }
}

/// Closed loop: the client runs chains until `stop`, then to the end of
/// its round.
void run_client(serve::ChopServer& server, const std::vector<std::string>& specs,
                Client& designer, Clock::time_point stop, bool traced,
                std::vector<JobRecord>& jobs) {
  do {
    run_chain(server, specs, designer, traced, false, jobs);
  } while (Clock::now() < stop || !designer.round_done());
}

struct ColdAnswer {
  std::string json;
  core::PredictionStats stats;
  std::string error;
};

/// Cold references for every distinct project state.
std::unordered_map<std::string, ColdAnswer> cold_answers(const std::vector<JobRecord>& jobs) {
  std::unordered_map<std::string, ColdAnswer> answers;
  std::vector<const std::string*> states;
  for (const JobRecord& j : jobs) {
    if (answers.emplace(j.state, ColdAnswer{}).second) states.push_back(&j.state);
  }
  std::vector<ColdAnswer> results(states.size());
  const std::vector<std::string> errors = run_checks(states.size(), [&](std::size_t i) {
    // The session references the project's graph and library.
    const io::Project project = io::parse_project_string(*states[i]);
    core::ChopSession session = project.make_session();
    results[i].stats = session.predict_partitions();
    results[i].json =
        serve::render_search_result(session.search(cold_search_options())).dump();
    return std::string();
  });
  for (std::size_t i = 0; i < states.size(); ++i) {
    results[i].error = errors[i];
    answers[*states[i]] = std::move(results[i]);
  }
  return answers;
}

std::string check_job(const JobRecord& j, const ColdAnswer& cold) {
  if (!j.error.empty()) return j.error;
  if (j.view.state != serve::JobState::Done) {
    return "job " + j.view.id + " ended " + serve::to_string(j.view.state) +
           (j.view.error.empty() ? "" : ": " + j.view.error);
  }
  if (!cold.error.empty()) return "cold reference failed: " + cold.error;
  std::string e = check_same_bytes(j.view.result_json, cold.json);
  if (!e.empty()) return "job " + j.view.id + ": " + e;
  if (j.view.prediction_stats.total != cold.stats.total ||
      j.view.prediction_stats.feasible != cold.stats.feasible) {
    return "job " + j.view.id + ": prediction counts differ from the cold session";
  }
  if (j.base) {
    const BaseConfig& c = base_configs()[static_cast<std::size_t>(j.config)];
    e = check_table_counts(c.experiment, c.nparts, j.view.prediction_stats);
    if (!e.empty()) return "job " + j.view.id + ": " + e;
  }
  return {};
}

/// Lowest-II design of a served result: {ii, delay}, or {-1,-1} if none.
std::pair<double, double> served_best(const std::string& result_json) {
  const serve::JsonValue v = serve::JsonValue::parse(result_json);
  const serve::JsonValue* designs = v.find("designs");
  if (designs == nullptr || designs->as_array().empty()) return {-1.0, -1.0};
  const serve::JsonValue& d = designs->as_array().front();
  return {d.find("ii")->as_number(), d.find("delay")->as_number()};
}

}  // namespace

void run_designer_serve(const RunOptions& options, Report& report) {
  // --- Set-up, several times; the last server is kept. The last two
  // servers each warm up with one round of a fixed designer, the same in
  // every run: the deterministic unit of this workload.
  std::vector<double> setup_s;
  std::vector<JobRecord> jobs;
  Setup setup;
  std::map<std::string, std::uint64_t> first_counters;
  const Clock::time_point setups_begin = Clock::now();
  for (int rep = 0, warmed = 0; warmed < 2; ++rep) {
    if (setup.server) setup.server->shutdown(true);
    const Clock::time_point start = Clock::now();
    setup = make_setup();
    setup_s.push_back(ms_since(start) / 1e3);
    if (more_setups(rep + 1, setups_begin)) continue;
    Client warm(kWarmupSeed);
    RegistryDelta delta;
    do {
      run_chain(*setup.server, setup.specs, warm, false, true, jobs);
    } while (!warm.round_done());
    delta.stop();
    const auto counters = work_counters(delta);
    if (warmed++ == 0) {
      first_counters = counters;
    } else {
      report.deterministic = counters;
      report.operation(compare_counters(first_counters, counters));
    }
  }
  serve::ChopServer& server = *setup.server;
  // The server keeps every job, so the process grows with the jobs a run
  // completes, and a faster program completes more; the measured rounds
  // also differ by seed. The peak resident set is therefore taken after
  // the warm-up, a fixed amount of work.
  const double rss = peak_rss_mb();

  // --- Measured phase(s).
  Client designer(options.seed * 1000003ull + 1);
  const double seconds = options.trace ? options.seconds / 2.0 : options.seconds;
  Clock::time_point start = Clock::now();
  run_client(server, setup.specs, designer,
             start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds)),
             false, jobs);
  double wall_s = ms_since(start) / 1e3;

  std::unique_ptr<RegistryDelta> traced_delta;
  serve::ServerStats stats_before{};
  if (options.trace) {
    stats_before = server.stats();
    traced_delta = std::make_unique<RegistryDelta>();
    start = Clock::now();
    run_client(server, setup.specs, designer,
               start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds)),
               true, jobs);
    wall_s = ms_since(start) / 1e3;
    traced_delta->stop();
  }
  const serve::ServerStats stats_after = server.stats();
  server.shutdown(true);

  // --- Oracles (not timed).
  const auto answers = cold_answers(jobs);
  Requests submits, revisions;
  std::vector<double> best_ii, best_delay;
  std::size_t measured_done = 0;
  for (const JobRecord& j : jobs) {
    const std::string error = check_job(j, answers.at(j.state));
    report.operation(error);
    if (j.warmup || j.traced != options.trace) continue;
    (j.base ? submits : revisions).add(j.latency);
    if (!error.empty()) continue;
    ++measured_done;
    if (j.base) {
      const auto [ii, delay] = served_best(j.view.result_json);
      if (ii >= 0) {
        best_ii.push_back(ii);
        best_delay.push_back(delay);
      }
    }
  }
  report.metric("setup_s", fastest(setup_s), "s");
  report_requests(report, submits, revisions,
                  static_cast<double>(measured_done), wall_s);
  report.metric("best_ii", mean(best_ii), "cycles");
  report.metric("best_delay", mean(best_delay), "cycles");
  report.metric("peak_rss_mb", rss, "MB");
  if (!options.trace) return;

  // --- Ledger over the traced half: summed job latency, split into the
  // client's parse and call, queue wait, prediction, search phases and
  // rendering. Jobs search single-threaded, so phase time is wall time.
  const RegistryDelta& d = *traced_delta;
  report_layer_counters(report, d);
  obs::PhaseProfileData profile;
  double wall = 0.0, parse = 0.0, call = 0.0, queue = 0.0, run = 0.0;
  std::vector<double> queue_ms, run_ms;
  std::size_t traced_jobs = 0;
  for (const JobRecord& j : jobs) {
    if (!j.traced) continue;
    ++traced_jobs;
    wall += j.latency.wall_ms;
    parse += j.parse_ms;
    call += j.call_ms;
    queue += j.view.queue_wait_ms;
    run += j.view.run_ms;
    queue_ms.push_back(j.view.queue_wait_ms);
    run_ms.push_back(j.view.run_ms);
    profile += j.view.profile;
  }
  report_search_phases(report, profile);
  using P = obs::SearchPhase;
  const double predict = d.histogram_sum("session.predict_ms");
  const double render = phase_ms(profile, P::kRender);
  const double search_phases =
      phase_ms(profile, P::kBoundTables) + phase_ms(profile, P::kSeedProbes) +
      phase_ms(profile, P::kLeafEval) + phase_ms(profile, P::kMerge) +
      phase_ms(profile, P::kFrontierSync);
  const double unattributed =
      wall - parse - call - queue - predict - search_phases - render;
  report.metric("wall_ms", wall, "ms");
  report.metric("io.parse_ms", parse, "ms");
  report.metric("serve.call_ms", call, "ms");
  report.metric("serve.queue_wait_ms.sum", queue, "ms");
  report.metric("serve.queue_wait_ms.p50", quantile(queue_ms, 0.50), "ms");
  report.metric("serve.queue_wait_ms.p99", quantile(queue_ms, 0.99), "ms");
  report.metric("serve.run_ms.p50", quantile(run_ms, 0.50), "ms");
  report.metric("search.ms", run - predict - render, "ms");
  const double reused = static_cast<double>(stats_after.evaluator_pool.reused -
                                            stats_before.evaluator_pool.reused);
  const double created = static_cast<double>(stats_after.evaluator_pool.created -
                                             stats_before.evaluator_pool.created);
  report.metric("serve.evaluator_reuse_ratio", ratio(reused, reused + created), "ratio");
  report.metric("serve.rejected",
                static_cast<double>(stats_after.rejected_overload -
                                    stats_before.rejected_overload),
                "count");
  report.metric("serve.jobs", static_cast<double>(traced_jobs), "count");
  report.metric("unattributed_ms", unattributed, "ms");
  report.metric("unattributed_frac", ratio(unattributed, wall), "ratio");
  // ChopServer profiles every job whether or not the run is traced, so the
  // traced half runs the same code as the untraced one plus two registry
  // snapshots; a ratio of the halves would show only warm-up and drift.
  report.metric("obs.trace_overhead_frac", 0.0, "ratio");
}

}  // namespace chopbench
