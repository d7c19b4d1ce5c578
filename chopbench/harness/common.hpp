// Shared plumbing of the chopbench harness: the run options, the report
// every workload fills in (metrics, deterministic counters, operation
// outcomes), order statistics, metrics-registry deltas and process
// memory. See chopbench/NOTES.md for what each workload measures.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <time.h>

#include "dfg/benchmarks.hpp"
#include "io/spec_format.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_profile.hpp"

namespace chopbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// CPU time this process has used so far, in ms, summed over its threads.
/// With one request in flight, its difference around the request is the
/// request's CPU cost. Unlike wall time it leaves out the time a thread
/// waits for a CPU, and on a virtual machine with steal-time accounting the
/// time the hypervisor gives the VM's CPUs to other guests.
inline double process_cpu_ms() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_nsec) / 1e6;
}

/// Wall and CPU time of one request, in ms.
struct Timed {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  Timed& operator+=(const Timed& other) {
    wall_ms += other.wall_ms;
    cpu_ms += other.cpu_ms;
    return *this;
  }
};

/// Times one request from construction to stop().
class Stopwatch {
 public:
  Stopwatch() : wall_(Clock::now()), cpu_(process_cpu_ms()) {}
  Timed stop() const { return {ms_since(wall_), process_cpu_ms() - cpu_}; }

 private:
  Clock::time_point wall_;
  double cpu_;
};

/// The timings of one kind of request (submits or revisions).
struct Requests {
  std::vector<double> wall_ms;
  std::vector<double> cpu_ms;
  void add(const Timed& t) {
    wall_ms.push_back(t.wall_ms);
    cpu_ms.push_back(t.cpu_ms);
  }
};

/// Set-ups run at least kSetupReps times and for at least kSetupSeconds.
/// One set-up takes a millisecond or less while the machine's speed moves
/// within a second, so set-ups packed into a few milliseconds all sample
/// the same moment of it.
constexpr int kSetupReps = 31;
constexpr double kSetupSeconds = 1.0;

inline bool more_setups(int done, Clock::time_point begin) {
  return done < kSetupReps || ms_since(begin) < kSetupSeconds * 1e3;
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding the stored oracle references (chopbench/reference).
  std::string reference_dir;
};

/// Everything one run reports. `metrics` holds both the end-to-end and the
/// per-layer values; the caller prints the set the trace mode asks for.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  /// Work counters of one deterministic unit of the workload. Equal code
  /// and seed must reproduce them exactly.
  std::map<std::string, std::uint64_t> deterministic;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< First few failure messages.

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }

  /// Counts one operation; `error` empty means it succeeded.
  void operation(const std::string& error) {
    ++attempted;
    if (!error.empty()) {
      ++failed;
      if (failures.size() < 16) failures.push_back(error);
    }
  }
};

/// Linear-interpolated quantile (q in [0,1]); 0 for no samples.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Smallest sample; 0 for no samples. setup_s is the fastest set-up of a
/// run: over a span of set-ups it reads the same from run to run, and it
/// still grows with any work moved into set-up.
inline double fastest(const std::vector<double>& v) { return quantile(v, 0.0); }

inline double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Difference of two registry snapshots taken around a measured phase.
class RegistryDelta {
 public:
  RegistryDelta()
      : before_(chop::obs::MetricsRegistry::global().snapshot()) {}

  /// Takes the closing snapshot.
  void stop() { after_ = chop::obs::MetricsRegistry::global().snapshot(); }

  double counter(const std::string& name) const {
    return static_cast<double>(value(after_.counters, name) -
                               value(before_.counters, name));
  }
  double histogram_sum(const std::string& name) const {
    return hist(after_, name).sum - hist(before_, name).sum;
  }
  double histogram_count(const std::string& name) const {
    return static_cast<double>(hist(after_, name).count -
                               hist(before_, name).count);
  }

 private:
  static std::uint64_t value(const std::map<std::string, std::uint64_t>& m,
                             const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? 0 : it->second;
  }
  static chop::obs::MetricsSnapshot::HistogramStats hist(
      const chop::obs::MetricsSnapshot& s, const std::string& name) {
    const auto it = s.histograms.find(name);
    return it == s.histograms.end()
               ? chop::obs::MetricsSnapshot::HistogramStats{}
               : it->second;
  }

  chop::obs::MetricsSnapshot before_;
  chop::obs::MetricsSnapshot after_;
};

/// The deterministic work counters named by the benchmark, read from a
/// closed registry delta. `integration.attempts` is exact because no unit
/// shares a memoizing evaluator between threads: concurrent misses on the
/// same key may both integrate (core/eval/candidate_evaluator.hpp).
inline std::map<std::string, std::uint64_t> work_counters(
    const RegistryDelta& d) {
  std::map<std::string, std::uint64_t> out;
  for (const char* name : {"bad.schedules", "bad.predictions_raw",
                           "search.trials", "integration.attempts",
                           "gen.evaluations"}) {
    out[name] = static_cast<std::uint64_t>(d.counter(name));
  }
  return out;
}

/// Runs check(0) .. check(n-1) on four threads after the measured phase
/// and returns their verdicts ("" = passed; an exception is a failure).
template <typename Check>
std::vector<std::string> run_checks(std::size_t n, const Check& check) {
  std::vector<std::string> verdicts(n);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          verdicts[i] = check(i);
        } catch (const std::exception& e) {
          verdicts[i] = std::string("oracle threw: ") + e.what();
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return verdicts;
}

/// The AR lattice filter set up as in the paper's experiment 1 (§3.1,
/// single-cycle, 30 us budgets) or 2 (§3.2, multi-cycle, 20 us), cut into
/// 1-3 partitions (the paper's cuts), one chip of the 64- or 84-pin MOSIS
/// package per partition.
chop::io::Project ar_project(const chop::lib::ComponentLibrary& library,
                             const chop::dfg::BenchmarkGraph& ar,
                             int experiment, int nparts, bool pins84);

/// Describes the first counter on which two units disagree ("" if none).
std::string compare_counters(const std::map<std::string, std::uint64_t>& want,
                             const std::map<std::string, std::uint64_t>& got);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// The request metrics every workload shares. End to end: the CPU time of
/// a submit and of a revision (mean, p99). Per layer: the same in wall
/// time, and the throughput, completed requests per wall second. Requests
/// run one at a time, so a request's CPU time is the process's CPU time
/// while it ran. Means, not medians: a workload's requests are a mix of
/// kinds whose costs lie far apart, and a median that falls between two
/// of them jumps with the mix.
void report_requests(Report& report, const Requests& submits,
                     const Requests& revisions, double completed,
                     double wall_s);

/// Per-layer metrics every workload reports from its registry delta and
/// summed phase profile, so each traced run prints the full ledger (zero
/// where a layer did no work on that workload).
void report_layer_counters(Report& report, const RegistryDelta& d);

/// Search-phase times (thread time, ms) and leaf cost from a profile.
void report_search_phases(Report& report,
                          const chop::obs::PhaseProfileData& profile);

/// Milliseconds of one phase in a profile snapshot.
double phase_ms(const chop::obs::PhaseProfileData& profile,
                chop::obs::SearchPhase phase);

/// Sets every per-layer metric the benchmark declares to 0 unless the
/// workload already reported it, so each traced run prints the full set.
void fill_missing_layer_metrics(Report& report);

/// Workload entry points. Each fills `report` and returns normally; a
/// failed operation is recorded in the report, never thrown.
void run_designer_serve(const RunOptions& options, Report& report);
void run_fig7_sweep(const RunOptions& options, Report& report);
void run_gen_1k(const RunOptions& options, Report& report);

/// Feeds every oracle a corrupted result; returns the number of oracles
/// that failed to flag their corruption (0 = self-test passed).
int run_selftest(const RunOptions& options);

/// Recomputes the stored Figure-7 reference with the exhaustive walk.
int write_fig7_reference(const std::string& path);

}  // namespace chopbench
