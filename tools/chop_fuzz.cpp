// chop_fuzz — differential fuzzing driver for the CHOP partitioner.
//
// Generates deterministic end-to-end scenarios (graph + library + chips +
// memory + partitioning + constraints) from a single seed and pushes each
// through the oracle battery of src/testing/oracles.hpp. Failures are
// shrunk to a minimal knob vector and written as replayable `.chop` repro
// files. The summary is emitted as deterministic JSON: two runs with the
// same arguments produce byte-identical output.
//
// Usage:
//   chop_fuzz [--seed=<n|tag>] [--scenarios=<n>] [--out=<file>]
//             [--shrink-dir=<dir>] [--max-product=<n>]
//             [--spec-fuzz=<cases>] [--serve-fuzz=<cases>]
//             [--replay=<file.chop>]
//             [--inject-bound-bug] [--no-bound-pruning] [--quick]
//
//   --seed           run seed; digits are literal, anything else is hashed
//   --scenarios      number of generated scenarios (default 100)
//   --out            also write the summary JSON to this file
//   --shrink-dir     where shrunk repro specs are written (default ".")
//   --max-product    eligible-space cap per scenario (default 20000)
//   --spec-fuzz      additionally run N mutated documents through the
//                    spec parser round-trip fuzzer
//   --serve-fuzz     additionally run N mutated NDJSON request lines
//                    through a live chop_serve Service (daemon protocol
//                    robustness: every line must get one structured
//                    response, never an escaped exception)
//   --replay         run the oracle battery over one `.chop` file instead
//                    of generated scenarios
//   --inject-bound-bug  fault-injection self-test: makes the branch-and-
//                    bound slack inadmissible and REQUIRES the battery to
//                    catch it (exit 0 iff the bug is caught and shrunk)
//   --no-bound-pruning  sanity escape hatch: forces the exhaustive path
//                    in every bounded-search arm of the battery
//                    (OracleLimits::bound_pruning)
//   --quick          skip the metamorphic (raw-list) oracle group
//
// Exit codes: 0 all green (or injected bug caught), 1 oracle failures,
// 2 usage/input error.
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/eval/bound_state.hpp"
#include "io/spec_format.hpp"
#include "io/spec_writer.hpp"
#include "testing/oracles.hpp"
#include "testing/scenario.hpp"
#include "testing/shrink.hpp"
#include "testing/serve_fuzz.hpp"
#include "testing/spec_fuzz.hpp"

namespace {

using namespace chop;

struct Args {
  std::uint64_t seed = 42;
  std::string seed_text = "42";
  std::size_t scenarios = 100;
  std::string out_path;
  std::string shrink_dir = ".";
  std::size_t max_product = 20000;
  std::size_t spec_fuzz_cases = 0;
  std::size_t serve_fuzz_cases = 0;
  std::string replay_path;
  bool inject_bound_bug = false;
  double inject_slack = 1.25;
  bool no_bound_pruning = false;
  bool quick = false;
};

int usage() {
  std::cerr << "usage: chop_fuzz [--seed=<n|tag>] [--scenarios=<n>]\n"
               "                 [--out=<file>] [--shrink-dir=<dir>]\n"
               "                 [--max-product=<n>] [--spec-fuzz=<cases>]\n"
               "                 [--serve-fuzz=<cases>]\n"
               "                 [--replay=<file.chop>] [--inject-bound-bug]\n"
               "                 [--no-bound-pruning] [--quick]\n";
  return 2;
}

bool parse_size(const std::string& text, std::size_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = static_cast<std::size_t>(std::stoull(text));
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct RunSummary {
  std::size_t requested = 0;
  std::size_t ran = 0;
  std::size_t skipped = 0;
  std::size_t failed = 0;
  std::size_t designs_total = 0;
  std::size_t trials_total = 0;
  struct Failure {
    std::uint64_t scenario_seed;
    std::size_t index;
    std::string oracle;
    std::string detail;
    std::string repro_file;
    int shrink_steps;
  };
  std::vector<Failure> failures;
  /// Every oracle name that failed anywhere this run (original or shrunk
  /// reports) — the fault-injection self-test asserts on membership, and
  /// the set is emitted to the JSON summary in sorted order.
  std::set<std::string> oracles_failed;
  testing::SpecFuzzStats spec_fuzz;
  bool spec_fuzz_ran = false;
  testing::ServeFuzzStats serve_fuzz;
  bool serve_fuzz_ran = false;
};

std::string to_json(const Args& args, const RunSummary& s) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"seed\": \"" << json_escape(args.seed_text) << "\",\n";
  os << "  \"seed_value\": " << args.seed << ",\n";
  os << "  \"scenarios\": " << s.requested << ",\n";
  os << "  \"ran\": " << s.ran << ",\n";
  os << "  \"skipped_too_large\": " << s.skipped << ",\n";
  os << "  \"failed\": " << s.failed << ",\n";
  os << "  \"designs_total\": " << s.designs_total << ",\n";
  os << "  \"trials_total\": " << s.trials_total << ",\n";
  os << "  \"failures\": [";
  for (std::size_t i = 0; i < s.failures.size(); ++i) {
    const auto& f = s.failures[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"scenario\": " << f.index << ", \"seed\": " << f.scenario_seed
       << ", \"oracle\": \"" << json_escape(f.oracle) << "\", \"detail\": \""
       << json_escape(f.detail) << "\", \"repro\": \""
       << json_escape(f.repro_file) << "\", \"shrink_steps\": "
       << f.shrink_steps << "}";
  }
  os << (s.failures.empty() ? "],\n" : "\n  ],\n");
  os << "  \"oracles_failed\": [";
  bool first_oracle = true;
  for (const std::string& oracle : s.oracles_failed) {
    os << (first_oracle ? "\"" : ", \"") << json_escape(oracle) << "\"";
    first_oracle = false;
  }
  os << "],\n";
  if (s.spec_fuzz_ran) {
    os << "  \"spec_fuzz\": {\"cases\": " << s.spec_fuzz.cases
       << ", \"parse_errors\": " << s.spec_fuzz.parse_errors
       << ", \"other_errors\": " << s.spec_fuzz.other_errors
       << ", \"parsed\": " << s.spec_fuzz.parsed
       << ", \"sessions\": " << s.spec_fuzz.sessions
       << ", \"session_errors\": " << s.spec_fuzz.session_errors
       << ", \"violations\": " << s.spec_fuzz.violations.size() << "},\n";
  }
  if (s.serve_fuzz_ran) {
    os << "  \"serve_fuzz\": {\"cases\": " << s.serve_fuzz.cases
       << ", \"ok_responses\": " << s.serve_fuzz.ok_responses
       << ", \"error_responses\": " << s.serve_fuzz.error_responses
       << ", \"violations\": " << s.serve_fuzz.violations.size() << "},\n";
  }
  os << "  \"ok\": "
     << (s.failed == 0 && s.spec_fuzz.ok() && s.serve_fuzz.ok() ? "true"
                                                                : "false")
     << "\n}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--seed=", 0) == 0) {
      args.seed_text = value("--seed=");
      args.seed = testing::parse_seed(args.seed_text);
    } else if (arg.rfind("--scenarios=", 0) == 0) {
      if (!parse_size(value("--scenarios="), args.scenarios)) return usage();
    } else if (arg.rfind("--out=", 0) == 0) {
      args.out_path = value("--out=");
    } else if (arg.rfind("--shrink-dir=", 0) == 0) {
      args.shrink_dir = value("--shrink-dir=");
    } else if (arg.rfind("--max-product=", 0) == 0) {
      if (!parse_size(value("--max-product="), args.max_product)) {
        return usage();
      }
    } else if (arg.rfind("--spec-fuzz=", 0) == 0) {
      if (!parse_size(value("--spec-fuzz="), args.spec_fuzz_cases)) {
        return usage();
      }
    } else if (arg.rfind("--serve-fuzz=", 0) == 0) {
      if (!parse_size(value("--serve-fuzz="), args.serve_fuzz_cases)) {
        return usage();
      }
    } else if (arg.rfind("--replay=", 0) == 0) {
      args.replay_path = value("--replay=");
    } else if (arg == "--inject-bound-bug") {
      args.inject_bound_bug = true;
    } else if (arg.rfind("--inject-bound-bug=", 0) == 0) {
      args.inject_bound_bug = true;
      args.inject_slack = std::stod(value("--inject-bound-bug="));
    } else if (arg == "--no-bound-pruning") {
      args.no_bound_pruning = true;
    } else if (arg == "--quick") {
      args.quick = true;
    } else {
      return usage();
    }
  }

  if (args.inject_bound_bug) {
    // An inadmissible slack (> 1) inflates the branch-and-bound lower
    // bounds, so subtrees containing feasible leaves get cut. The battery
    // MUST notice the design-set divergence.
    core::set_bound_slack_for_testing(args.inject_slack);
  }

  testing::OracleLimits limits;
  limits.max_eligible_product = args.max_product;
  limits.max_raw_product = args.max_product * 3;
  limits.metamorphic = !args.quick;
  limits.bound_pruning = !args.no_bound_pruning;

  if (!args.replay_path.empty()) {
    try {
      const io::Project project = io::parse_project_file(args.replay_path);
      const testing::ScenarioReport report =
          testing::run_oracles(project, limits);
      std::cout << "replay " << args.replay_path << ": "
                << (report.skipped
                        ? "skipped (design space too large)"
                        : (report.ok() ? "all oracles green" : "FAILED"))
                << " (eligible product " << report.eligible_product
                << ", designs " << report.designs << ")\n";
      for (const auto& f : report.failures) {
        std::cout << "  " << f.oracle << ": " << f.detail << "\n";
      }
      return report.ok() ? 0 : 1;
    } catch (const std::exception& e) {
      std::cerr << "chop_fuzz: " << e.what() << "\n";
      return 2;
    }
  }

  RunSummary summary;
  summary.requested = args.scenarios;
  for (std::size_t i = 0; i < args.scenarios; ++i) {
    const std::uint64_t seed = testing::scenario_seed(args.seed, i);
    const testing::ScenarioKnobs knobs = testing::sample_knobs(seed);
    testing::ScenarioReport report;
    try {
      report = testing::run_oracles(testing::build_scenario(knobs), limits);
    } catch (const std::exception& e) {
      report.failures.push_back({"generator", e.what()});
    }
    if (report.skipped) {
      ++summary.skipped;
      continue;
    }
    ++summary.ran;
    summary.designs_total += report.designs;
    summary.trials_total += report.trials;
    if (report.ok()) continue;

    ++summary.failed;
    for (const auto& f : report.failures) summary.oracles_failed.insert(f.oracle);
    const testing::ShrinkResult shrunk =
        testing::shrink_failure(knobs, limits);
    for (const auto& f : shrunk.report.failures) {
      summary.oracles_failed.insert(f.oracle);
    }
    const std::string repro_name = "fuzz_fail_" + std::to_string(seed) +
                                   ".chop";
    const std::string repro_path = args.shrink_dir + "/" + repro_name;
    {
      std::ofstream out(repro_path);
      if (out.good()) out << testing::repro_document(shrunk);
    }
    const auto& first = shrunk.report.failures.empty()
                            ? report.failures.front()
                            : shrunk.report.failures.front();
    summary.failures.push_back({seed, i, first.oracle, first.detail,
                                repro_name, shrunk.steps});
    std::cerr << "scenario " << i << " (seed " << seed << ") FAILED "
              << first.oracle << ": " << first.detail << "\n  knobs "
              << shrunk.knobs.describe() << "\n  repro " << repro_path
              << " (" << shrunk.steps << " shrink steps)\n";
  }

  if (args.spec_fuzz_cases > 0) {
    // Seed corpus for the parser fuzzer: a representative generated
    // scenario (covers every section of the format).
    testing::ScenarioKnobs knobs =
        testing::sample_knobs(testing::scenario_seed(args.seed, 0));
    knobs.memory_blocks = 1;
    knobs.mem_reads = 1;
    knobs.mem_writes = 1;
    knobs.system_power_mw = 1500;
    const std::string seed_doc =
        io::write_project_string(testing::build_scenario(knobs));
    Rng rng(args.seed ^ 0x5bd1e995u);
    summary.spec_fuzz =
        testing::fuzz_spec_parser(rng, seed_doc, args.spec_fuzz_cases);
    summary.spec_fuzz_ran = true;
    for (const std::string& v : summary.spec_fuzz.violations) {
      std::cerr << "spec_fuzz violation: " << v << "\n";
    }
  }

  if (args.serve_fuzz_cases > 0) {
    Rng rng(args.seed ^ 0xa24baed4963ee407ull);
    summary.serve_fuzz =
        testing::fuzz_serve_protocol(rng, args.serve_fuzz_cases);
    summary.serve_fuzz_ran = true;
    for (const std::string& v : summary.serve_fuzz.violations) {
      std::cerr << "serve_fuzz violation: " << v << "\n";
    }
  }

  const std::string json = to_json(args, summary);
  std::cout << json;
  if (!args.out_path.empty()) {
    std::ofstream out(args.out_path);
    out << json;
  }

  const bool green =
      summary.failed == 0 && summary.spec_fuzz.ok() && summary.serve_fuzz.ok();
  if (args.inject_bound_bug) {
    // Self-test inversion: the injected bug must have been caught AND
    // caught twice over — by the differential bound_pruning oracle and,
    // independently, by the exact certifier (whose solver never reads the
    // corrupted slack, so its frontier stays true while the heuristic's
    // diverges). Either oracle staying green means a detection gap.
    const bool caught_differential =
        summary.oracles_failed.count("bound_pruning") != 0;
    const bool caught_exact =
        summary.oracles_failed.count("exact_certification") != 0;
    std::cerr << (caught_differential
                      ? "injected bound bug caught by bound_pruning\n"
                      : "injected bound bug NOT caught by bound_pruning\n")
              << (caught_exact
                      ? "injected bound bug caught by exact_certification\n"
                      : "injected bound bug NOT caught by "
                        "exact_certification\n");
    return caught_differential && caught_exact ? 0 : 1;
  }
  return green ? 0 : 1;
}
