// chopbench_harness — one CHOP benchmark run. Usage:
//
//   chopbench_harness --workload <designer_serve|fig7_sweep|gen_1k>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     --reference-dir <chopbench/reference>
//   chopbench_harness --selftest --reference-dir <dir>
//   chopbench_harness --make-reference <file>
//
// A run prints diagnostics on stderr and, as the last line of stdout, one
// JSON object: run metadata, the operation counts, the deterministic work
// counters and every metric the workload measured. chopbench/run.py
// builds this program and turns that line into the benchmark's result.
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"

#ifndef CHOPBENCH_BUILD_TYPE
#define CHOPBENCH_BUILD_TYPE "unknown"
#endif
#ifndef CHOPBENCH_COMPILER
#define CHOPBENCH_COMPILER "unknown"
#endif

namespace {

using namespace chopbench;

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string to_json(const RunOptions& options, const Report& report) {
  std::ostringstream out;
  out.precision(17);
  const std::string build_type = CHOPBENCH_BUILD_TYPE;
  out << "{\"meta\": {\"workload\": " << quoted(options.workload)
      << ", \"seed\": " << options.seed << ", \"seconds\": " << options.seconds
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"build_type\": " << quoted(build_type)
      << ", \"release\": " << (build_type == "Release" ? "true" : "false")
      << ", \"compiler\": " << quoted(CHOPBENCH_COMPILER)
      << ", \"nproc\": " << std::thread::hardware_concurrency() << "}";
  out << ", \"correct\": " << (report.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    out << (i ? ", " : "") << quoted(report.failures[i]);
  }
  out << "], \"deterministic\": {";
  bool first = true;
  for (const auto& [name, value] : report.deterministic) {
    out << (first ? "" : ", ") << quoted(name) << ": " << value;
    first = false;
  }
  out << "}, \"metrics\": {";
  first = true;
  for (const auto& [name, m] : report.metrics) {
    out << (first ? "" : ", ") << quoted(name) << ": {\"value\": " << m.value
        << ", \"unit\": " << quoted(m.unit) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

int usage(const std::string& why) {
  std::cerr << "chopbench_harness: " << why
            << "\nusage: chopbench_harness --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --reference-dir <dir>\n"
               "       chopbench_harness --selftest --reference-dir <dir>\n"
               "       chopbench_harness --make-reference <file>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool selftest = false;
  std::string make_reference;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() != "0";
      } else if (arg == "--reference-dir") {
        options.reference_dir = value();
      } else if (arg == "--selftest") {
        selftest = true;
      } else if (arg == "--make-reference") {
        make_reference = value();
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  if (!make_reference.empty()) return write_fig7_reference(make_reference);
  if (selftest) return run_selftest(options) == 0 ? 0 : 1;
  if (options.seconds <= 0.0) return usage("--seconds must be positive");

  Report report;
  try {
    if (options.workload == "designer_serve") {
      run_designer_serve(options, report);
    } else if (options.workload == "fig7_sweep") {
      run_fig7_sweep(options, report);
    } else if (options.workload == "gen_1k") {
      run_gen_1k(options, report);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    report.operation(std::string("run aborted: ") + e.what());
  }
  report.metric("failed_frac",
                ratio(static_cast<double>(report.failed),
                      static_cast<double>(report.attempted)),
                "ratio");
  if (options.trace) fill_missing_layer_metrics(report);
  for (const std::string& f : report.failures) std::cerr << "FAILED: " << f << "\n";
  std::cout << to_json(options, report) << std::endl;
  return 0;
}
