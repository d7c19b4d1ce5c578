// The differential / metamorphic oracle battery of the fuzzing harness.
//
// Every generated scenario is pushed through a set of independent checks,
// each of which compares two executions of the partitioner that are
// REQUIRED to agree, or an invariant that must hold of any single run:
//
//  spec_roundtrip     write -> parse -> write is byte-stable
//  bound_pruning      branch-and-bound E == exhaustive E (design set), and
//                     trials + bound_skipped_leaves == product of lists
//  thread_determinism E at 1/2/4/8 threads: identical designs, counters,
//                     recorder contents and observer callback sequence
//  generation_determinism
//                     the multilevel partition generator's full result is
//                     byte-identical at 1/2/4/8 portfolio threads
//  eval_cache         memoized evaluator == caching disabled
//  enum_vs_iterative  every iterative design is feasible and weakly
//                     dominated by some enumeration design (E is complete)
//  tighten/loosen     tightening any hard constraint never grows the
//                     feasible set; loosening never shrinks it; reserving
//                     extra pins never adds feasible designs
//  schedule_valid     every list and modulo schedule of every partition
//                     passes the independent schedule checker
//  prediction_memo    BAD's one-sweep-per-latency-class predictor equals
//                     a prediction per module set, concatenated
//  statval            triangular-CDF probabilities stay in [0, 1], are
//                     monotone in the query point, and satisfies() is
//                     monotone in the constraint bound
//
// The metamorphic group runs with SearchOptions::prune = false: the
// searched raw lists do not depend on the constraint vector, so feasible
// trial-index sets are directly comparable across constraint variants.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bad/predictor.hpp"
#include "io/spec_format.hpp"

namespace chop::testing {

/// Caps and toggles for one battery run. Scenario spaces larger than the
/// caps are skipped (and reported as skipped — never silently).
struct OracleLimits {
  std::size_t max_eligible_product = 20000;  ///< Bounded-search oracles.
  std::size_t max_raw_product = 60000;       ///< Metamorphic (raw-list) group.
  bool metamorphic = true;
  /// Branch-and-bound in every bounded-search arm (the bound_pruning
  /// oracle's bounded run, shared frontier, thread determinism, eval
  /// cache, incremental research). False forces those arms onto the
  /// exhaustive walk, like the CLI's --no-bound-pruning.
  bool bound_pruning = true;
  std::vector<int> thread_counts = {2, 4, 8};
};

/// One oracle violation: which oracle and a deterministic description.
struct OracleFailure {
  std::string oracle;
  std::string detail;
};

/// Outcome of one scenario's battery run.
struct ScenarioReport {
  bool skipped = false;  ///< Design space exceeded OracleLimits.
  std::size_t eligible_product = 0;
  std::size_t raw_product = 0;
  std::size_t designs = 0;  ///< Enumeration design count.
  std::size_t trials = 0;   ///< Bounded enumeration trials.
  std::vector<OracleFailure> failures;

  bool ok() const { return failures.empty(); }
};

/// The prediction_memo oracle on one request. For every module set the
/// request's library enumerates, a library holding only that set's
/// modules (so it enumerates exactly that one set) predicts the request;
/// the lists, concatenated in enumeration order, must equal the full
/// predictor's list field by field. Returns the first difference, or
/// nullopt when they agree.
std::optional<std::string> check_prediction_memo(
    const bad::PredictionRequest& request,
    const bad::PredictorOptions& options = {});

/// Runs the full battery over one project. Exceptions from the partitioner
/// itself are caught and reported as `harness` failures, so a crash in any
/// layer still yields a shrinkable report.
ScenarioReport run_oracles(const io::Project& project,
                           const OracleLimits& limits);

}  // namespace chop::testing
