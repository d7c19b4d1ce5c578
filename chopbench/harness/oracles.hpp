// Output oracles of the benchmark. Every check compares what the timed
// path produced with a reference derived some other way (a cold session,
// a stored exhaustive walk, the paper's tables, a baseline partitioner)
// and returns an empty string when they agree, else a one-line reason.
// The self-test (selftest.cpp) feeds each one a corrupted result.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/search.hpp"
#include "core/session.hpp"
#include "gen/generate.hpp"

namespace chopbench {

/// Served (or warm-revised) result bytes against a cold session's
/// predict+search of the same project.
std::string check_same_bytes(const std::string& got, const std::string& cold);

/// Raw and level-1-eligible prediction counts of a base job against the
/// reproduced Table 3 (experiment 1) / Table 5 (experiment 2) rows of
/// EXPERIMENTS.md. The package does not move these counts.
std::string check_table_counts(int experiment, int nparts,
                               const chop::core::PredictionStats& stats);

/// Sum of the likely chip areas of one integration (the frontier's area).
double total_area(const chop::core::IntegrationResult& integration);

/// The design set of a search as text: one line per design with its
/// selection, II, delay and area. Compared byte for byte with the stored
/// exhaustive-walk reference.
std::string design_set_text(const chop::core::SearchResult& result);

std::string check_design_set(const std::string& got,
                             const std::string& reference);

/// Branch-and-bound accounting: every leaf of the odometer space is
/// either visited or skipped by a bound.
std::string check_leaf_identity(std::size_t trials, std::size_t skipped,
                                std::size_t leaves);

/// Best (lowest II, then lowest delay) feasible design of a search.
struct BestDesign {
  bool feasible = false;
  long long ii = 0;
  long long delay = 0;
};
BestDesign best_design(const chop::core::SearchResult& result);

/// The generated frontier must hold a point at least as good in II and
/// delay as the level-order baseline's best design.
std::string check_dominates_baseline(
    const std::vector<chop::gen::FrontierPoint>& frontier,
    const BestDesign& baseline);

/// A frontier point must appear, with the same selection and figures, in
/// a cold session's search of its cut.
std::string check_point_reproduced(const chop::gen::FrontierPoint& point,
                                   const chop::core::SearchResult& cold);

}  // namespace chopbench
