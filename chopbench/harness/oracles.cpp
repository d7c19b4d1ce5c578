#include "oracles.hpp"

#include <sstream>

namespace chopbench {

double total_area(const chop::core::IntegrationResult& integration) {
  double area = 0.0;
  for (const chop::StatVal& a : integration.chip_area) area += a.likely();
  return area;
}

std::string check_same_bytes(const std::string& got, const std::string& cold) {
  if (got == cold) return {};
  std::size_t i = 0;
  while (i < got.size() && i < cold.size() && got[i] == cold[i]) ++i;
  return "result differs from the cold reference at byte " + std::to_string(i);
}

std::string check_table_counts(int experiment, int nparts,
                               const chop::core::PredictionStats& stats) {
  // {raw, eligible} per partition count 1..3 (EXPERIMENTS.md, "ours").
  static constexpr std::size_t kTable3[3][2] = {{1314, 4}, {936, 20}, {558, 22}};
  static constexpr std::size_t kTable5[3][2] = {{4926, 0}, {2538, 44}, {1293, 37}};
  if (nparts < 1 || nparts > 3) return "no table row for this partition count";
  const auto& row = (experiment == 1 ? kTable3 : kTable5)[nparts - 1];
  if (stats.total == row[0] && stats.feasible == row[1]) return {};
  std::ostringstream out;
  out << "Table " << (experiment == 1 ? 3 : 5) << " row " << nparts
      << ": predictions " << stats.total << "/" << stats.feasible
      << ", expected " << row[0] << "/" << row[1];
  return out.str();
}

std::string design_set_text(const chop::core::SearchResult& result) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const chop::core::GlobalDesign& d : result.designs) {
    out << "choice=";
    for (std::size_t i = 0; i < d.choice.size(); ++i) {
      out << (i ? "," : "") << d.choice[i];
    }
    out << " ii=" << d.integration.ii_main
        << " delay=" << d.integration.system_delay_main
        << " area=" << total_area(d.integration) << "\n";
  }
  return out.str();
}

std::string check_design_set(const std::string& got,
                             const std::string& reference) {
  if (got == reference) return {};
  return "design set differs from the exhaustive reference";
}

std::string check_leaf_identity(std::size_t trials, std::size_t skipped,
                                std::size_t leaves) {
  if (trials + skipped == leaves) return {};
  return "trials " + std::to_string(trials) + " + skipped " +
         std::to_string(skipped) + " != leaves " + std::to_string(leaves);
}

BestDesign best_design(const chop::core::SearchResult& result) {
  BestDesign best;
  for (const chop::core::GlobalDesign& d : result.designs) {
    if (!d.integration.feasible) continue;
    const long long ii = d.integration.ii_main;
    const long long delay = d.integration.system_delay_main;
    if (!best.feasible || ii < best.ii ||
        (ii == best.ii && delay < best.delay)) {
      best = {true, ii, delay};
    }
  }
  return best;
}

std::string check_dominates_baseline(
    const std::vector<chop::gen::FrontierPoint>& frontier,
    const BestDesign& baseline) {
  if (!baseline.feasible) return {};
  for (const chop::gen::FrontierPoint& p : frontier) {
    if (p.ii <= baseline.ii && p.delay <= baseline.delay) return {};
  }
  return "frontier does not dominate the level-order baseline (II " +
         std::to_string(baseline.ii) + ", delay " +
         std::to_string(baseline.delay) + ")";
}

std::string check_point_reproduced(const chop::gen::FrontierPoint& point,
                                   const chop::core::SearchResult& cold) {
  for (const chop::core::GlobalDesign& d : cold.designs) {
    if (d.choice == point.choice && d.integration.ii_main == point.ii &&
        d.integration.system_delay_main == point.delay &&
        total_area(d.integration) == point.area) {
      return {};
    }
  }
  return "frontier point (II " + std::to_string(point.ii) + ", delay " +
         std::to_string(point.delay) +
         ") is not reproduced by a cold session on its cut";
}

}  // namespace chopbench
