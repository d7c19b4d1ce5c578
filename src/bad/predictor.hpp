// BAD — the Behavioral Area-Delay Predictor (paper ref [5], embedded in
// CHOP per Figure 1).
//
// For one partition (a standalone behavioral graph) BAD sweeps the local
// design space: pipelined and nonpipelined styles, every module-set
// combination, and serial-parallel allocation tradeoffs; for each point it
// runs a resource-constrained (or modulo) schedule and predicts
// registers, multiplexers, PLA controller, wiring, clock-cycle overhead
// and memory access profile. Schedules depend on a module set only
// through its latencies, so module sets with equal latency vectors share
// one scheduling sweep. The output is the list of predicted designs
// CHOP's global search selects from.
#pragma once

#include <map>
#include <vector>

#include "bad/prediction.hpp"
#include "bad/style.hpp"
#include "bad/testability.hpp"
#include "dfg/graph.hpp"
#include "library/component_library.hpp"

namespace chop::bad {

/// Everything BAD needs to predict one partition.
struct PredictionRequest {
  const dfg::Graph* graph = nullptr;
  const lib::ComponentLibrary* library = nullptr;
  ArchitectureStyle style;
  ClockSpec clocks;

  /// Ports available per memory block the partition accesses (missing
  /// blocks are unconstrained).
  std::map<int, int> memory_ports;
  /// Access time per block id (indexed; missing -> one datapath cycle).
  std::vector<Ns> memory_access_time;

  /// Cap on enumerated pipelined initiation intervals, in datapath cycles
  /// (0 = up to the nonpipelined stage count). CHOP derives this from the
  /// performance constraint — "approximately 60 possible initiation
  /// intervals are considered for each implementation" (§3.2).
  Cycles max_ii_dp = 0;

  /// Scan-design overheads (§5 extension); disabled by default.
  TestabilityOptions testability;
};

/// Knobs of the sweep itself.
struct PredictorOptions {
  /// Candidate functional-unit counts per operation kind; values above the
  /// kind's operation count are skipped.
  std::vector<int> unit_sweep = {1, 2, 3, 4, 6, 8, 12, 16};
};

/// The predictor. Stateless apart from options; predict() is const and
/// thread-compatible.
class Predictor {
 public:
  explicit Predictor(PredictorOptions options = {});

  /// Sweeps the design space for `request` and returns every predicted
  /// design (CHOP prunes infeasible/inferior ones — Table 3/5 count these
  /// raw totals). Throws chop::Error when the request is malformed or the
  /// library cannot cover the graph.
  std::vector<DesignPrediction> predict(const PredictionRequest& request) const;

 private:
  PredictorOptions options_;
};

}  // namespace chop::bad
