// Datapath estimation: register and multiplexer allocation predictions and
// the steering-path delay they add to the clock (paper §2.4: BAD
// "performs detailed predictions on register and multiplexer allocation
// ... as well as the additional delays introduced to the clock cycle
// (register, multiplexer, wiring ...)").
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "dfg/graph.hpp"
#include "library/component_library.hpp"
#include "schedule/op_schedule.hpp"
#include "util/statval.hpp"

namespace chop::bad {

/// Register/mux/steering predictions for one scheduled design point.
struct DatapathEstimate {
  Bits register_bits = 0;   ///< Peak live bits across control steps.
  StatVal mux_count;        ///< 1-bit 2:1 multiplexer equivalents.
  int mux_levels = 1;       ///< Steering depth on the register-to-FU path.
  StatVal register_area;    ///< mil^2.
  StatVal mux_area;         ///< mil^2.
  Ns steering_delay = 0.0;  ///< Register + mux-tree delay per cycle.
};

/// The part of the datapath estimate that depends only on the graph, not
/// on the schedule or the allocation: per functional-unit kind its
/// operation count and widest operation, and the summed width of Select
/// operations. A predictor computes it once per request.
struct DatapathProfile {
  std::map<dfg::OpKind, std::pair<std::int64_t, Bits>> ops_by_kind;
  double select_bits = 0.0;
};

/// The profile of `g`.
DatapathProfile datapath_profile(const dfg::Graph& g);

/// Estimates the datapath for graph `g`, whose datapath_profile() is
/// `profile`, scheduled as `schedule` with functional-unit allocation
/// `fu_alloc` (units per op kind).
///
/// Multiplexers come from three sources: operand steering of shared
/// functional units ((ops - units) * operands * width per kind), register
/// input sharing (one 2:1 per stored bit, most likely), and explicit
/// Select operations (width muxes each). The mux count carries
/// (0.85x, 1x, 1.1x) uncertainty — exact steering depends on binding, which
/// prediction intentionally skips.
DatapathEstimate estimate_datapath(const dfg::Graph& g,
                                   const DatapathProfile& profile,
                                   std::span<const Cycles> latency,
                                   const sched::OpSchedule& schedule,
                                   const std::map<dfg::OpKind, int>& fu_alloc,
                                   const lib::ComponentLibrary& library);

}  // namespace chop::bad
