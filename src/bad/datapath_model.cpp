#include "bad/datapath_model.hpp"

#include <algorithm>
#include <cmath>

#include "schedule/register_demand.hpp"

namespace chop::bad {

DatapathProfile datapath_profile(const dfg::Graph& g) {
  DatapathProfile profile;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const dfg::Node& n = g.node(static_cast<dfg::NodeId>(i));
    if (dfg::needs_functional_unit(n.kind)) {
      auto& [count, width] = profile.ops_by_kind[n.kind];
      ++count;
      width = std::max(width, n.width);
    } else if (n.kind == dfg::OpKind::Select) {
      profile.select_bits += static_cast<double>(n.width);
    }
  }
  return profile;
}

DatapathEstimate estimate_datapath(const dfg::Graph& g,
                                   const DatapathProfile& profile,
                                   std::span<const Cycles> latency,
                                   const sched::OpSchedule& schedule,
                                   const std::map<dfg::OpKind, int>& fu_alloc,
                                   const lib::ComponentLibrary& library) {
  DatapathEstimate out;
  out.register_bits = sched::register_demand(g, latency, schedule);

  // Mux sources: FU operand sharing, register write sharing, selects.
  double mux_likely = profile.select_bits;
  int worst_sharing = 1;
  for (const auto& [kind, stat] : profile.ops_by_kind) {
    const auto& [count, width] = stat;
    auto it = fu_alloc.find(kind);
    const int units = it == fu_alloc.end() ? static_cast<int>(count)
                                           : std::max(1, it->second);
    if (count > units) {
      const std::int64_t shared = count - units;
      mux_likely += static_cast<double>(shared * 2 * width);
      worst_sharing = std::max(
          worst_sharing,
          static_cast<int>((count + units - 1) / units));
    }
  }
  // Register write steering: most likely one 2:1 per stored bit.
  mux_likely += static_cast<double>(out.register_bits);

  out.mux_count = StatVal(0.85 * mux_likely, mux_likely, 1.1 * mux_likely);
  out.mux_levels =
      1 + static_cast<int>(std::ceil(std::log2(std::max(2, worst_sharing))));
  out.mux_levels = std::min(out.mux_levels, 4);

  const lib::BitCellSpec reg = library.register_bit();
  const lib::BitCellSpec mux = library.mux_bit();
  out.register_area =
      StatVal(static_cast<double>(out.register_bits)) * reg.area;
  // Registers themselves carry little count uncertainty (lifetimes are
  // measured), but allocation may merge/split words: +/-10%/+20%.
  out.register_area = StatVal(out.register_area.likely() * 0.95,
                              out.register_area.likely(),
                              out.register_area.likely() * 1.1);
  out.mux_area = out.mux_count * mux.area;
  out.steering_delay =
      reg.delay + static_cast<double>(out.mux_levels) * mux.delay;
  return out;
}

}  // namespace chop::bad
