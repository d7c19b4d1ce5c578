#include "schedule/schedule_check.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

namespace chop::sched {

namespace {

/// Units available to `node`'s resource class, or -1 when unconstrained
/// or when the node uses no resource.
int units_for(const dfg::Node& node, const ResourceLimits& limits) {
  if (dfg::needs_functional_unit(node.kind)) {
    auto it = limits.fu.find(node.kind);
    return it == limits.fu.end() ? -1 : it->second;
  }
  if (node.kind == dfg::OpKind::MemRead || node.kind == dfg::OpKind::MemWrite) {
    auto it = limits.memory_ports.find(node.memory_block);
    return it == limits.memory_ports.end() ? -1 : it->second;
  }
  return -1;
}

std::string class_name(const dfg::Node& node) {
  return dfg::needs_functional_unit(node.kind)
             ? dfg::to_string(node.kind)
             : "memory block " + std::to_string(node.memory_block);
}

}  // namespace

ScheduleCheck check_schedule(const dfg::Graph& g,
                             std::span<const Cycles> latency,
                             const OpSchedule& schedule,
                             const ResourceLimits& limits) {
  ScheduleCheck out;
  const auto fail = [&](std::string detail) {
    out.detail = std::move(detail);
    return out;
  };
  const std::size_t n = g.node_count();
  if (latency.size() != n || schedule.start.size() != n) {
    return fail("schedule or latency size does not match the graph");
  }
  if (!schedule.feasible) return fail("schedule is marked infeasible");

  Cycles finish = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (schedule.start[i] < 0 || latency[i] < 0) {
      return fail("node " + std::to_string(i) +
                  " has a negative start or latency");
    }
    finish = std::max(finish, schedule.start[i] + latency[i]);
  }
  if (finish != schedule.length) {
    return fail("length " + std::to_string(schedule.length) +
                " but the last node finishes at " + std::to_string(finish));
  }
  const Cycles ii = schedule.initiation_interval;
  if (ii < 1 && finish > 0) return fail("initiation interval below 1");

  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const dfg::Edge& edge = g.edge(static_cast<dfg::EdgeId>(e));
    const auto src = static_cast<std::size_t>(edge.src);
    const auto dst = static_cast<std::size_t>(edge.dst);
    if (schedule.start[dst] < schedule.start[src] + latency[src]) {
      return fail("edge " + std::to_string(edge.src) + "->" +
                  std::to_string(edge.dst) + ": consumer starts at " +
                  std::to_string(schedule.start[dst]) +
                  " before the producer finishes at " +
                  std::to_string(schedule.start[src] + latency[src]));
    }
  }

  // Usage per (resource class, cycle) and per (resource class, phase); a
  // class is (functional-unit kind, -1) or (-1, memory block).
  using Slot = std::tuple<int, int, Cycles>;
  std::map<Slot, int> per_cycle;
  std::map<Slot, int> per_phase;
  for (std::size_t i = 0; i < n; ++i) {
    const dfg::Node& node = g.node(static_cast<dfg::NodeId>(i));
    const int units = units_for(node, limits);
    if (units < 0 || latency[i] == 0) continue;
    const bool memory = !dfg::needs_functional_unit(node.kind);
    const int kind = memory ? -1 : static_cast<int>(node.kind);
    const int block = memory ? node.memory_block : -1;
    const Cycles start = schedule.start[i];
    for (Cycles c = start; c < start + latency[i]; ++c) {
      if (++per_cycle[{kind, block, c}] > units) {
        return fail(class_name(node) + " oversubscribed at cycle " +
                    std::to_string(c) + " (" + std::to_string(units) +
                    " available)");
      }
    }
    for (Cycles c = start; c < start + std::min(latency[i], ii); ++c) {
      if (++per_phase[{kind, block, c % ii}] > units) {
        return fail(class_name(node) + " oversubscribed at phase " +
                    std::to_string(c % ii) + " modulo II " +
                    std::to_string(ii) + " (" + std::to_string(units) +
                    " available)");
      }
    }
  }
  out.ok = true;
  return out;
}

}  // namespace chop::sched
