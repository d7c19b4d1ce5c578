// Operation scheduling inside one partition.
//
// BAD's prediction engine needs, for every (module set, allocation, design
// style) candidate, the number of control steps a resource-constrained
// schedule takes — nonpipelined — and, for pipelined designs, whether a
// given initiation interval is achievable (the Sehwa-style question, paper
// ref [8]). Both are answered by priority list scheduling with ALAP-based
// urgency; the pipelined variant adds modulo-II resource reservation.
#pragma once

#include <map>
#include <span>
#include <vector>

#include "dfg/analysis.hpp"
#include "dfg/graph.hpp"
#include "util/units.hpp"

namespace chop::sched {

/// Resource limits a schedule must respect: functional units per operation
/// kind and ports per memory block. Kinds/blocks absent from the maps are
/// unconstrained (treated as unlimited — used by ASAP bounds).
struct ResourceLimits {
  std::map<dfg::OpKind, int> fu;
  std::map<int, int> memory_ports;

  /// Limit applying to `node`, or 0 if the node consumes no resource.
  /// Returns -1 for "unlimited".
  int limit_for(const dfg::Node& node) const;
};

/// Result of a scheduling attempt. `start` is indexed by NodeId; `length`
/// counts control steps (datapath cycles); `initiation_interval` equals
/// `length` for nonpipelined schedules and the requested II for pipelined
/// ones. `feasible == false` means no schedule satisfied the constraints
/// (only possible for pipelined attempts — a nonpipelined list schedule
/// always completes).
struct OpSchedule {
  std::vector<Cycles> start;
  Cycles length = 0;
  Cycles initiation_interval = 0;
  bool feasible = false;
};

/// The part of list and modulo scheduling that depends only on the graph
/// and the latencies, not on the resource limits or the II: the resource
/// class of each node and its busy cycles, the scheduling horizon and the
/// order in which the list scheduler places nodes. BAD schedules one
/// module set's latencies under every allocation and every II, so it
/// builds one plan per module set. The plan refers to `g` and `latency`;
/// both must outlive it.
class SchedulePlan {
 public:
  /// Throws chop::Error when `latency` does not match `g` or `g` is cyclic.
  SchedulePlan(const dfg::Graph& g, std::span<const Cycles> latency);

  const dfg::Graph& graph() const { return *graph_; }

 private:
  friend OpSchedule list_schedule(const SchedulePlan&, const ResourceLimits&);
  friend OpSchedule pipeline_schedule(const SchedulePlan&,
                                      const ResourceLimits&, Cycles);
  friend Cycles min_initiation_interval(const SchedulePlan&,
                                        const ResourceLimits&);

  /// Shared core of the schedulers; `ii == 0` means nonpipelined.
  OpSchedule schedule(const ResourceLimits& limits, Cycles ii) const;

  const dfg::Graph* graph_;
  std::span<const Cycles> latency_;
  /// Resource class per node, -1 for nodes that use no resource.
  std::vector<int> class_of_;
  /// One member node per class (its kind or memory block names the
  /// class) and the class's summed latency.
  std::vector<dfg::NodeId> class_node_;
  std::vector<Cycles> class_busy_;
  /// Placement order of the list scheduler: by ALAP, then ASAP, then id,
  /// but a node only once all its predecessors are placed.
  std::vector<dfg::NodeId> placement_;
  /// Predecessors of node i: pred_[pred_begin_[i] .. pred_begin_[i+1]).
  std::vector<std::size_t> pred_begin_;
  std::vector<dfg::NodeId> pred_;
  /// Critical path + total latency + 4; the II is added when pipelining.
  Cycles horizon_ = 0;
};

/// Nonpipelined resource-constrained list scheduling with ALAP urgency.
/// `latency` is per node, in datapath cycles (zero-latency nodes occupy no
/// resources and no time).
OpSchedule list_schedule(const SchedulePlan& plan,
                         const ResourceLimits& limits);
OpSchedule list_schedule(const dfg::Graph& g, std::span<const Cycles> latency,
                         const ResourceLimits& limits);

/// Pipelined (modulo) list scheduling at initiation interval `ii`: every
/// resource is reserved in the occupied cycles *modulo ii* so overlapped
/// iterations never oversubscribe a unit. Returns feasible == false when
/// no placement exists within the scheduling horizon.
OpSchedule pipeline_schedule(const SchedulePlan& plan,
                             const ResourceLimits& limits, Cycles ii);
OpSchedule pipeline_schedule(const dfg::Graph& g,
                             std::span<const Cycles> latency,
                             const ResourceLimits& limits, Cycles ii);

/// Sehwa-style lower bound on the initiation interval:
/// max over resource classes of ceil(total busy cycles / unit count).
Cycles min_initiation_interval(const SchedulePlan& plan,
                               const ResourceLimits& limits);
Cycles min_initiation_interval(const dfg::Graph& g,
                               std::span<const Cycles> latency,
                               const ResourceLimits& limits);

}  // namespace chop::sched
