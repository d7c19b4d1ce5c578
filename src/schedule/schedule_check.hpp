// Independent validity check of an operation schedule. It shares no code
// with the list and modulo schedulers: it rebuilds per-cycle and
// per-phase resource usage from the start times alone, so a scheduler bug
// that breaks precedence or oversubscribes a unit cannot hide behind the
// scheduler's own bookkeeping.
#pragma once

#include <span>
#include <string>

#include "dfg/graph.hpp"
#include "schedule/op_schedule.hpp"
#include "util/units.hpp"

namespace chop::sched {

struct ScheduleCheck {
  bool ok = false;
  std::string detail;  ///< First violated rule; empty when ok.
};

/// Verifies a feasible `schedule` of `g`:
///  - every node starts at cycle >= 0 and `length` is the latest finish;
///  - every edge's consumer starts no earlier than its producer finishes;
///  - in no cycle do more operations of a functional-unit kind, or more
///    accesses to a memory block, run than `limits` allows;
///  - in no phase modulo the initiation interval either, so overlapped
///    iterations of a pipelined schedule never share a unit. As in the
///    modulo scheduler's reservation model, an operation counts once in
///    each phase it touches, however long it runs. (For a nonpipelined
///    schedule the II is its length and this check adds nothing.)
/// Zero-latency nodes use no resource. Never throws on a bad schedule.
ScheduleCheck check_schedule(const dfg::Graph& g,
                             std::span<const Cycles> latency,
                             const OpSchedule& schedule,
                             const ResourceLimits& limits);

}  // namespace chop::sched
