#include "bad/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "bad/controller_model.hpp"
#include "bad/datapath_model.hpp"
#include "bad/latency_model.hpp"
#include "bad/power_model.hpp"
#include "library/module_set.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "schedule/op_schedule.hpp"

namespace chop::bad {

namespace {

/// Memory accesses per block in `g`.
std::map<int, int> memory_profile(const dfg::Graph& g) {
  std::map<int, int> accesses;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const dfg::Node& n = g.node(static_cast<dfg::NodeId>(i));
    if (n.kind == dfg::OpKind::MemRead || n.kind == dfg::OpKind::MemWrite) {
      accesses[n.memory_block]++;
    }
  }
  return accesses;
}

/// One scheduled point of a latency class: what make_prediction reads of
/// its schedule, without the schedule itself.
struct ScheduledPoint {
  std::size_t alloc = 0;  ///< Index into the request's allocation sweep.
  DesignStyle style = DesignStyle::Nonpipelined;
  Cycles length = 0;
  Cycles initiation_interval = 0;
  /// Before the scan-design adjustment, which make_prediction applies.
  DatapathEstimate datapath;
};

/// The scheduling sweep of one latency vector. Schedules, initiation
/// intervals and datapath estimates depend on a module set only through
/// its operation latencies, so every module set with the same vector
/// shares one sweep (under single-cycle clocking that is every eligible
/// set).
struct LatencyClass {
  std::vector<Cycles> latency;
  /// busy_cycles_by_kind(g, latency).
  std::map<dfg::OpKind, Cycles> busy_cycles;
  /// Every feasible point, in prediction order: per allocation the
  /// nonpipelined schedule, then each feasible II.
  std::vector<ScheduledPoint> points;
};

/// Builds the full DesignPrediction of module set `set` at one point of
/// its latency class, whose busy cycles per kind are `busy_cycles`.
DesignPrediction make_prediction(
    const PredictionRequest& req, const lib::ModuleSet& set,
    const std::map<dfg::OpKind, Cycles>& busy_cycles,
    const std::map<dfg::OpKind, int>& alloc,
    const ScheduledPoint& point, const std::map<int, int>& memory_accesses) {
  const lib::TechnologyParams& tech = req.library->technology();

  DesignPrediction p;
  p.style = point.style;
  p.module_set_label = set.label();
  for (const auto& [kind, module] : set.choices()) {
    p.module_names[kind] = module->name;
  }
  p.fu_alloc = alloc;
  p.stages = std::max<Cycles>(1, point.length);
  p.ii_dp = point.style == DesignStyle::Pipelined ? point.initiation_interval
                                                  : p.stages;
  p.ii_main = p.ii_dp * req.clocks.datapath_multiplier;
  p.latency_main = p.stages * req.clocks.datapath_multiplier;

  DatapathEstimate dp = point.datapath;
  // Scan-design overheads (§5): heavier registers, a scan mux on the
  // register setup path, a fatter controller.
  const TestabilityOptions& test = req.testability;
  if (test.scan_design) {
    dp.register_area = dp.register_area * test.register_area_factor;
    dp.steering_delay += test.register_delay_penalty_ns;
  }
  p.register_bits = dp.register_bits;
  p.mux_count_likely = dp.mux_count.likely();

  // Functional unit area is exact given the allocation.
  double fu_area = 0.0;
  int fu_total = 0;
  for (const auto& [kind, count] : alloc) {
    fu_area += static_cast<double>(count) * set.module_for(kind).area;
    fu_total += count;
  }
  p.fu_area = StatVal(fu_area);
  p.register_area = dp.register_area;
  p.mux_area = dp.mux_area;

  Bits max_width = 1;
  for (const auto& [kind, module] : set.choices()) {
    max_width = std::max(max_width, module->width);
  }
  const int register_words = static_cast<int>(
      (p.register_bits + max_width - 1) / std::max<Bits>(1, max_width));
  const PlaEstimate pla = estimate_controller(
      p.stages, fu_total, register_words,
      static_cast<int>(dp.mux_count.likely()), tech);
  p.controller_area = test.scan_design
                          ? pla.area * test.controller_area_factor
                          : pla.area;

  const double placed = p.fu_area.likely() + p.register_area.likely() +
                        p.mux_area.likely() + p.controller_area.likely();
  p.wiring_area = tech.wiring_area_fraction * placed;
  p.total_area = p.fu_area + p.register_area + p.mux_area +
                 p.controller_area + p.wiring_area;

  // Per-datapath-cycle overhead: steering + wiring share + controller,
  // amortized over the datapath multiplier onto the main clock.
  const Ns wiring_delay =
      tech.wiring_delay_fraction.likely() * (dp.steering_delay + pla.delay);
  const Ns dp_overhead = dp.steering_delay + pla.delay + wiring_delay;
  p.clock_overhead_ns =
      dp_overhead / static_cast<double>(req.clocks.datapath_multiplier);

  const AreaMil2 support_area = p.register_area.likely() +
                                p.mux_area.likely() +
                                p.controller_area.likely();
  p.power_mw = estimate_datapath_power(set, alloc, busy_cycles, p.ii_dp,
                                       support_area, tech);

  p.memory_accesses = memory_accesses;
  return p;
}

/// Allocation sweep: cartesian product of per-kind unit counts, each
/// count from `unit_sweep` up to the kind's operation count in `g` (or
/// that count alone when every sweep value exceeds it).
std::vector<std::map<dfg::OpKind, int>> allocation_sweep(
    const dfg::Graph& g, std::span<const dfg::OpKind> kinds,
    const std::vector<int>& unit_sweep) {
  std::vector<std::map<dfg::OpKind, int>> allocs{{}};
  for (dfg::OpKind kind : kinds) {
    const int ops = static_cast<int>(g.count_of_kind(kind));
    std::vector<int> counts;
    for (int v : unit_sweep) {
      if (v <= ops) counts.push_back(v);
    }
    if (counts.empty()) counts.push_back(ops);
    std::vector<std::map<dfg::OpKind, int>> next;
    next.reserve(allocs.size() * counts.size());
    for (const auto& base : allocs) {
      for (int c : counts) {
        auto extended = base;
        extended[kind] = c;
        next.push_back(std::move(extended));
      }
    }
    allocs = std::move(next);
  }
  return allocs;
}

}  // namespace

Predictor::Predictor(PredictorOptions options) : options_(std::move(options)) {
  CHOP_REQUIRE(!options_.unit_sweep.empty(),
               "predictor unit sweep must not be empty");
  for (int v : options_.unit_sweep) {
    CHOP_REQUIRE(v >= 1, "unit sweep entries must be positive");
  }
}

std::vector<DesignPrediction> Predictor::predict(
    const PredictionRequest& req) const {
  obs::TraceSpan span("bad.predict");
  CHOP_REQUIRE(req.graph != nullptr, "prediction request needs a graph");
  CHOP_REQUIRE(req.library != nullptr, "prediction request needs a library");
  req.clocks.validate();
  req.testability.validate();
  req.graph->validate();

  const dfg::Graph& g = *req.graph;
  const std::vector<dfg::OpKind> kinds = lib::functional_kinds(g);
  CHOP_REQUIRE(req.library->covers(kinds),
               "component library does not cover the graph");

  // Steering-delay guess for module-set eligibility under the single-cycle
  // style: a register plus two mux levels — refined per design point later,
  // but eligibility needs a number before the datapath is sized.
  const lib::BitCellSpec reg = req.library->register_bit();
  const lib::BitCellSpec mux = req.library->mux_bit();
  const Ns eligibility_overhead = reg.delay + 2.0 * mux.delay;

  static obs::Counter& module_sets =
      obs::MetricsRegistry::global().counter("bad.module_sets");
  static obs::Counter& schedules =
      obs::MetricsRegistry::global().counter("bad.schedules");

  const std::map<int, int> memory_accesses = memory_profile(g);
  const DatapathProfile profile = datapath_profile(g);
  const std::vector<std::map<dfg::OpKind, int>> allocs =
      allocation_sweep(g, kinds, options_.unit_sweep);

  // Runs the scheduling sweep of `cls.latency`: per allocation the
  // nonpipelined list schedule, then every II from the resource bound up
  // to the cap.
  const auto sweep = [&](LatencyClass& cls) {
    const sched::SchedulePlan plan(g, cls.latency);
    for (std::size_t a = 0; a < allocs.size(); ++a) {
      sched::ResourceLimits limits;
      limits.fu = allocs[a];
      limits.memory_ports = req.memory_ports;
      const auto record = [&](const sched::OpSchedule& schedule,
                              DesignStyle style) {
        cls.points.push_back(
            {a, style, schedule.length, schedule.initiation_interval,
             estimate_datapath(g, profile, cls.latency, schedule, allocs[a],
                               *req.library)});
      };

      const sched::OpSchedule nonpipe = sched::list_schedule(plan, limits);
      schedules.add();
      CHOP_ASSERT(nonpipe.feasible, "nonpipelined list schedule cannot fail");
      record(nonpipe, DesignStyle::Nonpipelined);
      const Cycles stages = std::max<Cycles>(1, nonpipe.length);

      if (!req.style.allow_pipelining || stages <= 1) continue;
      const Cycles min_ii =
          std::max<Cycles>(1, sched::min_initiation_interval(plan, limits));
      Cycles ii_cap = stages - 1;
      if (req.max_ii_dp > 0) ii_cap = std::min(ii_cap, req.max_ii_dp);
      for (Cycles ii = min_ii; ii <= ii_cap; ++ii) {
        const sched::OpSchedule pipe =
            sched::pipeline_schedule(plan, limits, ii);
        schedules.add();
        if (pipe.feasible) record(pipe, DesignStyle::Pipelined);
      }
    }
  };

  std::vector<LatencyClass> classes;
  std::vector<DesignPrediction> out;
  for (const lib::ModuleSet& set :
       lib::enumerate_module_sets(*req.library, kinds)) {
    auto latency =
        operation_latencies(g, set, req.style.clocking, req.clocks,
                            eligibility_overhead, req.memory_access_time);
    if (!latency) continue;  // single-cycle: module set does not fit
    module_sets.add();
    auto cls = std::find_if(
        classes.begin(), classes.end(),
        [&](const LatencyClass& c) { return c.latency == *latency; });
    if (cls == classes.end()) {
      LatencyClass fresh;
      fresh.latency = std::move(*latency);
      fresh.busy_cycles = busy_cycles_by_kind(g, fresh.latency);
      sweep(fresh);
      cls = classes.insert(classes.end(), std::move(fresh));
    }
    for (const ScheduledPoint& point : cls->points) {
      out.push_back(make_prediction(req, set, cls->busy_cycles,
                                    allocs[point.alloc], point,
                                    memory_accesses));
    }
  }
  static obs::Counter& raw =
      obs::MetricsRegistry::global().counter("bad.predictions_raw");
  raw.add(out.size());
  span.arg("predictions", out.size());
  return out;
}

}  // namespace chop::bad
