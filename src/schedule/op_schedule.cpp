#include "schedule/op_schedule.hpp"

#include <algorithm>
#include <numeric>

namespace chop::sched {

namespace {

/// Internal resource-class key: functional-unit kinds map to themselves,
/// memory ops map to a per-block class, everything else to "none".
struct ResourceKey {
  bool used = false;
  bool is_memory = false;
  dfg::OpKind kind = dfg::OpKind::Add;
  int block = -1;

  bool operator==(const ResourceKey&) const = default;
};

ResourceKey key_for(const dfg::Node& node) {
  ResourceKey key;
  if (dfg::needs_functional_unit(node.kind)) {
    key.used = true;
    key.kind = node.kind;
  } else if (node.kind == dfg::OpKind::MemRead ||
             node.kind == dfg::OpKind::MemWrite) {
    key.used = true;
    key.is_memory = true;
    key.block = node.memory_block;
  }
  return key;
}

/// Dense per-class usage timeline (and modulo-II phases for pipelining).
/// Usage only grows while one schedule is built, so a cycle or phase that
/// is full stays full. first_fit uses that to skip starts that cannot fit:
/// runs of full cycles through a union-find of next-open cycles, and
/// starts whose modulo phases are full through the set of open residues.
class UsageTracker {
 public:
  UsageTracker(int capacity, Cycles ii) : capacity_(capacity), ii_(ii) {
    if (ii_ > 0) phase_.assign(static_cast<std::size_t>(ii_), 0);
  }

  /// The first start t in [ready, horizon] at which an operation of
  /// `duration` >= 1 cycles fits — one more unit free in every cycle of
  /// [t, t + duration) and in each modulo phase those cycles touch — or
  /// horizon + 1 when there is none.
  Cycles first_fit(Cycles ready, Cycles duration, Cycles horizon) {
    if (capacity_ < 0) return ready;  // unlimited
    if (capacity_ == 0) return horizon + 1;
    Cycles t = ready;
    while (true) {
      t = open_from(t);
      if (t > horizon) return horizon + 1;
      // A full cycle c inside the window blocks every start up to c.
      Cycles blocked = -1;
      for (Cycles c = t + duration - 1; c > t; --c) {
        if (full(c)) {
          blocked = c;
          break;
        }
      }
      if (blocked >= 0) {
        t = blocked + 1;
        continue;
      }
      if (ii_ > 0) {
        const Cycles skip = distance_to_open_residue(t, duration);
        if (skip < 0) return horizon + 1;  // every residue is blocked
        if (skip > 0) {
          t += skip;
          continue;
        }
      }
      return t;
    }
  }

  void reserve(Cycles t, Cycles duration) {
    if (capacity_ < 0) return;
    if (t + duration > static_cast<Cycles>(timeline_.size())) {
      const std::size_t old_size = timeline_.size();
      timeline_.resize(static_cast<std::size_t>(t + duration), 0);
      next_open_.resize(timeline_.size());
      std::iota(next_open_.begin() + static_cast<std::ptrdiff_t>(old_size),
                next_open_.end(), static_cast<Cycles>(old_size));
    }
    for (Cycles c = t; c < t + duration; ++c) {
      const auto i = static_cast<std::size_t>(c);
      if (++timeline_[i] >= capacity_) next_open_[i] = c + 1;
    }
    if (ii_ > 0) {
      const Cycles span = std::min(duration, ii_);
      for (Cycles j = 0; j < span; ++j) {
        if (++phase_[static_cast<std::size_t>((t + j) % ii_)] >= capacity_) {
          residues_for_ = 0;  // a phase filled up: recompute open residues
        }
      }
    }
  }

 private:
  bool full(Cycles c) const {
    return c < static_cast<Cycles>(timeline_.size()) &&
           timeline_[static_cast<std::size_t>(c)] >= capacity_;
  }

  /// The first cycle >= c that is not full (path-compressing find).
  Cycles open_from(Cycles c) {
    const auto size = static_cast<Cycles>(next_open_.size());
    Cycles root = c;
    while (root < size && next_open_[static_cast<std::size_t>(root)] != root) {
      root = next_open_[static_cast<std::size_t>(root)];
    }
    while (c < size && next_open_[static_cast<std::size_t>(c)] != c) {
      const Cycles next = next_open_[static_cast<std::size_t>(c)];
      next_open_[static_cast<std::size_t>(c)] = root;
      c = next;
    }
    return root;
  }

  /// Steps from t to the next start whose modulo phases all have a free
  /// unit for an operation of `duration` cycles; -1 when no start has.
  Cycles distance_to_open_residue(Cycles t, Cycles duration) {
    if (residues_for_ != duration) {
      const Cycles span = std::min(duration, ii_);
      open_residue_.assign(static_cast<std::size_t>(ii_), true);
      for (Cycles r = 0; r < ii_; ++r) {
        for (Cycles j = 0; j < span; ++j) {
          if (phase_[static_cast<std::size_t>((r + j) % ii_)] >= capacity_) {
            open_residue_[static_cast<std::size_t>(r)] = false;
            break;
          }
        }
      }
      residues_for_ = duration;
    }
    for (Cycles d = 0; d < ii_; ++d) {
      if (open_residue_[static_cast<std::size_t>((t + d) % ii_)]) return d;
    }
    return -1;
  }

  int capacity_;
  Cycles ii_;
  std::vector<int> timeline_;
  /// Union-find over cycles: a cycle that is not full is its own root; a
  /// full cycle points further right.
  std::vector<Cycles> next_open_;
  std::vector<int> phase_;
  /// open_residue_[r]: a start at r mod ii passes the phase check for
  /// operations of residues_for_ cycles (0: stale).
  std::vector<bool> open_residue_;
  Cycles residues_for_ = 0;
};

}  // namespace

int ResourceLimits::limit_for(const dfg::Node& node) const {
  if (dfg::needs_functional_unit(node.kind)) {
    auto it = fu.find(node.kind);
    return it == fu.end() ? -1 : it->second;
  }
  if (node.kind == dfg::OpKind::MemRead ||
      node.kind == dfg::OpKind::MemWrite) {
    auto it = memory_ports.find(node.memory_block);
    return it == memory_ports.end() ? -1 : it->second;
  }
  return 0;
}

SchedulePlan::SchedulePlan(const dfg::Graph& g,
                           std::span<const Cycles> latency)
    : graph_(&g), latency_(latency) {
  CHOP_REQUIRE(latency.size() == g.node_count(),
               "latency vector size must match node count");
  const std::size_t n = g.node_count();
  const dfg::Levels levels = dfg::compute_levels(g, latency);

  // Resource classes present in this graph.
  std::vector<ResourceKey> keys;
  class_of_.assign(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const ResourceKey key = key_for(g.node(static_cast<dfg::NodeId>(i)));
    if (!key.used) continue;
    auto it = std::find(keys.begin(), keys.end(), key);
    if (it == keys.end()) {
      keys.push_back(key);
      class_node_.push_back(static_cast<dfg::NodeId>(i));
      class_busy_.push_back(0);
      it = keys.end() - 1;
    }
    const auto cls = static_cast<std::size_t>(it - keys.begin());
    class_of_[i] = static_cast<int>(cls);
    class_busy_[cls] += latency[i];
  }

  pred_begin_.reserve(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    pred_begin_.push_back(pred_.size());
    for (dfg::EdgeId e : g.fanin(static_cast<dfg::NodeId>(i))) {
      pred_.push_back(g.edge(e).src);
    }
  }
  pred_begin_.push_back(pred_.size());

  // Priority order: ALAP ascending (most urgent first), critical path as
  // tiebreak via ASAP, then id for determinism.
  std::vector<dfg::NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](dfg::NodeId a, dfg::NodeId b) {
    const auto ia = static_cast<std::size_t>(a);
    const auto ib = static_cast<std::size_t>(b);
    if (levels.alap[ia] != levels.alap[ib]) {
      return levels.alap[ia] < levels.alap[ib];
    }
    if (levels.asap[ia] != levels.asap[ib]) {
      return levels.asap[ia] < levels.asap[ib];
    }
    return a < b;
  });

  // The list scheduler sweeps the priority order again and again, placing
  // each node whose predecessors are all placed. A node therefore lands in
  // the sweep of its latest predecessor, or the one after when that
  // predecessor comes later in the order; within a sweep, nodes go in
  // priority order. Neither depends on the limits or the II.
  std::vector<std::size_t> rank(n);
  for (std::size_t k = 0; k < n; ++k) {
    rank[static_cast<std::size_t>(order[k])] = k;
  }
  std::vector<std::size_t> sweep(n, 0);
  for (dfg::NodeId id : g.topological_order()) {
    const auto i = static_cast<std::size_t>(id);
    for (std::size_t k = pred_begin_[i]; k < pred_begin_[i + 1]; ++k) {
      const auto s = static_cast<std::size_t>(pred_[k]);
      sweep[i] = std::max(sweep[i], sweep[s] + (rank[s] > rank[i] ? 1 : 0));
    }
  }
  placement_ = std::move(order);
  std::stable_sort(placement_.begin(), placement_.end(),
                   [&](dfg::NodeId a, dfg::NodeId b) {
                     return sweep[static_cast<std::size_t>(a)] <
                            sweep[static_cast<std::size_t>(b)];
                   });

  // Horizon: generous but finite, so an infeasible II terminates.
  Cycles total_latency = 0;
  for (Cycles l : latency) total_latency += l;
  horizon_ = levels.length + total_latency + 4;
}

OpSchedule SchedulePlan::schedule(const ResourceLimits& limits,
                                  Cycles ii) const {
  const dfg::Graph& g = *graph_;
  std::vector<UsageTracker> trackers;
  trackers.reserve(class_node_.size());
  for (dfg::NodeId member : class_node_) {
    trackers.emplace_back(limits.limit_for(g.node(member)), ii);
  }

  OpSchedule out;
  out.start.assign(g.node_count(), 0);
  out.feasible = true;
  const Cycles horizon = horizon_ + ii;
  for (dfg::NodeId id : placement_) {
    const auto i = static_cast<std::size_t>(id);
    Cycles ready = 0;
    for (std::size_t k = pred_begin_[i]; k < pred_begin_[i + 1]; ++k) {
      const auto s = static_cast<std::size_t>(pred_[k]);
      ready = std::max(ready, out.start[s] + latency_[s]);
    }
    const int cls = class_of_[i];
    Cycles t = ready;
    if (cls >= 0 && latency_[i] > 0) {
      UsageTracker& tracker = trackers[static_cast<std::size_t>(cls)];
      t = tracker.first_fit(ready, latency_[i], horizon);
      if (t > horizon) {
        out.feasible = false;
        return out;
      }
      tracker.reserve(t, latency_[i]);
    }
    out.start[i] = t;
    out.length = std::max(out.length, t + latency_[i]);
  }
  out.initiation_interval = ii > 0 ? ii : out.length;
  return out;
}

OpSchedule list_schedule(const SchedulePlan& plan,
                         const ResourceLimits& limits) {
  return plan.schedule(limits, 0);
}

OpSchedule list_schedule(const dfg::Graph& g, std::span<const Cycles> latency,
                         const ResourceLimits& limits) {
  return list_schedule(SchedulePlan(g, latency), limits);
}

OpSchedule pipeline_schedule(const SchedulePlan& plan,
                             const ResourceLimits& limits, Cycles ii) {
  CHOP_REQUIRE(ii >= 1, "pipeline initiation interval must be positive");
  return plan.schedule(limits, ii);
}

OpSchedule pipeline_schedule(const dfg::Graph& g,
                             std::span<const Cycles> latency,
                             const ResourceLimits& limits, Cycles ii) {
  return pipeline_schedule(SchedulePlan(g, latency), limits, ii);
}

Cycles min_initiation_interval(const SchedulePlan& plan,
                               const ResourceLimits& limits) {
  Cycles bound = 1;
  for (std::size_t c = 0; c < plan.class_node_.size(); ++c) {
    const dfg::Node& member = plan.graph().node(plan.class_node_[c]);
    int units = 0;
    if (dfg::needs_functional_unit(member.kind)) {
      auto it = limits.fu.find(member.kind);
      if (it == limits.fu.end()) continue;
      CHOP_REQUIRE(it->second >= 1, "functional unit count must be positive");
      units = it->second;
    } else {
      auto it = limits.memory_ports.find(member.memory_block);
      if (it == limits.memory_ports.end()) continue;
      CHOP_REQUIRE(it->second >= 1, "memory port count must be positive");
      units = it->second;
    }
    bound = std::max(bound, (plan.class_busy_[c] + units - 1) / units);
  }
  return bound;
}

Cycles min_initiation_interval(const dfg::Graph& g,
                               std::span<const Cycles> latency,
                               const ResourceLimits& limits) {
  return min_initiation_interval(SchedulePlan(g, latency), limits);
}

}  // namespace chop::sched
