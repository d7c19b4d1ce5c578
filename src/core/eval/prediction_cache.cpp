#include "core/eval/prediction_cache.hpp"

#include "core/eval/fingerprint.hpp"
#include "obs/metrics.hpp"

namespace chop::core {

std::uint64_t graph_digest(const dfg::Graph& g) {
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(g.node_count()));
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const dfg::Node& n = g.node(static_cast<dfg::NodeId>(i));
    h.mix(static_cast<std::int32_t>(n.kind));
    h.mix(n.width);
    h.mix(static_cast<std::int32_t>(n.memory_block));
    h.mix(static_cast<std::int32_t>(n.constant ? 1 : 0));
  }
  h.mix(static_cast<std::uint64_t>(g.edge_count()));
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const dfg::Edge& edge = g.edge(static_cast<dfg::EdgeId>(e));
    h.mix(edge.src);
    h.mix(edge.dst);
    h.mix(edge.width);
  }
  return h.digest();
}

std::uint64_t library_fingerprint(const lib::ComponentLibrary& library) {
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(library.modules().size()));
  for (const lib::ModuleSpec& m : library.modules()) {
    h.mix(m.name);
    h.mix(static_cast<std::int32_t>(m.op));
    h.mix(m.width);
    h.mix(m.area);
    h.mix(m.delay);
    h.mix(m.active_power_mw);
  }
  for (const lib::BitCellSpec cell :
       {library.register_bit(), library.mux_bit()}) {
    h.mix(cell.area);
    h.mix(cell.delay);
  }
  const lib::TechnologyParams& tech = library.technology();
  h.mix(tech.pla_crosspoint_area);
  h.mix(tech.pla_base_delay);
  h.mix(tech.pla_delay_per_term);
  h.mix(tech.wiring_area_fraction);
  h.mix(tech.wiring_delay_fraction);
  h.mix(tech.power_per_area_mw);
  h.mix(tech.idle_power_fraction);
  h.mix(tech.support_power_per_area_mw);
  h.mix(tech.pad_power_mw);
  return h.digest();
}

PredictionCache::PredictionCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const CachedPrediction> PredictionCache::find(
    std::uint64_t key) {
  static obs::Counter& hits =
      obs::MetricsRegistry::global().counter("bad.prediction_cache.hits");
  static obs::Counter& misses =
      obs::MetricsRegistry::global().counter("bad.prediction_cache.misses");

  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    misses.add();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  hits.add();
  return it->second->second;
}

void PredictionCache::insert(std::uint64_t key,
                             std::shared_ptr<const CachedPrediction> entry) {
  static obs::Counter& evictions =
      obs::MetricsRegistry::global().counter("bad.prediction_cache.evictions");
  static obs::Gauge& entries =
      obs::MetricsRegistry::global().gauge("bad.prediction_cache.entries");

  std::lock_guard<std::mutex> lock(mu_);
  if (index_.count(key) != 0) return;
  lru_.emplace_front(key, std::move(entry));
  index_.emplace(key, lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
    evictions.add();
  }
  stats_.entries = lru_.size();
  entries.set(static_cast<double>(stats_.entries));
}

PredictionCache::Stats PredictionCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace chop::core
