// PredictionCache — a content-addressed store of pruned BAD prediction
// lists, shared by every session attached to it. A designer's loop
// (paper §2.7) re-asks about partitions it has already seen: a revision
// that moves one operation leaves the other partitions untouched, a
// package swap or a budget change re-prunes the same raw lists, and a
// resubmitted project repeats every partition. Keyed on content, each of
// those is a lookup instead of a fresh module-set sweep.
//
// Key: the session's eligible key — a structural digest of the induced
// partition subgraph (graph_digest: node kinds, widths, memory blocks,
// constant flags and edges; no op names, no partition index), the
// component library's content (library_fingerprint), the prediction
// environment (clocking, testability, predictor sweep, memory ports and
// access times) and the level-1 pruning inputs (the chip's usable area,
// the constraint budget, the feasibility criteria). Equal keys imply
// identical lists by construction, so an entry may serve any session,
// project or partition number.
//
// Entry: the raw prediction count (the Table-3/5 figure) plus the
// eligible list only. Raw lists are ~100x longer than eligible ones and
// only keep-all searches read them, so a session on a shared cache keeps
// no raw lists and can only be searched with pruning on.
//
// Eviction: least-recently-used, at most `capacity` entries. Eviction
// only costs a repeat prediction later; results never depend on
// residency.
//
// Thread safety: every member is safe to call concurrently. Two sessions
// missing the same key both predict; the lists are identical, so which
// insert wins does not matter.
//
// Observability: global counters `bad.prediction_cache.hits`,
// `bad.prediction_cache.misses`, `bad.prediction_cache.evictions`, the
// gauge `bad.prediction_cache.entries`, and per-instance stats().
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bad/prediction.hpp"
#include "dfg/graph.hpp"
#include "library/component_library.hpp"

namespace chop::core {

/// Digest of everything BAD reads from a partition's standalone graph:
/// per node (in id order) its kind, width, memory block and constant
/// flag, and per edge (in id order) its source, sink and width.
std::uint64_t graph_digest(const dfg::Graph& g);

/// Digest of a component library's content: every module (name, kind,
/// width, area, delay, power) in registration order, the register and
/// mux bit cells, and the technology parameters.
std::uint64_t library_fingerprint(const lib::ComponentLibrary& library);

/// One partition's pruned prediction outcome.
struct CachedPrediction {
  std::size_t raw_count = 0;  ///< Raw predictions BAD produced.
  std::vector<bad::DesignPrediction> eligible;  ///< After level-1 pruning.
};

class PredictionCache {
 public:
  /// Entries held by default. On the AR filter an entry holds ~10
  /// eligible predictions in ~7 KB of heap, so a full cache is ~7 MB. A
  /// 30 s designer_serve run makes ~1,300 distinct entries; at this
  /// capacity it keeps nearly all of their hits.
  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit PredictionCache(std::size_t capacity = kDefaultCapacity);

  PredictionCache(const PredictionCache&) = delete;
  PredictionCache& operator=(const PredictionCache&) = delete;

  /// The entry stored under `key`, or null. A hit becomes the most
  /// recently used entry.
  std::shared_ptr<const CachedPrediction> find(std::uint64_t key);

  /// Stores `entry` under `key` (an existing entry is kept: equal keys
  /// hold equal lists) and evicts the least recently used entries beyond
  /// the capacity.
  void insert(std::uint64_t key, std::shared_ptr<const CachedPrediction> entry);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;  ///< Currently held.
  };
  Stats stats() const;

 private:
  using Slot =
      std::pair<std::uint64_t, std::shared_ptr<const CachedPrediction>>;

  mutable std::mutex mu_;
  std::list<Slot> lru_;  ///< Most recently used first.
  std::unordered_map<std::uint64_t, std::list<Slot>::iterator> index_;
  const std::size_t capacity_;
  Stats stats_;
};

}  // namespace chop::core
