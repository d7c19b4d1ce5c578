// ChopSession — the public facade of the partitioner, mirroring the
// designer loop of the paper's Figure 1: create/modify partitions, run
// BAD per partition (with level-1 pruning), search for feasible global
// implementations, inspect the guideline output, modify, repeat.
//
// Two ways to drive the modify half of the loop:
//  * the legacy setters (mutate_partitioning / set_constraints /
//    set_clocking) followed by predict_partitions() + search(), and
//  * the revisioned incremental pipeline: apply(EvalDelta) + research().
//    apply() patches the session state through a structured §2.7 delta
//    and reports which partitions it dirtied; research() then re-runs
//    only the invalidated work — per-partition prediction reuse and the
//    session evaluator's two-level memo — while returning a result
//    byte-identical to a cold predict+search of the same state (the
//    equality oracle in chop_fuzz and tests/eval_delta_test enforce
//    this).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "bad/predictor.hpp"
#include "core/eval/candidate_evaluator.hpp"
#include "core/eval/eval_delta.hpp"
#include "core/partitioning.hpp"
#include "core/search.hpp"

namespace chop::core {

class PredictionCache;

/// Complete experiment configuration (paper §2.2 input group 6, plus the
/// §5 testability extension).
struct ChopConfig {
  bad::ArchitectureStyle style;
  bad::ClockSpec clocks;
  DesignConstraints constraints;
  FeasibilityCriteria criteria;
  bad::PredictorOptions predictor;
  bad::TestabilityOptions testability;
};

/// Statistics of one predict-partitions pass (Tables 3/5 rows).
struct PredictionStats {
  std::size_t total = 0;     ///< Raw predictions from BAD.
  std::size_t feasible = 0;  ///< After level-1 pruning (feasible, non-inferior).
  /// Partitions whose raw BAD run was skipped because nothing the
  /// prediction depends on changed since the last pass.
  std::size_t reused = 0;
};

/// The interactive partitioning session. Owns the partitioning state;
/// references the specification and library, which must outlive it.
class ChopSession {
 public:
  ChopSession(const lib::ComponentLibrary& library, Partitioning partitioning,
              ChopConfig config);

  /// The library is referenced, not copied — a temporary would dangle.
  ChopSession(lib::ComponentLibrary&&, Partitioning, ChopConfig) = delete;

  const Partitioning& partitioning() const { return partitioning_; }

  /// Mutable access for applying §2.7 modifications; invalidates any
  /// stored predictions so a stale search cannot follow a structural edit.
  /// The reference is good for one edit: call again for the next one.
  Partitioning& mutate_partitioning() {
    predictions_valid_ = false;
    keys_valid_ = false;
    return partitioning_;
  }

  const ChopConfig& config() const { return config_; }

  /// Replaces the constraint budget (a §2.7 "Constraints" modification).
  void set_constraints(const DesignConstraints& constraints);

  /// Replaces the architecture style and clock family (§2.2 input group 6
  /// — "the clock cycle is an input to the system"). Invalidates stored
  /// predictions.
  void set_clocking(const bad::ArchitectureStyle& style,
                    const bad::ClockSpec& clocks);

  /// Monotone revision counter: 0 at construction, bumped by every
  /// apply() — including no-op deltas, so a revision id names an apply
  /// event, not a distinct state.
  std::uint64_t revision() const { return revision_; }

  /// Applies one structured §2.7 modification and reports its impact:
  /// which partitions now need fresh predictions, whether the delta was a
  /// no-op (state fingerprint unchanged), and whether it only moved the
  /// constraint budget (integration cores stay reusable). A no-op keeps
  /// every cached artifact valid, so the following research() does zero
  /// new work. Throws chop::Error (strong guarantee on config, but the
  /// partitioning may have been patched) if the delta is invalid against
  /// the current state.
  DeltaImpact apply(const EvalDelta& delta);

  /// The incremental counterpart of predict_partitions() + search():
  /// refreshes predictions if needed (reusing every partition whose
  /// inputs are unchanged) and runs the search on the session evaluator.
  /// The returned result is byte-identical to a cold session's
  /// predict+search of the same state.
  /// Plain repeated calls with unchanged state and equivalent options are
  /// answered from a one-deep result cache (skipped when options carry an
  /// observer, cancel flag, or deadline).
  SearchResult research(const SearchOptions& options);

  /// Runs BAD on every partition and applies level-1 pruning. Stores the
  /// lists for subsequent search() calls and returns the Table-3/5 stats.
  PredictionStats predict_partitions();

  /// Shares pruned prediction lists with every other session on `cache`
  /// (not owned; must outlive the session's predict passes; null
  /// detaches). Partitions whose content key is already cached skip BAD.
  /// An attached session keeps eligible lists only — predictions().raw is
  /// empty, raw_counts carries the Table-3/5 counts — so only pruned
  /// searches can run on it. Invalidates stored predictions.
  void share_predictions(PredictionCache* cache);

  /// Per-partition prediction lists from the last predict_partitions().
  const PartitionPredictions& predictions() const { return predictions_; }

  /// Data transfer tasks of the current partitioning.
  std::vector<DataTransfer> transfer_tasks() const;

  /// The evaluation context for the current partitioning + configuration:
  /// the (partitioning, transfers, clocks, constraints, criteria,
  /// extra-pins) tuple every integrate() needs. The returned context
  /// references this session's partitioning — keep the session alive.
  EvalContext make_eval_context() const;

  /// The session-lifetime memo cache. Every search() on this session
  /// shares it, so clock sweeps and repeated searches over unchanged
  /// state hit the cache; content-hashed keys make entries from stale
  /// configurations harmless (they simply stop matching).
  CandidateEvaluator& evaluator() const { return *evaluator_; }

  /// Runs a search over the stored predictions. predict_partitions() must
  /// have been called since the last structural modification. When
  /// options.evaluator is null the session's own evaluator is used.
  SearchResult search(const SearchOptions& options) const;

  /// Renders the designer guideline for one feasible design (the §3.1
  /// bullet-list output: per-partition style, module library, allocation,
  /// registers, muxes, plus per-transfer-module predictions).
  std::string guideline(const GlobalDesign& design) const;

 private:
  /// Content keys of one partition's prediction lists. raw digests
  /// everything the raw BAD run reads (the partition subgraph's
  /// structure, the library, and predict_env_key(): clocking,
  /// testability, memory subsystem, predictor sweep); eligible
  /// additionally digests what level-1 pruning reads (the chip's usable
  /// area, the constraint budget, the feasibility criteria). Neither
  /// depends on the partition's index, member order or op names, so equal
  /// keys imply identical lists in any session — eligible is also the
  /// shared PredictionCache key.
  struct PartitionKeys {
    std::uint64_t raw = 0;
    std::uint64_t eligible = 0;
  };

  /// The keys the last predict pass stored per partition, deciding reuse.
  struct PartitionPredictState {
    PartitionKeys keys;
    bool valid = false;
  };

  std::uint64_t predict_env_key() const;
  PartitionKeys keys_for(std::size_t p, std::uint64_t env_key,
                         const dfg::Graph& subgraph) const;
  /// Keys of every partition in the current state, built at most once per
  /// state: memoized until the next modification.
  const std::vector<PartitionKeys>& partition_keys();

  const lib::ComponentLibrary* library_;
  std::uint64_t library_key_;  ///< library_fingerprint(*library_).
  Partitioning partitioning_;
  ChopConfig config_;
  PartitionPredictions predictions_;
  bool predictions_valid_ = false;
  std::uint64_t revision_ = 0;
  std::vector<PartitionPredictState> predict_cache_;
  std::vector<PartitionKeys> keys_;
  bool keys_valid_ = false;
  PredictionCache* shared_predictions_ = nullptr;
  /// One-deep research() result cache, content-keyed on the evaluation
  /// context, the prediction-list keys, and the deterministic options.
  bool last_result_valid_ = false;
  std::uint64_t last_result_key_ = 0;
  SearchResult last_result_;
  /// Session-lifetime memo cache for integrate(); behind a pointer so the
  /// session stays movable (the cache holds mutexes), mutable because
  /// caching is invisible to the session's logical state (search() stays
  /// const). Never null.
  mutable std::unique_ptr<CandidateEvaluator> evaluator_;
};

}  // namespace chop::core
