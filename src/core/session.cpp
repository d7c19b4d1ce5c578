#include "core/session.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <utility>

#include "core/eval/fingerprint.hpp"
#include "core/eval/prediction_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_profile.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace chop::core {

namespace {

Cycles max_ii_dp_for(const ChopConfig& config) {
  const Cycles max_ii_main = static_cast<Cycles>(
      config.constraints.performance_ns / config.clocks.main_clock);
  return std::max<Cycles>(1, max_ii_main / config.clocks.datapath_multiplier);
}

}  // namespace

ChopSession::ChopSession(const lib::ComponentLibrary& library,
                         Partitioning partitioning, ChopConfig config)
    : library_(&library),
      library_key_(library_fingerprint(library)),
      partitioning_(std::move(partitioning)),
      config_(std::move(config)),
      evaluator_(std::make_unique<CandidateEvaluator>()) {
  config_.clocks.validate();
  config_.constraints.validate();
  config_.criteria.validate();
  partitioning_.validate();
}

void ChopSession::set_constraints(const DesignConstraints& constraints) {
  constraints.validate();
  config_.constraints = constraints;
  predictions_valid_ = false;  // level-1 pruning depends on the budget
  keys_valid_ = false;
}

void ChopSession::set_clocking(const bad::ArchitectureStyle& style,
                               const bad::ClockSpec& clocks) {
  clocks.validate();
  config_.style = style;
  config_.clocks = clocks;
  predictions_valid_ = false;  // every prediction depends on the clocks
  keys_valid_ = false;
}

void ChopSession::share_predictions(PredictionCache* cache) {
  shared_predictions_ = cache;
  predictions_ = PartitionPredictions{};
  predict_cache_.clear();
  predictions_valid_ = false;
  last_result_valid_ = false;
}

std::uint64_t ChopSession::predict_env_key() const {
  Fnv1a h;
  h.mix(static_cast<int>(config_.style.clocking));
  h.mix(config_.style.allow_pipelining ? 1 : 0);
  h.mix(config_.clocks.main_clock);
  h.mix(config_.clocks.datapath_multiplier);
  h.mix(config_.clocks.transfer_multiplier);
  h.mix(max_ii_dp_for(config_));
  h.mix(config_.testability.scan_design ? 1 : 0);
  h.mix(config_.testability.register_area_factor);
  h.mix(config_.testability.register_delay_penalty_ns);
  h.mix(config_.testability.controller_area_factor);
  h.mix(config_.testability.test_pins_per_chip);
  h.mix(static_cast<std::uint64_t>(config_.predictor.unit_sweep.size()));
  for (int units : config_.predictor.unit_sweep) h.mix(units);
  h.mix(static_cast<std::uint64_t>(partitioning_.memory().blocks.size()));
  for (const auto& block : partitioning_.memory().blocks) {
    h.mix(block.ports);
    h.mix(block.access_time);
  }
  return h.digest();
}

ChopSession::PartitionKeys ChopSession::keys_for(
    std::size_t p, std::uint64_t env_key, const dfg::Graph& subgraph) const {
  Fnv1a raw;
  raw.mix(env_key);
  raw.mix(library_key_);
  raw.mix(graph_digest(subgraph));

  PartitionKeys keys;
  keys.raw = raw.digest();
  Fnv1a h;
  h.mix(keys.raw);
  const Partition& part = partitioning_.partitions()[p];
  h.mix(partitioning_.chips()[static_cast<std::size_t>(part.chip)]
            .package.usable_area());
  h.mix(config_.constraints.performance_ns);
  h.mix(config_.constraints.delay_ns);
  h.mix(config_.constraints.system_power_mw);
  h.mix(config_.constraints.chip_power_mw);
  h.mix(config_.criteria.area_prob);
  h.mix(config_.criteria.performance_prob);
  h.mix(config_.criteria.delay_prob);
  h.mix(config_.criteria.power_prob);
  keys.eligible = h.digest();
  return keys;
}

const std::vector<ChopSession::PartitionKeys>& ChopSession::partition_keys() {
  const std::size_t nparts = partitioning_.partitions().size();
  if (!keys_valid_ || keys_.size() != nparts) {
    const std::uint64_t env = predict_env_key();
    keys_.resize(nparts);
    for (std::size_t p = 0; p < nparts; ++p) {
      keys_[p] = keys_for(
          p, env, partitioning_.subgraph(static_cast<int>(p)).graph);
    }
    keys_valid_ = true;
  }
  return keys_;
}

PredictionStats ChopSession::predict_partitions() {
  obs::TraceSpan span("session.predict");
  Timer timer;
  partitioning_.validate();

  const auto& partitions = partitioning_.partitions();
  const auto& chips = partitioning_.chips();
  const std::size_t nparts = partitions.size();

  if (predictions_.eligible.size() != nparts ||
      predict_cache_.size() != nparts) {
    predictions_ = PartitionPredictions{};
    predictions_.raw.resize(nparts);
    predictions_.eligible.resize(nparts);
    if (shared_predictions_ != nullptr) predictions_.raw_counts.resize(nparts);
    predict_cache_.assign(nparts, PartitionPredictState{});
  }

  // Cap pipelined II enumeration from the performance budget (§3.2).
  const Cycles max_ii_dp = max_ii_dp_for(config_);
  // Keys are built here, from the subgraph a miss predicts on, unless an
  // earlier call already built them for this state.
  const bool fresh_keys = !keys_valid_ || keys_.size() != nparts;
  if (fresh_keys) keys_.resize(nparts);
  const std::uint64_t env_key = fresh_keys ? predict_env_key() : 0;

  static obs::Counter& reused_counter =
      obs::MetricsRegistry::global().counter("eval.delta_predict_reused");
  static obs::Counter& recomputed_counter =
      obs::MetricsRegistry::global().counter("eval.delta_predict_recomputed");

  bad::Predictor predictor(config_.predictor);
  PredictionStats stats;
  for (std::size_t p = 0; p < nparts; ++p) {
    std::optional<dfg::Subgraph> sub;
    if (fresh_keys) {
      sub = partitioning_.subgraph(static_cast<int>(p));
      keys_[p] = keys_for(p, env_key, sub->graph);
    }
    const PartitionKeys& keys = keys_[p];
    PartitionPredictState& state = predict_cache_[p];
    const bool raw_hit = state.valid && state.keys.raw == keys.raw;
    const bool eligible_hit = raw_hit && state.keys.eligible == keys.eligible;
    const AreaMil2 usable = chips[static_cast<std::size_t>(partitions[p].chip)]
                                .package.usable_area();

    const auto run_bad = [&] {
      obs::TraceSpan partition_span("session.predict.partition");
      partition_span.arg("partition", partitions[p].name);
      if (!sub) sub = partitioning_.subgraph(static_cast<int>(p));

      bad::PredictionRequest request;
      request.graph = &sub->graph;
      request.library = library_;
      request.style = config_.style;
      request.clocks = config_.clocks;
      request.max_ii_dp = max_ii_dp;
      request.testability = config_.testability;
      for (std::size_t b = 0; b < partitioning_.memory().blocks.size(); ++b) {
        request.memory_ports[static_cast<int>(b)] =
            partitioning_.memory().blocks[b].ports;
        request.memory_access_time.push_back(
            partitioning_.memory().blocks[b].access_time);
      }
      recomputed_counter.add();
      return predictor.predict(request);
    };
    const auto prune = [&](std::vector<bad::DesignPrediction> raw) {
      return prune_level1(std::move(raw), usable, config_.clocks,
                          config_.constraints, config_.criteria);
    };

    if (shared_predictions_ != nullptr) {
      // Eligible lists only: a miss in both memos predicts, prunes and
      // publishes the pruned entry; the raw list is dropped.
      if (eligible_hit) {
        ++stats.reused;
        reused_counter.add();
      } else {
        std::shared_ptr<const CachedPrediction> entry =
            shared_predictions_->find(keys.eligible);
        if (entry == nullptr) {
          auto fresh = std::make_shared<CachedPrediction>();
          std::vector<bad::DesignPrediction> raw = run_bad();
          fresh->raw_count = raw.size();
          fresh->eligible = prune(std::move(raw));
          shared_predictions_->insert(keys.eligible, fresh);
          entry = std::move(fresh);
        }
        predictions_.eligible[p] = entry->eligible;
        predictions_.raw_counts[p] = entry->raw_count;
      }
    } else {
      if (raw_hit) {
        ++stats.reused;
        reused_counter.add();
      } else {
        predictions_.raw[p] = run_bad();
      }
      if (!eligible_hit) predictions_.eligible[p] = prune(predictions_.raw[p]);
    }
    state.keys = keys;
    state.valid = true;
  }
  keys_valid_ = true;

  predictions_valid_ = true;
  stats.total = predictions_.raw_total();
  stats.feasible = predictions_.eligible_total();
  obs::MetricsRegistry::global()
      .histogram("session.predict_ms")
      .observe(timer.elapsed_ms());
  static obs::Counter& eligible =
      obs::MetricsRegistry::global().counter("bad.predictions_eligible");
  eligible.add(stats.feasible);
  span.arg("partitions", partitioning_.partitions().size());
  span.arg("predictions_raw", stats.total);
  span.arg("predictions_eligible", stats.feasible);
  span.arg("predictions_reused", stats.reused);
  return stats;
}

DeltaImpact ChopSession::apply(const EvalDelta& delta) {
  obs::TraceSpan span("session.apply_delta");
  span.arg("kind", delta.kind_name());
  static obs::Counter& applied =
      obs::MetricsRegistry::global().counter("eval.delta_applied");

  const std::size_t old_nparts = partitioning_.partitions().size();
  std::uint64_t old_full = 0;
  std::uint64_t old_core = 0;
  {
    const EvalContext before = make_eval_context();
    old_full = before.fingerprint();
    old_core = before.core_fingerprint();
  }
  std::vector<std::uint64_t> old_keys;
  old_keys.reserve(old_nparts);
  for (const PartitionKeys& keys : partition_keys()) {
    old_keys.push_back(keys.eligible);
  }

  keys_valid_ = false;
  apply_delta(delta, partitioning_, config_.style, config_.clocks,
              config_.constraints);
  partitioning_.validate();

  DeltaImpact impact;
  impact.revision = ++revision_;
  impact.old_fingerprint = old_full;
  {
    const EvalContext after = make_eval_context();
    impact.new_fingerprint = after.fingerprint();
    impact.noop = impact.new_fingerprint == old_full;
    impact.constraints_only =
        !impact.noop && after.core_fingerprint() == old_core;
  }

  const std::size_t nparts = partitioning_.partitions().size();
  if (nparts != old_nparts) {
    impact.dirty_partitions.assign(nparts, true);
  } else {
    impact.dirty_partitions.assign(nparts, false);
    const std::vector<PartitionKeys>& keys = partition_keys();
    for (std::size_t p = 0; p < nparts; ++p) {
      impact.dirty_partitions[p] = keys[p].eligible != old_keys[p];
    }
  }

  if (!impact.noop) {
    predictions_valid_ = false;
    last_result_valid_ = false;
  }
  applied.add();
  span.arg("noop", impact.noop ? 1 : 0);
  span.arg("constraints_only", impact.constraints_only ? 1 : 0);
  span.arg("dirty_partitions", impact.dirty_count());
  return impact;
}

SearchResult ChopSession::research(const SearchOptions& options) {
  obs::TraceSpan span("session.research");
  if (!predictions_valid_) {
    obs::ScopedPhase predict_phase(options.profile, obs::SearchPhase::kPredict);
    predict_partitions();
  }

  // The context must outlive the search (it is passed by reference).
  const EvalContext ctx = make_eval_context();

  const std::vector<PartitionKeys>& keys = partition_keys();

  // One-deep result memo, content-keyed: the context fingerprint covers
  // the integration inputs, the list keys cover the searched lists, and
  // the option fields below are exactly the ones a deterministic search
  // depends on (threads is deliberately excluded — results are identical
  // across thread counts; observer/cancel/deadline disqualify caching
  // outright because the caller observes the run itself).
  Fnv1a rk;
  rk.mix(ctx.fingerprint());
  rk.mix(static_cast<int>(options.heuristic));
  rk.mix(options.prune ? 1 : 0);
  rk.mix(options.record_all ? 1 : 0);
  rk.mix(static_cast<std::uint64_t>(options.max_trials));
  rk.mix(options.bound_pruning ? 1 : 0);
  for (const PartitionKeys& k : keys) {
    rk.mix(k.raw);
    rk.mix(k.eligible);
  }
  const std::uint64_t result_key = rk.digest();
  const bool cache_eligible =
      options.cancel == nullptr &&
      options.deadline == std::chrono::steady_clock::time_point{} &&
      options.observer == nullptr;

  static obs::Counter& noop_counter =
      obs::MetricsRegistry::global().counter("eval.delta_noop_research");
  if (cache_eligible && last_result_valid_ && last_result_key_ == result_key) {
    noop_counter.add();
    span.arg("cached", 1);
    return last_result_;
  }

  SearchOptions opts = options;
  if (opts.evaluator == nullptr) opts.evaluator = evaluator_.get();

  SearchResult result = find_feasible_implementations(ctx, predictions_, opts);
  if (cache_eligible && !result.cancelled) {
    last_result_ = result;
    last_result_key_ = result_key;
    last_result_valid_ = true;
  }
  return result;
}

std::vector<DataTransfer> ChopSession::transfer_tasks() const {
  return create_transfer_tasks(partitioning_);
}

EvalContext ChopSession::make_eval_context() const {
  const Pins test_pins = config_.testability.scan_design
                             ? config_.testability.test_pins_per_chip
                             : 0;
  return EvalContext(partitioning_, transfer_tasks(), config_.clocks,
                     config_.constraints, config_.criteria, test_pins);
}

SearchResult ChopSession::search(const SearchOptions& options) const {
  obs::TraceSpan span("session.search");
  CHOP_REQUIRE(predictions_valid_,
               "call predict_partitions() before search()");
  SearchOptions opts = options;
  if (opts.evaluator == nullptr) opts.evaluator = evaluator_.get();
  return find_feasible_implementations(make_eval_context(), predictions_,
                                       opts);
}

std::string ChopSession::guideline(const GlobalDesign& design) const {
  CHOP_REQUIRE(predictions_valid_, "no predictions to render");
  const auto& partitions = partitioning_.partitions();
  CHOP_REQUIRE(design.choice.size() == partitions.size(),
               "design does not match the current partitioning");

  std::ostringstream os;
  os << "Feasible predicted design: II=" << design.integration.ii_main
     << " cycles, delay=" << design.integration.system_delay_main
     << " cycles, clock=" << design.integration.clock_ns() << " ns\n";
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    // Guidelines are rendered from the list the search consumed.
    const auto& list = predictions_.eligible[p].empty()
                           ? predictions_.raw[p]
                           : predictions_.eligible[p];
    CHOP_REQUIRE(design.choice[p] < list.size(),
                 "design choice index out of range");
    const bad::DesignPrediction& sel = list[design.choice[p]];
    os << "* " << partitions[p].name << " (chip "
       << partitioning_.chips()[static_cast<std::size_t>(partitions[p].chip)]
              .name
       << ")\n";
    os << "    - a " << to_string(sel.style) << " design style with "
       << sel.stages << " stages,\n";
    os << "    - module library of " << sel.module_set_label << ",\n";
    os << "    - ";
    bool first = true;
    for (const auto& [kind, count] : sel.fu_alloc) {
      if (!first) os << " and ";
      first = false;
      os << count << ' ' << dfg::to_string(kind)
         << (count == 1 ? " unit" : " units");
    }
    os << ",\n";
    os << "    - " << sel.register_bits << " bits of registers for the data "
       << "path,\n";
    os << "    - " << static_cast<long long>(std::llround(sel.mux_count_likely))
       << " 1-bit 2-to-1 multiplexers,\n";
    os << "    - predicted area " << sel.total_area << " mil^2.\n";
  }
  for (const TransferPlan& plan : design.integration.transfers) {
    if (!plan.task.crosses_pins()) continue;
    os << "* data transfer module " << plan.task.name << ": " << plan.pins
       << " pins, X=" << plan.transfer_cycles << " cycles, W="
       << plan.wait_cycles << " cycles, buffer=" << plan.buffer_bits
       << " bits, PLA " << plan.controller.inputs << "x"
       << plan.controller.outputs << "x" << plan.controller.product_terms
       << "\n";
  }
  return os.str();
}

}  // namespace chop::core
