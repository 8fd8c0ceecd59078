#include "sweep/execution.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "sweep/result_store.h"
#include "sweep/scenario_hash.h"

namespace brightsi::sweep {

namespace {

/// Spawns one thread per worker (capped by the item count) over an
/// atomic-index loop; thread t carries workers[t], so a persistent worker
/// vector keeps its structure caches across calls. The calling thread
/// participates as worker 0.
template <typename Fn>
void run_worker_pool(std::vector<WorkerState>& workers, std::size_t item_count, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  auto loop = [&](WorkerState& state) {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= item_count) {
        return;
      }
      fn(i, state);
    }
  };
  const std::size_t thread_count = std::min(workers.size(), item_count);
  std::vector<std::thread> pool;
  pool.reserve(thread_count > 0 ? thread_count - 1 : 0);
  for (std::size_t t = 1; t < thread_count; ++t) {
    pool.emplace_back(loop, std::ref(workers[t]));
  }
  if (!workers.empty()) {
    loop(workers[0]);
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

void sum_worker_caches(const std::vector<WorkerState>& workers, ExecutionStats& stats) {
  stats.model_builds = 0;
  stats.rail_solves = 0;
  stats.trajectory_hits = 0;
  for (const WorkerState& worker : workers) {
    stats.model_builds += worker.thermal_models.build_count();
    stats.rail_solves += worker.rails.solve_count();
    stats.trajectory_hits += worker.mission_trajectories.hit_count();
  }
}

class LocalBackend final : public ExecutionBackend {
 public:
  explicit LocalBackend(SweepOptions options)
      : workers_(static_cast<std::size_t>(resolve_thread_count(options))) {}

  [[nodiscard]] const char* name() const override { return "local"; }
  [[nodiscard]] int thread_count() const override {
    return static_cast<int>(workers_.size());
  }

  void execute(const core::SystemConfig& base, const SweepEvaluator& evaluator,
               const std::vector<ScenarioSpec>& scenarios,
               std::vector<ScenarioResult>& rows) override {
    rows.resize(scenarios.size());
    run_worker_pool(workers_, scenarios.size(), [&](std::size_t i, WorkerState& state) {
      rows[i] = evaluate_scenario(base, evaluator, scenarios[i], state);
    });
    stats_.scheduled += static_cast<long long>(scenarios.size());
    stats_.evaluated += static_cast<long long>(scenarios.size());
  }

  [[nodiscard]] ExecutionStats stats() const override {
    ExecutionStats stats = stats_;
    sum_worker_caches(workers_, stats);
    return stats;
  }

 private:
  std::vector<WorkerState> workers_;
  ExecutionStats stats_;
};

class ShardBackend final : public ExecutionBackend {
 public:
  explicit ShardBackend(ShardOptions options)
      : options_(std::move(options)),
        workers_(static_cast<std::size_t>(resolve_thread_count(options_.local))) {
    if (options_.store_dir.empty()) {
      throw std::invalid_argument("shard backend needs a store directory");
    }
    if (options_.shard_count < 1 || options_.shard_index < 0 ||
        options_.shard_index >= options_.shard_count) {
      throw std::invalid_argument(
          "shard index must lie in [0, shard_count): got " +
          std::to_string(options_.shard_index) + "/" +
          std::to_string(options_.shard_count));
    }
  }

  [[nodiscard]] const char* name() const override { return "shard"; }
  [[nodiscard]] int thread_count() const override {
    return static_cast<int>(workers_.size());
  }

  void execute(const core::SystemConfig& base, const SweepEvaluator& evaluator,
               const std::vector<ScenarioSpec>& scenarios,
               std::vector<ScenarioResult>& rows) override {
    if (store_ == nullptr) {
      // The scope is only complete once the evaluator is known; the store
      // throws here if the directory belongs to a different plan.
      store_ = std::make_unique<ResultStore>(
          options_.store_dir, StoreScope{options_.scope, evaluator.name, evaluator.metrics},
          /*create=*/true, "s" + std::to_string(options_.shard_index));
    }
    store_->reload();  // pick up rows stored by peers and previous runs
    store_->journal("run_begin", options_.scope + " shard " +
                                     std::to_string(options_.shard_index) + "/" +
                                     std::to_string(options_.shard_count) + " rows=" +
                                     std::to_string(scenarios.size()));

    rows.assign(scenarios.size(), ScenarioResult{});
    std::vector<ScenarioHash> hashes(scenarios.size());
    std::vector<std::size_t> work;  // my rows in plan order, then foreign rows
    std::vector<std::size_t> foreign;
    long long hits = 0;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      hashes[i] = hash_scenario(scenarios[i], store_->salt());
      if (adopt_stored(scenarios[i], hashes[i], rows[i])) {
        ++hits;
      } else if (hashes[i].shard_of(options_.shard_count) == options_.shard_index) {
        work.push_back(i);
      } else {
        foreign.push_back(i);
      }
    }
    work.insert(work.end(), foreign.begin(), foreign.end());

    std::atomic<long long> reserved{0};
    std::atomic<long long> evaluated{0};
    std::atomic<long long> stolen_leases{0};
    std::atomic<long long> pending{0};
    run_worker_pool(workers_, work.size(), [&](std::size_t k, WorkerState& state) {
      const std::size_t i = work[k];
      const ScenarioSpec& scenario = scenarios[i];
      const ScenarioHash& hash = hashes[i];
      const int owner = hash.shard_of(options_.shard_count);
      const bool mine = owner == options_.shard_index;
      auto leave_pending = [&](const std::string& reason) {
        rows[i].name = scenario.name;
        rows[i].overrides = scenario.overrides;
        rows[i].failed = true;
        rows[i].error = "pending: " + reason;
        rows[i].metrics.assign(evaluator.metrics.size(), 0.0);
        pending.fetch_add(1);
      };
      if (options_.row_limit >= 0 && reserved.fetch_add(1) >= options_.row_limit) {
        leave_pending("row limit reached");
        return;
      }
      // Claim before evaluating. Own rows create a fresh lease (and steal
      // an orphaned one — e.g. our own previous, killed run); foreign rows
      // are only taken over when their lease is orphaned, so live peers
      // keep their partition.
      bool stolen = false;
      if (!store_->try_claim(hash, options_.lease_timeout_s, /*create_if_absent=*/mine,
                             &stolen)) {
        leave_pending(mine ? "lease held by a peer"
                           : "owned by shard " + std::to_string(owner));
        return;
      }
      if (stolen) {
        stolen_leases.fetch_add(1);
        store_->journal("lease_steal", scenario.name);
      }
      ScenarioResult row = evaluate_scenario(base, evaluator, scenario, state);
      store_->append(hash, row);  // durable before the lease drops
      store_->release(hash);
      rows[i] = std::move(row);
      evaluated.fetch_add(1);
    });

    stats_.scheduled += static_cast<long long>(scenarios.size());
    stats_.evaluated += evaluated.load();
    stats_.store_hits += hits;
    stats_.leases_stolen += stolen_leases.load();
    stats_.pending += pending.load();
    store_->journal("run_end", "evaluated=" + std::to_string(evaluated.load()) +
                                   " hits=" + std::to_string(hits) + " stolen=" +
                                   std::to_string(stolen_leases.load()) + " pending=" +
                                   std::to_string(pending.load()));
  }

  [[nodiscard]] ExecutionStats stats() const override {
    ExecutionStats stats = stats_;
    sum_worker_caches(workers_, stats);
    return stats;
  }

 private:
  /// Fills `row` from the store when present. The stored name must match
  /// the scenario's — the cross-check that turns an (astronomically
  /// unlikely) hash collision into a loud failure instead of silent
  /// row corruption.
  bool adopt_stored(const ScenarioSpec& scenario, const ScenarioHash& hash,
                    ScenarioResult& row) {
    const ScenarioResult* hit = store_->find(hash);
    if (hit == nullptr) {
      return false;
    }
    if (hit->name != scenario.name) {
      throw std::runtime_error("result store " + store_->dir() +
                               ": hash collision or corrupt index (stored row '" +
                               hit->name + "' vs scenario '" + scenario.name + "')");
    }
    row = *hit;
    return true;
  }

  ShardOptions options_;
  std::vector<WorkerState> workers_;
  std::unique_ptr<ResultStore> store_;
  ExecutionStats stats_;
};

}  // namespace

ScenarioResult evaluate_scenario(const core::SystemConfig& base,
                                 const SweepEvaluator& evaluator,
                                 const ScenarioSpec& scenario, WorkerState& worker) {
  ScenarioResult row;
  row.name = scenario.name;
  row.overrides = scenario.overrides;
  const auto start = std::chrono::steady_clock::now();
  worker.serve(base);
  try {
    const core::SystemConfig config = apply_scenario(base, scenario);
    config.validate();
    row.metrics = evaluator.fn(config, scenario, worker);
    if (row.metrics.size() != evaluator.metrics.size()) {
      throw std::logic_error("evaluator '" + evaluator.name +
                             "' returned a mismatched metric count");
    }
    // A NaN or an infinity would reach the CSV as text and the JSON as a
    // bare token no reader accepts; the row fails instead, naming it.
    for (std::size_t m = 0; m < row.metrics.size(); ++m) {
      if (!std::isfinite(row.metrics[m])) {
        throw std::runtime_error("evaluator '" + evaluator.name + "' returned " +
                                 format_sweep_value(row.metrics[m]) + " for metric '" +
                                 evaluator.metrics[m] + "'");
      }
    }
  } catch (const std::exception& e) {
    row.failed = true;
    row.error = e.what();
    row.metrics.assign(evaluator.metrics.size(), 0.0);
  }
  row.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return row;
}

std::unique_ptr<ExecutionBackend> make_local_backend(SweepOptions options) {
  return std::make_unique<LocalBackend>(options);
}

std::unique_ptr<ExecutionBackend> make_shard_backend(ShardOptions options) {
  return std::make_unique<ShardBackend>(std::move(options));
}

SweepResult assemble_from_store(const SweepPlan& plan, const std::string& store_dir,
                                bool allow_missing) {
  ResultStore store(store_dir, StoreScope{plan.name, plan.evaluator.name, plan.evaluator.metrics},
                    /*create=*/false, "merge");
  store.reload();

  SweepResult result;
  result.plan_name = plan.name;
  result.evaluator_name = plan.evaluator.name;
  result.metric_names = plan.evaluator.metrics;
  result.override_names = collect_override_names(plan);
  result.thread_count = 1;
  result.backend = "merge";
  result.rows.reserve(plan.scenarios.size());

  std::size_t missing = 0;
  std::string first_missing;
  for (const ScenarioSpec& scenario : plan.scenarios) {
    const ScenarioHash hash = hash_scenario(scenario, store.salt());
    const ScenarioResult* hit = store.find(hash);
    ScenarioResult row;
    if (hit != nullptr) {
      if (hit->name != scenario.name) {
        throw std::runtime_error("result store " + store_dir +
                                 ": hash collision or corrupt index (stored row '" +
                                 hit->name + "' vs scenario '" + scenario.name + "')");
      }
      row = *hit;
      ++result.exec.store_hits;
    } else {
      if (first_missing.empty()) {
        first_missing = scenario.name;
      }
      ++missing;
      row.name = scenario.name;
      row.overrides = scenario.overrides;
      row.failed = true;
      row.error = "pending: not in the store";
      row.metrics.assign(plan.evaluator.metrics.size(), 0.0);
      ++result.exec.pending;
    }
    result.exec.scheduled += 1;
    result.rows.push_back(std::move(row));
  }
  if (missing > 0 && !allow_missing) {
    throw std::runtime_error(
        "result store " + store_dir + " is missing " + std::to_string(missing) + " of " +
        std::to_string(plan.scenarios.size()) + " rows (first: '" + first_missing +
        "') — run the remaining shards or pass --allow-missing");
  }
  return result;
}

}  // namespace brightsi::sweep
