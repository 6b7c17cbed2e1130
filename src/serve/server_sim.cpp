#include "serve/server_sim.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "serve/parallel/interconnect.hpp"
#include "serve/parallel/parallel_engine.hpp"
#include "util/error.hpp"

namespace marlin::serve {

void ServingConfig::validate(const ModelConfig& model) const {
  workload.validate();
  // A negative budget asks `simulate` to derive one; check the rest of
  // the block-manager config as the resolved budget will see it.
  sched::SchedulerConfig resolved = scheduler;
  resolved.blocks.num_blocks = std::max<index_t>(resolved.blocks.num_blocks, 0);
  resolved.validate();
  parallel.validate(model);
  cluster.validate();
  for (const auto& t : scheduler.tenants) {
    MARLIN_CHECK(t.id < 4096, "tenant id " << t.id << " unreasonably large");
  }
  MARLIN_CHECK(workload.tenant_shares.empty(),
               "set the tenant mix through scheduler.tenants' traffic "
               "shares, not workload.tenant_shares");
}

index_t kv_block_budget(const Engine& engine, const ServingConfig& cfg) {
  const sched::BlockManagerConfig& blocks = cfg.scheduler.blocks;
  if (blocks.num_blocks >= 0) return blocks.num_blocks;
  if (cfg.parallel.trivial()) {
    return sched::derive_kv_block_budget(engine, blocks.block_size);
  }
  return parallel::ParallelEngine(engine, cfg.parallel)
      .min_kv_block_budget(blocks.block_size);
}

cluster::ClusterStats simulate(const Engine& engine, const ServingConfig& cfg,
                               const SimContext& ctx) {
  cfg.validate(engine.config().model);

  // Tenant mix: `tenant_shares[i]` is tenant id i's share, so scatter the
  // specs' traffic shares by id (ids need not be dense).
  sched::WorkloadConfig workload = cfg.workload;
  if (!cfg.scheduler.tenants.empty()) {
    index_t max_id = 0;
    for (const auto& t : cfg.scheduler.tenants) max_id = std::max(max_id, t.id);
    workload.tenant_shares.assign(static_cast<std::size_t>(max_id) + 1, 0.0);
    for (const auto& t : cfg.scheduler.tenants) {
      workload.tenant_shares[static_cast<std::size_t>(t.id)] = t.traffic_share;
    }
  }

  // Non-trivial parallel configs price steps through the per-rank worker
  // model; the trivial default stays on the engine itself so the legacy
  // goldens path is untouched (same objects, same calls, same bits).
  std::optional<parallel::ParallelEngine> sharded;
  if (!cfg.parallel.trivial()) sharded.emplace(engine, cfg.parallel);
  const StepModel& model =
      sharded ? static_cast<const StepModel&>(*sharded) : engine;

  sched::SchedulerConfig sc = cfg.scheduler;
  sc.blocks.num_blocks = kv_block_budget(engine, cfg);

  // The draft engine shares the target's device, format and clocks — only
  // the model differs (TinyLlama-1.1B unless configured). It stays on a
  // single device even when the target verifies across a rank grid.
  std::optional<Engine> draft;
  if (sc.speculation.enabled()) {
    EngineConfig dcfg = engine.config();
    dcfg.model =
        cfg.draft_model.name.empty() ? tinyllama_1_1b() : cfg.draft_model;
    draft.emplace(dcfg);
  }

  // Disaggregated pools: price unset transfer-link fields from the engine
  // (KV footprint per token) and the device's interconnect, so callers
  // only opt in to the pool shape and get physical pricing for free. An
  // explicit non-zero value always wins.
  cluster::ClusterOptions copts = cfg.cluster;
  if (copts.disagg.enabled) {
    if (copts.disagg.kv_bytes_per_token <= 0) {
      copts.disagg.kv_bytes_per_token = engine.kv_bytes_per_token();
    }
    if (copts.disagg.link_bytes_per_s <= 0 &&
        copts.disagg.link_latency_s <= 0) {
      const parallel::Interconnect link =
          parallel::Interconnect::of(engine.config().gpu);
      copts.disagg.link_bytes_per_s = link.bytes_per_s;
      copts.disagg.link_latency_s = link.latency_s;
    }
  }

  const sched::Scheduler scheduler(model, std::move(sc),
                                   draft ? &*draft : nullptr);
  return cluster::EventLoop(scheduler, copts)
      .run(sched::generate_trace(workload), ctx, cfg.recorder);
}

}  // namespace marlin::serve
