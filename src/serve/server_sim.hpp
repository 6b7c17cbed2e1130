#pragma once
// Serving simulation entry point (paper Figures 15/16): `simulate` runs a
// ServingConfig's workload trace through the cluster event loop. It is the
// one entry point; every bench, example and test reads its results from
// the returned ClusterStats. The defaults (Poisson arrivals, FCFS,
// unlimited KV blocks, unchunked prefill) reproduce the pre-subsystem
// simulator bit-for-bit, which the fig15/fig16 goldens pin down.
//
// A ServingConfig is composed of the parts that own each knob:
//   * `workload`  — arrivals, lengths, seed, shared prefixes, sampling n;
//   * `scheduler` — policy, batch cap, prefill chunk, KV blocks and prefix
//     cache, tenants, speculation, SLOs;
//   * `parallel`  — the TP x PP rank grid of every replica (TP=1, PP=1
//     prices steps on the engine itself, as the goldens do);
//   * `cluster`   — replicas, placement, autoscaler, disaggregated pools.
// Two rules hold only on this serving path:
//   * `scheduler.blocks.num_blocks < 0` derives the KV budget from the
//     device HBM next to the weights (the minimum rank budget under TP/PP);
//   * the tenant mix comes from `scheduler.tenants[i].traffic_share`, so
//     `workload.tenant_shares` stays empty.

#include "serve/cluster/event_loop.hpp"
#include "serve/engine.hpp"
#include "serve/parallel/parallel_config.hpp"
#include "serve/sched/scheduler.hpp"

namespace marlin::serve {

struct ServingConfig {
  sched::WorkloadConfig workload;
  sched::SchedulerConfig scheduler;
  parallel::ParallelConfig parallel{};
  cluster::ClusterOptions cluster{};
  /// Draft model for `scheduler.speculation` (TinyLlama-1.1B when
  /// unnamed), on the target's device, format and clocks. It stays on one
  /// device while the target verifies across the rank grid.
  ModelConfig draft_model{};
  /// Observability recorder (borrowed, may be null — the default). The
  /// scheduling decisions are identical with or without one attached.
  obs::ServeRecorder* recorder = nullptr;

  /// Throws on an invalid part or a broken serving rule (tenant ids of
  /// 4096 or more, a non-empty `workload.tenant_shares`). Budget errors
  /// that need the engine's weights are raised by `simulate`.
  void validate(const ModelConfig& model) const;
};

/// The KV block budget each replica of a `cfg` run on `engine` gets
/// (0 = unlimited), with a negative request derived from HBM.
index_t kv_block_budget(const Engine& engine, const ServingConfig& cfg);

/// Validates `cfg`, then runs one serving simulation: the fleet's
/// SchedStats (`.sched`) plus per-replica accounting. `ctx` pre-warms the
/// engine's decode memo on its pool; the results are bit-identical for
/// every context.
cluster::ClusterStats simulate(
    const Engine& engine, const ServingConfig& cfg,
    const SimContext& ctx = SimContext::serial_context());

}  // namespace marlin::serve
