// Seed-swept randomized invariant fuzzer for the serving stack: every
// seed derives a random ServingConfig spanning the policy × replica ×
// SLO × prefix-cache × speculation × disaggregation space, runs it end
// to end, and asserts the invariants that must hold for *every*
// configuration:
//
//   - no KV blocks leak (every replica ends at used_blocks == 0),
//   - request conservation (completed + rejected + shed == offered, and
//     every request reaches a terminal state),
//   - monotone time (arrival <= first token <= finish <= sim end),
//   - per-tenant splits sum back to the fleet totals,
//   - the per-replica counters fold (`+=`) to the fleet counters exactly,
//   - repeat runs reproduce bit-identically (subset of seeds).
//
// A second, fleet-scale sweep draws from its own generator: 8-64 unified
// replicas under every placement, the autoscaler adding, draining and
// retiring replicas mid-run on about a third of its seeds, and
// disaggregated pools up to 4+4 — the event loop's frontier heap under
// inserts and removals the small sweep never reaches.
//
// The sweeps default to 200 and 48 fixed seeds; MARLIN_FUZZ_SEEDS=<n>
// runs seeds 1..n of each instead (the sanitizer CI job runs a subset;
// the seeds themselves never change, so failures reproduce by number).
//
// Registered under the ctest label `fuzz`.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <ostream>
#include <random>
#include <string>

#include "serve/server_sim.hpp"

namespace marlin::serve::sched {
// Names every counter when a SchedCounters comparison fails.
void PrintTo(const SchedCounters& c, std::ostream* os) {
  for (const SchedCounterField& f : kSchedCounterFields) {
    *os << f.metric << '=' << c.*f.member << ' ';
  }
}
}  // namespace marlin::serve::sched

namespace marlin::serve {
namespace {

const Engine& fuzz_engine() {
  static const Engine engine = [] {
    EngineConfig cfg;
    cfg.model = llama2_7b();
    cfg.gpu = gpusim::rtxa6000();
    cfg.format = WeightFormat::kMarlin;
    return Engine(cfg);
  }();
  return engine;
}

/// MARLIN_FUZZ_SEEDS when set, else `fallback`.
index_t seed_count(index_t fallback) {
  if (const char* env = std::getenv("MARLIN_FUZZ_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return fallback;
}

/// Deterministic config for one seed. The generator is seeded by the
/// sweep seed alone, so seed k means the same configuration forever —
/// a failure report of "seed 137" reproduces by number.
ServingConfig config_for_seed(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);
  const auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const auto pickd = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };

  ServingConfig sc;
  sc.workload.seed = seed;
  sc.workload.qps = pickd(4.0, 20.0);
  sc.workload.duration_s = pickd(3.0, 6.0);
  sc.workload.input_tokens = pick(16, 96);
  sc.workload.output_tokens = pick(4, 48);
  sc.scheduler.max_batch = pick(8, 64);
  sc.workload.shape = std::array{sched::WorkloadShape::kPoisson,
                                 sched::WorkloadShape::kBursty,
                                 sched::WorkloadShape::kShareGpt}[pick(0, 2)];
  sc.scheduler.policy =
      std::array{sched::SchedPolicy::kFcfs, sched::SchedPolicy::kShortestJob,
                 sched::SchedPolicy::kMaxUtilization,
                 sched::SchedPolicy::kWeightedFair}[pick(0, 3)];
  // 0 = unlimited; otherwise tight enough that preemption and admission
  // backpressure actually fire.
  sc.scheduler.blocks.num_blocks = pick(0, 2) == 0 ? 0 : pick(48, 192);
  sc.scheduler.prefill_chunk_tokens = pick(0, 1) == 0 ? 0 : 32;
  sc.workload.sampling_n = pick(0, 3) == 0 ? 2 : 1;

  if (pick(0, 1) == 1) {  // hashed prefix cache + shared-prefix traffic
    sc.scheduler.blocks.prefix_cache.enabled = true;
    sc.workload.shared_prefix_tokens = pick(1, 4) * 16;
    sc.workload.shared_prefix_groups = pick(1, 3);
    sc.workload.shared_prefix_share = pickd(0.3, 1.0);
  }
  if (pick(0, 2) == 0) {  // speculative decoding
    sc.scheduler.speculation.depth = pick(1, 3);
    sc.scheduler.speculation.acceptance = pickd(0.5, 0.9);
  }
  if (pick(0, 2) == 0) {  // streaming SLOs (shedding + violations)
    sc.scheduler.slo.ttft_deadline_ms = pickd(50.0, 500.0);
    sc.scheduler.slo.tpot_deadline_ms = pickd(5.0, 50.0);
  }
  if (pick(0, 1) == 1) {  // multi-tenant mix
    const index_t tenants = pick(2, 3);
    for (index_t t = 0; t < tenants; ++t) {
      sched::TenantSpec spec;
      spec.id = t;
      spec.name = "t";
      spec.name += std::to_string(t);
      spec.weight = pickd(0.5, 2.0);
      sc.scheduler.tenants.push_back(spec);
    }
  }

  // Cluster shape: unified fleet of 1-3 replicas, or disaggregated
  // prefill/decode pools with engine-derived transfer pricing.
  if (pick(0, 2) == 0) {
    sc.cluster.disagg.enabled = true;
    sc.cluster.disagg.prefill_replicas = pick(1, 2);
    sc.cluster.disagg.decode_replicas = pick(1, 2);
  } else {
    sc.cluster.replicas = pick(1, 3);
    sc.cluster.placement =
        std::array{cluster::Placement::kRoundRobin,
                   cluster::Placement::kLeastLoaded,
                   cluster::Placement::kSessionAffinity}[pick(0, 2)];
  }
  return sc;
}

/// Deterministic fleet-scale config for one seed, on a generator of its
/// own so `config_for_seed`'s seed -> config mapping is untouched. Short
/// windows keep a 64-replica run cheap; a tight batch cap on autoscaled
/// seeds builds the queues that make the autoscaler add replicas, and the
/// traffic ending makes it drain and retire them.
ServingConfig fleet_config_for_seed(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0xBF58476D1CE4E5B9ull + 0x94D049BB133111EBull);
  const auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const auto pickd = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };

  ServingConfig sc;
  sc.workload.seed = seed;
  sc.workload.duration_s = pickd(1.0, 2.5);
  sc.workload.input_tokens = pick(16, 64);
  sc.workload.output_tokens = pick(4, 24);
  sc.scheduler.max_batch = pick(8, 48);
  sc.workload.shape = std::array{sched::WorkloadShape::kPoisson,
                                 sched::WorkloadShape::kBursty,
                                 sched::WorkloadShape::kShareGpt}[pick(0, 2)];
  sc.scheduler.policy =
      std::array{sched::SchedPolicy::kFcfs, sched::SchedPolicy::kShortestJob,
                 sched::SchedPolicy::kMaxUtilization,
                 sched::SchedPolicy::kWeightedFair}[pick(0, 3)];
  sc.scheduler.blocks.num_blocks = pick(0, 2) == 0 ? 0 : pick(64, 192);
  if (pick(0, 2) == 0) {
    sc.scheduler.blocks.prefix_cache.enabled = true;
    sc.workload.shared_prefix_tokens = pick(1, 3) * 16;
    sc.workload.shared_prefix_groups = pick(1, 4);
    sc.workload.shared_prefix_share = pickd(0.3, 1.0);
  }
  if (pick(0, 2) == 0) {
    sc.scheduler.slo.ttft_deadline_ms = pickd(50.0, 500.0);
    sc.scheduler.slo.tpot_deadline_ms = pickd(5.0, 50.0);
  }

  const int mode = pick(0, 5);
  if (mode == 0) {  // disaggregated pools, up to 4+4
    sc.cluster.disagg.enabled = true;
    sc.cluster.disagg.prefill_replicas = pick(1, 4);
    sc.cluster.disagg.decode_replicas = pick(1, 4);
    sc.workload.qps = pickd(8.0, 40.0);
    return sc;
  }
  const index_t replicas = pick(8, 64);
  sc.cluster.replicas = replicas;
  sc.cluster.placement =
      std::array{cluster::Placement::kRoundRobin,
                 cluster::Placement::kLeastLoaded,
                 cluster::Placement::kSessionAffinity}[pick(0, 2)];
  sc.workload.qps = pickd(2.0, 6.0) * static_cast<double>(replicas);
  if (mode <= 2) {  // autoscaled: overloaded, so queues build and drain
    cluster::AutoscalerConfig& as = sc.cluster.autoscaler;
    as.enabled = true;
    as.min_replicas = std::max<index_t>(1, replicas - pick(2, 8));
    as.max_replicas = replicas + pick(2, 16);
    as.interval_s = pickd(0.1, 0.4);
    as.scale_up_queue_per_replica = pickd(0.5, 3.0);
    as.scale_down_queue_per_replica =
        pickd(0.05, 0.5) * as.scale_up_queue_per_replica;
    sc.scheduler.max_batch = pick(2, 6);
    sc.workload.qps *= pickd(2.0, 4.0);
  }
  return sc;
}

void check_invariants(const cluster::ClusterStats& cs, std::uint64_t seed) {
  const sched::SchedStats& st = cs.sched;
  const auto offered = static_cast<index_t>(st.requests.size());

  // ---- no KV leaks anywhere in the fleet -------------------------------
  for (const auto& rep : cs.replicas) {
    EXPECT_EQ(rep.leaked_kv_blocks, 0)
        << "seed " << seed << ": replica " << rep.id << " leaked KV blocks";
  }

  // ---- request conservation --------------------------------------------
  EXPECT_EQ(st.metrics.completed + st.rejected + st.shed, offered)
      << "seed " << seed;
  index_t completed = 0;
  index_t rejected = 0;
  index_t shed = 0;
  index_t generated_total = 0;
  for (const auto& r : st.requests) {
    EXPECT_TRUE(r.finished()) << "seed " << seed << ": request " << r.id
                              << " never reached a terminal state";
    EXPECT_FALSE(r.rejected && r.shed) << "seed " << seed;
    if (r.rejected) {
      ++rejected;
    } else if (r.shed) {
      ++shed;
    } else {
      ++completed;
      generated_total += r.generated;
      // ---- monotone time ----------------------------------------------
      EXPECT_GE(r.first_token_s, r.arrival_s) << "seed " << seed;
      EXPECT_GE(r.finish_s, r.first_token_s) << "seed " << seed;
      EXPECT_LE(r.finish_s, st.sim_end_s) << "seed " << seed;
      EXPECT_EQ(r.generated, r.output_tokens) << "seed " << seed;
      EXPECT_LE(r.migrations, 1) << "seed " << seed;
    }
  }
  EXPECT_EQ(completed, st.metrics.completed) << "seed " << seed;
  EXPECT_EQ(rejected, st.rejected) << "seed " << seed;
  EXPECT_EQ(shed, st.shed) << "seed " << seed;

  // ---- per-replica clocks inside the run window ------------------------
  for (const auto& rep : cs.replicas) {
    EXPECT_GE(rep.clock_s, 0.0) << "seed " << seed;
    EXPECT_LE(rep.clock_s, st.sim_end_s) << "seed " << seed;
  }

  // ---- per-tenant splits sum back to fleet totals ----------------------
  index_t tenant_completed = 0;
  index_t tenant_rejected = 0;
  index_t tenant_preempt = 0;
  index_t tenant_tokens = 0;
  for (const auto& t : sched::per_tenant_metrics(st)) {
    tenant_completed += t.completed;
    tenant_rejected += t.rejected;
    tenant_preempt += t.preemptions;
    tenant_tokens += t.output_tokens;
  }
  EXPECT_EQ(tenant_completed, st.metrics.completed) << "seed " << seed;
  EXPECT_EQ(tenant_rejected, st.rejected) << "seed " << seed;
  EXPECT_EQ(tenant_preempt, st.preemptions) << "seed " << seed;
  EXPECT_EQ(tenant_tokens, generated_total) << "seed " << seed;

  // ---- migration accounting (inert unless disaggregated) ---------------
  index_t migrated_out = 0;
  index_t migrated_in = 0;
  for (const auto& rep : cs.replicas) {
    migrated_out += rep.migrated_out;
    migrated_in += rep.migrated_in;
  }
  EXPECT_EQ(migrated_out, cs.migrations) << "seed " << seed;
  EXPECT_EQ(migrated_in, cs.migrations) << "seed " << seed;
  index_t link_transfers = 0;
  for (const auto& l : cs.links) link_transfers += l.transfers;
  EXPECT_EQ(link_transfers, cs.migrations) << "seed " << seed;
  EXPECT_GE(cs.transfer_seconds, 0.0) << "seed " << seed;

  // ---- per-replica counters fold to the fleet counters -----------------
  sched::SchedCounters folded;
  for (const auto& rep : cs.replicas) folded += rep;
  EXPECT_EQ(folded, static_cast<const sched::SchedCounters&>(st))
      << "seed " << seed;
}

void expect_bit_identical(const cluster::ClusterStats& a,
                          const cluster::ClusterStats& b,
                          std::uint64_t seed) {
  EXPECT_EQ(a.sched.metrics.mean_tpot_ms, b.sched.metrics.mean_tpot_ms)
      << "seed " << seed;
  EXPECT_EQ(a.sched.metrics.mean_ttft_ms, b.sched.metrics.mean_ttft_ms)
      << "seed " << seed;
  EXPECT_EQ(a.sched.metrics.completed, b.sched.metrics.completed)
      << "seed " << seed;
  EXPECT_EQ(a.sched.sim_end_s, b.sched.sim_end_s) << "seed " << seed;
  EXPECT_EQ(static_cast<const sched::SchedCounters&>(a.sched),
            static_cast<const sched::SchedCounters&>(b.sched))
      << "seed " << seed;
  EXPECT_EQ(a.migrations, b.migrations) << "seed " << seed;
  EXPECT_EQ(a.transfer_bytes, b.transfer_bytes) << "seed " << seed;
  ASSERT_EQ(a.sched.requests.size(), b.sched.requests.size());
  for (std::size_t i = 0; i < a.sched.requests.size(); ++i) {
    EXPECT_EQ(a.sched.requests[i].first_token_s,
              b.sched.requests[i].first_token_s)
        << "seed " << seed << " request " << i;
    EXPECT_EQ(a.sched.requests[i].finish_s, b.sched.requests[i].finish_s)
        << "seed " << seed << " request " << i;
  }
}

TEST(ClusterFuzz, InvariantsHoldAcrossTheSeedSweep) {
  const index_t seeds = seed_count(200);
  for (index_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ServingConfig sc = config_for_seed(seed);
    const cluster::ClusterStats cs =
        simulate(fuzz_engine(), sc);
    check_invariants(cs, seed);
    EXPECT_GT(cs.sched.requests.size(), 0u) << "seed " << seed;
    // Every 8th seed: the run must reproduce bit-for-bit from scratch.
    if (seed % 8 == 0) {
      expect_bit_identical(cs, simulate(fuzz_engine(), sc),
                           seed);
    }
    if (HasFatalFailure()) return;
  }
}

TEST(ClusterFuzz, FleetScaleInvariantsHoldAcrossTheSeedSweep) {
  const index_t seeds = seed_count(48);
  index_t autoscaled = 0;
  index_t added = 0;
  index_t drained = 0;
  index_t retired = 0;
  index_t migrations = 0;
  for (index_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("fleet seed " + std::to_string(seed));
    const ServingConfig sc = fleet_config_for_seed(seed);
    const cluster::ClusterStats cs = simulate(fuzz_engine(), sc);
    check_invariants(cs, seed);
    EXPECT_GT(cs.sched.requests.size(), 0u) << "fleet seed " << seed;
    if (sc.cluster.autoscaler.enabled) {
      ++autoscaled;
      added += cs.replicas_added;
      drained += cs.replicas_drained;
      for (const auto& rep : cs.replicas) {
        retired += rep.lifecycle == cluster::ReplicaLifecycle::kRetired;
      }
    }
    migrations += cs.migrations;
    // Every 4th seed: the run must reproduce bit-for-bit from scratch.
    if (seed % 4 == 0) {
      expect_bit_identical(cs, simulate(fuzz_engine(), sc), seed);
    }
    if (HasFatalFailure()) return;
  }
  // The sweep must actually exercise what it exists for: mid-run
  // additions, drains and retirements, and disaggregated handoffs.
  if (seeds >= 16) {
    EXPECT_GT(autoscaled, 0);
    EXPECT_GT(added, 0);
    EXPECT_GT(drained, 0);
    EXPECT_GT(retired, 0);
    EXPECT_GT(migrations, 0);
  }
}

TEST(ClusterFuzz, SweepIsDeterministicAcrossThreadCounts) {
  // A handful of seeds re-run under a 4-thread SimContext: memo warming
  // parallelism must never change a single bit of the outcome.
  const SimContext pooled(4);
  for (const std::uint64_t seed : {3u, 57u, 111u, 169u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ServingConfig sc = config_for_seed(seed);
    expect_bit_identical(simulate(fuzz_engine(), sc),
                         simulate(fuzz_engine(), sc, pooled),
                         seed);
  }
}

}  // namespace
}  // namespace marlin::serve
