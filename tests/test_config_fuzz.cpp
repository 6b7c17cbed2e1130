// Seed-swept fuzzer for the serving config boundary. Every seed draws a
// ServingConfig across the whole knob space — workload, scheduler, KV
// blocks, tenants, speculation, SLOs, TP x PP grid, cluster shape — and
// injects zero or more out-of-range values from a fixed fault list. The
// invariants:
//
//   - each part's `validate()` (WorkloadConfig, SchedulerConfig,
//     ParallelConfig, ClusterOptions) throws exactly when a fault was
//     injected into that part, and `ServingConfig::validate` exactly when
//     any fault was; a thrown `marlin::Error` is one plain line naming no
//     source file or C++ condition;
//   - `simulate` throws the same error for a rejected config, and runs a
//     valid one to the end without throwing;
//   - every accepted run conserves requests (completed + rejected + shed
//     == offered) and leaks no KV blocks.
//
// Odd seeds inject one fault each, walking the fault list in order, so a
// full sweep hits every check alone (each about four times); seeds 2 mod
// 6 inject two at random and the other even seeds none. Durations stay a
// few simulated seconds.
//
// The sweep defaults to 480 fixed seeds; MARLIN_FUZZ_SEEDS=<n> runs seeds
// 1..n instead (failures reproduce by number). Registered under the ctest
// label `fuzz`.

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <random>
#include <string>

#include "serve/server_sim.hpp"
#include "util/error.hpp"

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

/// The parts of a ServingConfig with a `validate()` of their own, plus
/// the rules only `ServingConfig::validate` holds.
enum Part : unsigned {
  kWorkload = 1u << 0,
  kScheduler = 1u << 1,
  kParallel = 1u << 2,
  kCluster = 1u << 3,
  kServing = 1u << 4,
};

/// One out-of-range value and the parts whose `validate()` must reject
/// it. An injection also sets whatever makes its check apply (a WFQ
/// policy for the WFQ knobs, a non-empty prefix for the prefix mix), and
/// never repairs a fault an earlier injection left in another part.
struct Fault {
  const char* name;
  unsigned parts;
  void (*inject)(ServingConfig&);
};

/// Appends a tenant whose spec is fine apart from what `edit` breaks.
template <class Edit>
void add_tenant(ServingConfig& c, index_t id, Edit edit) {
  sched::TenantSpec t;
  t.id = id;
  edit(t);
  c.scheduler.tenants.push_back(t);
}

void disagg_only(ServingConfig& c) {
  c.cluster.autoscaler.enabled = false;
  c.cluster.disagg.enabled = true;
}

const std::array kFaults = {
    // WorkloadConfig.
    Fault{"qps 0", kWorkload, [](ServingConfig& c) { c.workload.qps = 0; }},
    Fault{"qps -1", kWorkload,
          [](ServingConfig& c) { c.workload.qps = -1.0; }},
    Fault{"duration 0", kWorkload,
          [](ServingConfig& c) { c.workload.duration_s = 0; }},
    Fault{"input tokens 0", kWorkload,
          [](ServingConfig& c) { c.workload.input_tokens = 0; }},
    Fault{"output tokens -3", kWorkload,
          [](ServingConfig& c) { c.workload.output_tokens = -3; }},
    Fault{"burst on 0", kWorkload,
          [](ServingConfig& c) {
            c.workload.shape = sched::WorkloadShape::kBursty;
            c.workload.burst_on_s = 0;
          }},
    Fault{"burst off -1", kWorkload,
          [](ServingConfig& c) { c.workload.burst_off_s = -1.0; }},
    Fault{"length sigma -0.5", kWorkload,
          [](ServingConfig& c) { c.workload.length_sigma = -0.5; }},
    Fault{"min tokens 0", kWorkload,
          [](ServingConfig& c) { c.workload.min_tokens = 0; }},
    Fault{"min tokens above the input clamp", kWorkload,
          [](ServingConfig& c) { c.workload.min_tokens = 4096; }},
    Fault{"min tokens above the output clamp", kWorkload,
          [](ServingConfig& c) {
            c.workload.min_tokens = 4;
            c.workload.max_output_tokens = 2;
          }},
    Fault{"shared prefix -16 tokens", kWorkload,
          [](ServingConfig& c) { c.workload.shared_prefix_tokens = -16; }},
    Fault{"shared prefix 0 groups", kWorkload,
          [](ServingConfig& c) {
            c.workload.shared_prefix_tokens = 16;
            c.workload.shared_prefix_groups = 0;
          }},
    Fault{"shared prefix share 1.5", kWorkload,
          [](ServingConfig& c) {
            c.workload.shared_prefix_tokens = 16;
            c.workload.shared_prefix_share = 1.5;
          }},
    Fault{"shared prefix share -0.1", kWorkload,
          [](ServingConfig& c) {
            c.workload.shared_prefix_tokens = 16;
            c.workload.shared_prefix_share = -0.1;
          }},
    Fault{"sampling n 0", kWorkload,
          [](ServingConfig& c) { c.workload.sampling_n = 0; }},
    // Shares belong in the tenant specs, so any of these also breaks the
    // serving rule.
    Fault{"negative tenant share", kWorkload | kServing,
          [](ServingConfig& c) { c.workload.tenant_shares = {1.0, -0.5}; }},
    Fault{"all-zero tenant shares", kWorkload | kServing,
          [](ServingConfig& c) { c.workload.tenant_shares = {0.0, 0.0}; }},

    // SchedulerConfig, its block manager and tenant specs.
    Fault{"max batch 0", kScheduler,
          [](ServingConfig& c) { c.scheduler.max_batch = 0; }},
    Fault{"prefill chunk -1", kScheduler,
          [](ServingConfig& c) { c.scheduler.prefill_chunk_tokens = -1; }},
    Fault{"block size 0", kScheduler,
          [](ServingConfig& c) { c.scheduler.blocks.block_size = 0; }},
    Fault{"watermark 1", kScheduler,
          [](ServingConfig& c) { c.scheduler.blocks.watermark = 1.0; }},
    Fault{"watermark -0.1", kScheduler,
          [](ServingConfig& c) { c.scheduler.blocks.watermark = -0.1; }},
    Fault{"prefix cache -1 blocks", kScheduler,
          [](ServingConfig& c) {
            c.scheduler.blocks.prefix_cache.max_cached_blocks = -1;
          }},
    Fault{"prefix cache min 0 blocks", kScheduler,
          [](ServingConfig& c) {
            c.scheduler.blocks.prefix_cache.min_prefix_blocks = 0;
          }},
    Fault{"quota for tenant -1", kScheduler,
          [](ServingConfig& c) {
            c.scheduler.blocks.tenant_quotas = {{-1, 4}};
          }},
    Fault{"quota -2", kScheduler,
          [](ServingConfig& c) {
            c.scheduler.blocks.tenant_quotas = {{0, -2}};
          }},
    Fault{"duplicate quota", kScheduler,
          [](ServingConfig& c) {
            c.scheduler.blocks.tenant_quotas = {{1, 4}, {1, 8}};
          }},
    Fault{"tenant id -1", kScheduler,
          [](ServingConfig& c) { add_tenant(c, -1, [](auto&) {}); }},
    Fault{"tenant weight 0", kScheduler,
          [](ServingConfig& c) {
            add_tenant(c, 100, [](auto& t) { t.weight = 0; });
          }},
    Fault{"tenant tier -1", kScheduler,
          [](ServingConfig& c) {
            add_tenant(c, 100, [](auto& t) { t.tier = -1; });
          }},
    Fault{"tenant quota -2", kScheduler,
          [](ServingConfig& c) {
            add_tenant(c, 100, [](auto& t) { t.kv_block_quota = -2; });
          }},
    Fault{"tenant traffic share 0", kScheduler,
          [](ServingConfig& c) {
            add_tenant(c, 100, [](auto& t) { t.traffic_share = 0; });
          }},
    Fault{"duplicate tenant id", kScheduler,
          [](ServingConfig& c) {
            add_tenant(c, 100, [](auto&) {});
            add_tenant(c, 100, [](auto& t) { t.weight = 2.0; });
          }},
    Fault{"speculation depth -1", kScheduler,
          [](ServingConfig& c) { c.scheduler.speculation.depth = -1; }},
    Fault{"speculation acceptance 1.5", kScheduler,
          [](ServingConfig& c) {
            c.scheduler.speculation.depth = 2;
            c.scheduler.speculation.acceptance = 1.5;
          }},
    Fault{"speculation acceptance -0.1", kScheduler,
          [](ServingConfig& c) {
            c.scheduler.speculation.acceptance = -0.1;
          }},
    Fault{"TTFT deadline -1", kScheduler,
          [](ServingConfig& c) { c.scheduler.slo.ttft_deadline_ms = -1.0; }},
    Fault{"TPOT deadline -1", kScheduler,
          [](ServingConfig& c) { c.scheduler.slo.tpot_deadline_ms = -1.0; }},
    Fault{"WFQ aging 0", kScheduler,
          [](ServingConfig& c) {
            c.scheduler.policy = sched::SchedPolicy::kWeightedFair;
            c.scheduler.wfq_aging_tokens_per_s = 0;
          }},
    Fault{"WFQ tier penalty -1", kScheduler,
          [](ServingConfig& c) {
            c.scheduler.policy = sched::SchedPolicy::kWeightedFair;
            c.scheduler.wfq_tier_penalty_tokens = -1.0;
          }},

    // ParallelConfig against Llama-2-7B (32 layers, 32 heads, 32 KV heads).
    Fault{"TP 0", kParallel,
          [](ServingConfig& c) { c.parallel.tensor_parallel = 0; }},
    Fault{"PP 0", kParallel,
          [](ServingConfig& c) { c.parallel.pipeline_parallel = 0; }},
    Fault{"microbatches -1", kParallel,
          [](ServingConfig& c) { c.parallel.microbatches = -1; }},
    Fault{"comm buckets 0", kParallel,
          [](ServingConfig& c) { c.parallel.comm_buckets = 0; }},
    Fault{"TP 3", kParallel,
          [](ServingConfig& c) { c.parallel.tensor_parallel = 3; }},
    Fault{"PP 33", kParallel,
          [](ServingConfig& c) { c.parallel.pipeline_parallel = 33; }},

    // ClusterOptions (the autoscaler's knobs are checked even while it is
    // off; the pools' only while they are on).
    Fault{"replicas 0", kCluster,
          [](ServingConfig& c) { c.cluster.replicas = 0; }},
    Fault{"autoscaler min 0", kCluster,
          [](ServingConfig& c) { c.cluster.autoscaler.min_replicas = 0; }},
    Fault{"autoscaler max below min", kCluster,
          [](ServingConfig& c) {
            c.cluster.autoscaler.enabled = false;
            c.cluster.autoscaler.min_replicas = 3;
            c.cluster.autoscaler.max_replicas = 2;
          }},
    Fault{"autoscaler interval 0", kCluster,
          [](ServingConfig& c) { c.cluster.autoscaler.interval_s = 0; }},
    Fault{"autoscaler scale-down -1", kCluster,
          [](ServingConfig& c) {
            c.cluster.autoscaler.scale_down_queue_per_replica = -1.0;
          }},
    Fault{"autoscaler scale-up not above scale-down", kCluster,
          [](ServingConfig& c) {
            c.cluster.autoscaler.scale_up_queue_per_replica = 1.0;
            c.cluster.autoscaler.scale_down_queue_per_replica = 1.0;
          }},
    Fault{"disagg 0 prefill replicas", kCluster,
          [](ServingConfig& c) {
            disagg_only(c);
            c.cluster.disagg.prefill_replicas = 0;
          }},
    Fault{"disagg 0 decode replicas", kCluster,
          [](ServingConfig& c) {
            disagg_only(c);
            c.cluster.disagg.decode_replicas = 0;
          }},
    Fault{"disagg KV bytes -1", kCluster,
          [](ServingConfig& c) {
            disagg_only(c);
            c.cluster.disagg.kv_bytes_per_token = -1.0;
          }},
    Fault{"disagg link latency -1", kCluster,
          [](ServingConfig& c) {
            disagg_only(c);
            c.cluster.disagg.link_latency_s = -1.0;
          }},
    Fault{"disagg with the autoscaler", kCluster,
          [](ServingConfig& c) {
            c.cluster.replicas = 1;
            c.cluster.autoscaler.enabled = true;
            c.cluster.disagg.enabled = true;
          }},
    Fault{"replicas above the autoscaler ceiling", kCluster,
          [](ServingConfig& c) {
            c.cluster.disagg.enabled = false;
            c.cluster.autoscaler.enabled = true;
            c.cluster.replicas = c.cluster.autoscaler.max_replicas + 1;
          }},

    // Rules only the composed config holds.
    Fault{"tenant id 4096", kServing,
          [](ServingConfig& c) { add_tenant(c, 4096, [](auto&) {}); }},
    Fault{"shares set on the workload", kServing,
          [](ServingConfig& c) {
            if (c.workload.tenant_shares.empty()) {
              c.workload.tenant_shares = {1.0};
            }
          }},
};

/// A valid config for one seed, spread over the whole knob space. The
/// generator is seeded by the sweep seed alone, so seed k means the same
/// configuration forever.
ServingConfig valid_config(std::mt19937_64& rng) {
  const auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const auto pickd = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };

  ServingConfig c;
  sched::WorkloadConfig& w = c.workload;
  w.seed = rng();
  w.shape = std::array{sched::WorkloadShape::kPoisson,
                       sched::WorkloadShape::kBursty,
                       sched::WorkloadShape::kShareGpt}[pick(0, 2)];
  w.qps = pickd(0.5, 16.0);
  w.duration_s = pickd(0.5, 4.0);
  w.input_tokens = pick(1, 128);
  w.output_tokens = pick(1, 32);
  w.burst_on_s = pickd(0.5, 4.0);
  w.burst_off_s = pickd(0.0, 4.0);
  w.length_sigma = pickd(0.0, 1.0);
  w.min_tokens = pick(1, 8);
  w.max_input_tokens = pick(8, 256);
  w.max_output_tokens = pick(8, 64);
  if (pick(0, 1) == 1) {
    w.shared_prefix_tokens = pick(1, 64);
    w.shared_prefix_groups = pick(1, 4);
    w.shared_prefix_share = pickd(0.0, 1.0);
  }
  w.sampling_n = pick(0, 2) == 0 ? pick(2, 3) : 1;

  sched::SchedulerConfig& s = c.scheduler;
  s.policy = std::array{sched::SchedPolicy::kFcfs,
                        sched::SchedPolicy::kShortestJob,
                        sched::SchedPolicy::kMaxUtilization,
                        sched::SchedPolicy::kWeightedFair}[pick(0, 3)];
  s.max_batch = pick(1, 64);
  s.prefill_chunk_tokens = pick(0, 1) == 0 ? 0 : pick(1, 64);
  s.blocks.block_size = std::array{4, 8, 16, 32}[pick(0, 3)];
  // Unlimited, derived from HBM, tiny (nothing may fit) or tight.
  s.blocks.num_blocks =
      std::array{0, -1, pick(1, 8), pick(16, 256)}[pick(0, 3)];
  s.blocks.watermark = pickd(0.0, 0.2);
  s.blocks.prefix_cache.enabled = pick(0, 1) == 1;
  s.blocks.prefix_cache.max_cached_blocks = pick(0, 32);
  s.blocks.prefix_cache.min_prefix_blocks = pick(1, 3);
  const int tenants = pick(0, 3);
  index_t id = pick(0, 2);
  for (int t = 0; t < tenants; ++t) {
    sched::TenantSpec spec;
    spec.id = id;
    id += pick(1, 3);
    spec.weight = pickd(0.1, 4.0);
    spec.tier = pick(0, 2);
    spec.kv_block_quota = pick(-1, 16);
    spec.traffic_share = pickd(0.1, 3.0);
    s.tenants.push_back(spec);
  }
  if (pick(0, 3) == 0) s.blocks.tenant_quotas = {{0, pick(0, 16)}};
  s.wfq_tier_penalty_tokens = pickd(0.0, 8192.0);
  s.wfq_aging_tokens_per_s = pickd(1.0, 512.0);
  if (pick(0, 2) == 0) {
    s.speculation.depth = pick(1, 4);
    s.speculation.acceptance =
        std::array{0.0, 1.0, pickd(0.0, 1.0)}[pick(0, 2)];
  }
  if (pick(0, 2) == 0) {
    s.slo.ttft_deadline_ms = pickd(0.0, 500.0);
    s.slo.tpot_deadline_ms = pickd(0.0, 50.0);
  }

  // The rank grid stays at most 32 GPUs, and at most 4 under a budget
  // derived from HBM: that budget grows with the grid, and a seed should
  // stay a few MiB of KV bookkeeping.
  const bool derived = s.blocks.num_blocks < 0;
  parallel::ParallelConfig& g = c.parallel;
  g.tensor_parallel = std::array{1, 1, 2, 4, 8}[pick(0, derived ? 3 : 4)];
  g.pipeline_parallel = g.tensor_parallel == 1 && !derived
                            ? std::array{1, 1, 2, 4, 32}[pick(0, 4)]
                            : std::array{1, 1, 2, 4}[pick(0, derived ? 2 : 3)];
  if (derived && g.world_size() > 4) g.pipeline_parallel = 1;
  g.microbatches = pick(0, 4);
  g.comm_buckets = pick(1, 4);

  cluster::ClusterOptions& k = c.cluster;
  k.replicas = pick(1, 4);
  k.placement = std::array{cluster::Placement::kRoundRobin,
                           cluster::Placement::kLeastLoaded,
                           cluster::Placement::kSessionAffinity}[pick(0, 2)];
  k.autoscaler.min_replicas = 1;
  k.autoscaler.max_replicas = pick(4, 6);
  k.autoscaler.interval_s = pickd(0.5, 2.0);
  k.autoscaler.scale_down_queue_per_replica = pickd(0.0, 1.0);
  k.autoscaler.scale_up_queue_per_replica = pickd(1.5, 4.0);
  switch (pick(0, 2)) {
    case 0:
      k.autoscaler.enabled = true;
      break;
    case 1:
      k.disagg.enabled = true;
      k.disagg.prefill_replicas = pick(1, 2);
      k.disagg.decode_replicas = pick(1, 2);
      if (pick(0, 1) == 1) {
        k.disagg.link_bytes_per_s = pickd(1e9, 1e11);
        k.disagg.link_latency_s = pickd(0.0, 1e-4);
      }
      break;
    default:
      break;
  }
  return c;
}

/// Runs `f`; true when it threw a `marlin::Error`, whose message must be
/// one plain line. Any other exception escapes and fails the test.
template <class F>
bool rejects(F&& f, std::string* message = nullptr) {
  try {
    f();
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_FALSE(what.empty());
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
    EXPECT_EQ(what.find("check `"), std::string::npos) << what;
    if (message != nullptr) *message = what;
    return true;
  }
  return false;
}

TEST(ConfigFuzz, ValidateRejectsExactlyTheInjectedFaults) {
  const Engine& engine = fuzz_engine();
  const ModelConfig& model = engine.config().model;
  const index_t seeds = seed_count(480);
  index_t accepted = 0;
  for (index_t seed = 1; seed <= seeds; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) *
                            0x9E3779B97F4A7C15ull +
                        0x2545F4914F6CDD1Dull);
    ServingConfig c = valid_config(rng);
    unsigned parts = 0;
    std::string faults;
    const auto inject = [&](const Fault& f) {
      f.inject(c);
      parts |= f.parts;
      if (!faults.empty()) faults += ", ";
      faults += f.name;
    };
    if (seed % 2 == 1) {
      inject(kFaults[static_cast<std::size_t>(seed / 2) % kFaults.size()]);
    } else if (seed % 6 == 2) {
      for (int i = 0; i < 2; ++i) {
        inject(kFaults[std::uniform_int_distribution<std::size_t>(
            0, kFaults.size() - 1)(rng)]);
      }
    }
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " faults: [" << faults << "]");

    EXPECT_EQ(rejects([&] { c.workload.validate(); }),
              (parts & kWorkload) != 0);
    // On its own the scheduler takes no "derive from HBM" budget.
    EXPECT_EQ(rejects([&] { c.scheduler.validate(); }),
              (parts & kScheduler) != 0 || c.scheduler.blocks.num_blocks < 0);
    EXPECT_EQ(rejects([&] { c.parallel.validate(model); }),
              (parts & kParallel) != 0);
    EXPECT_EQ(rejects([&] { c.cluster.validate(); }),
              (parts & kCluster) != 0);

    std::string message;
    const bool rejected = rejects([&] { c.validate(model); }, &message);
    EXPECT_EQ(rejected, parts != 0);
    if (rejected) {
      std::string again;
      EXPECT_TRUE(rejects([&] { (void)simulate(engine, c); }, &again));
      EXPECT_EQ(again, message);
      continue;
    }
    if (parts != 0) continue;
    ++accepted;
    cluster::ClusterStats cs;
    try {
      cs = simulate(engine, c);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "simulate threw on a validated config: " << e.what();
      continue;
    }
    const sched::SchedStats& st = cs.sched;
    EXPECT_EQ(st.metrics.completed + st.rejected + st.shed,
              static_cast<index_t>(st.requests.size()));
    for (const auto& rep : cs.replicas) {
      EXPECT_EQ(rep.leaked_kv_blocks, 0) << "replica " << rep.id;
    }
    if (HasFailure()) return;
  }
  // The sweep must reach what it exists for: runs on accepted configs.
  if (seeds >= 16) {
    EXPECT_GT(accepted, seeds / 4);
  }
}

}  // namespace
}  // namespace marlin::serve
