// Seed-swept fuzzer for weighted fair queuing under soft KV quotas: every
// seed derives a WFQ ServingConfig with 1-5 tenants (weights, priority
// tiers, traffic shares, tenant ids with gaps) whose quotas mix unquoted,
// borrow-only (0), partial and larger-than-budget values, on KV budgets
// small enough that blocked admissions, borrow-and-reclaim preemptions
// and decode-growth preemptions all fire. Each run must
//
//   - conserve requests (completed + rejected + shed == offered),
//   - leak no KV block on any replica,
//   - reproduce, bit for bit, the outcome digest recorded for its seed:
//     every request's first-token time, finish time and preemption count
//     plus the fleet counters.
//
// The digests pin the scheduler's decisions, so a change to admission or
// reclaim that is meant to be a pure speed-up must leave them unchanged.
//
// The sweep runs seeds 1..96 but the four listed in `kLivelockSeeds`,
// whose runs never end (a known reclaim defect, described there);
// MARLIN_FUZZ_SEEDS=<n> runs seeds 1..n instead (at most 96; the
// sanitizer CI job runs a subset). Registered under the ctest label
// `fuzz`.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <ios>
#include <random>
#include <string>

#include "serve/server_sim.hpp"
#include "util/hash.hpp"

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

/// Seeds whose run never ends: with n=2 sampling the reclaim planner
/// counts a forked sequence's shared blocks once per sequence, so a plan
/// that covers an admission on paper frees too few physical blocks; the
/// victim (just prefilled) is preempted, the admission still does not
/// fit, and the cycle repeats with the clock advancing but no decode
/// step ever running. See ROADMAP item 3.
constexpr std::array<std::uint64_t, 4> kLivelockSeeds = {24, 59, 62, 82};

/// Outcome digests of seeds 1..96, in seed order (0 for livelock seeds).
constexpr std::array<std::uint64_t, 96> kDigests = {
    0xb239925657fe63a1ull, 0x53c45b8b0fcb3b56ull, 0xeb9204668db52502ull,
    0x05d2aa0e916aaa10ull, 0x28141af39adcbb5full, 0x8d016776b20f2476ull,
    0x34c1feff67432e54ull, 0xb5790e7ba979363bull, 0x51b945cd961a758eull,
    0xd6c8161baa1022eaull, 0x8ca0614c499c0e07ull, 0xc50f73ca9433154full,
    0xf6ebd5f1e7e9afe8ull, 0xa8cf2ef0b7e0c6caull, 0x5b1d28477214c37bull,
    0x62c2da07d2d6783bull, 0x84e39f9cd71f6416ull, 0xf61f5713d38ce173ull,
    0xeb8a9395185f225bull, 0xa81466aa4f618844ull, 0x73e6e3cf95872710ull,
    0x297de9df42ffcf3bull, 0x54d55426dbd82444ull, 0,
    0xb07c5523fa136fcaull, 0x707e479bc44759aeull, 0x0a2608201c0246f4ull,
    0x8e379ed0947e7f5aull, 0xe84570683d98bc71ull, 0xf2066f8b0b3397acull,
    0x6e3cfc1a1f92118eull, 0xf62e13205d8bc7e9ull, 0xda3a8cf1602a6317ull,
    0x6e1455c496056f5aull, 0xbf48d5007294043bull, 0x7d8c3f2d4dff84c0ull,
    0x7ddc9a30d4ebb9adull, 0x117fac857e23a8dbull, 0x5b30a4c86bac99f7ull,
    0x947071e0fc13f60cull, 0x4190a5bf7a3890b9ull, 0xd461a3d0c8d28873ull,
    0x666f95af2a7d71c7ull, 0x0e890f28aceb61d7ull, 0xfa21c52b2174f34full,
    0x277355b03e5f1321ull, 0x6fb8c5baea884600ull, 0x6992eb7b738483a5ull,
    0xc91f8131e949ab92ull, 0x513bec253e0ffa13ull, 0x6056c4273fcbcecbull,
    0x8d1a52715e72c822ull, 0xe4e8e804d35b5c00ull, 0xc52877cf886046f1ull,
    0x4d310a75f71535e5ull, 0x16b22f0a68a9bf86ull, 0x147a977fe231fa69ull,
    0xa9d759ceaf33ecd7ull, 0, 0xc18240868941985bull,
    0x70ee052d5823d2dcull, 0, 0xffdaa34d5aeed149ull,
    0x911717d921de296dull, 0x73797f701bbda257ull, 0xdec26bdb56e1a7b0ull,
    0x75b491a3e876609dull, 0x004e705452e83afcull, 0x297de9df42ffcf3bull,
    0xead5c7e87b431205ull, 0x067fc7b7cf9093daull, 0xa181781bc910eb4full,
    0xef302ad91739993dull, 0x1b4a8150ca7b6eeaull, 0x3258a4988b820d1eull,
    0xe9a3a7324ff0c70cull, 0xfa88d79c89ba2acaull, 0x2033f0308ecd599eull,
    0xd16a19a89d3db967ull, 0x3d1a88fce762c951ull, 0x43434436cef53d92ull,
    0, 0x4e331a37b7f6fe1dull, 0xca00b049d377a81cull,
    0xe0804eb6affa512aull, 0xed941c76951a098eull, 0x1be56f3d1582db55ull,
    0x54b163e824730c76ull, 0xbf06775430ee8dd8ull, 0x2385c431ae312dc8ull,
    0x8eb224e1cd313e5cull, 0x8a569e15de9660a3ull, 0x875499d6233b83b5ull,
    0x1c5d02c09a24fd19ull, 0x804288a76b35e250ull, 0xaec76523c86c8c35ull};

/// MARLIN_FUZZ_SEEDS when set (capped at the recorded seeds), else all.
index_t seed_count() {
  const auto recorded = static_cast<index_t>(kDigests.size());
  if (const char* env = std::getenv("MARLIN_FUZZ_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return std::min<index_t>(n, recorded);
  }
  return recorded;
}

/// Deterministic WFQ config for one seed: seed k means the same
/// configuration forever, so a failure reproduces by number.
ServingConfig wfq_config_for_seed(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0xD6E8FEB86659FD93ull + 0xA0761D6478BD642Full);
  const auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const auto pickd = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };

  ServingConfig sc;
  sc.workload.seed = seed;
  sc.scheduler.policy = sched::SchedPolicy::kWeightedFair;
  sc.workload.qps = pickd(6.0, 24.0);
  sc.workload.duration_s = pickd(2.0, 5.0);
  sc.workload.input_tokens = pick(16, 128);
  sc.workload.output_tokens = pick(4, 48);
  sc.scheduler.max_batch = pick(4, 48);
  sc.workload.shape = std::array{sched::WorkloadShape::kPoisson,
                                 sched::WorkloadShape::kBursty,
                                 sched::WorkloadShape::kShareGpt}[pick(0, 2)];
  // Small budgets: admissions block, borrowers get reclaimed.
  sc.scheduler.blocks.num_blocks = pick(24, 160);
  sc.scheduler.prefill_chunk_tokens = pick(0, 1) == 0 ? 0 : 32;
  sc.workload.sampling_n = pick(0, 2) == 0 ? 2 : 1;
  if (pick(0, 1) == 1) {  // shared prefixes charge blocks across tenants
    sc.scheduler.blocks.prefix_cache.enabled = true;
    sc.workload.shared_prefix_tokens = pick(1, 4) * 16;
    sc.workload.shared_prefix_groups = pick(1, 3);
    sc.workload.shared_prefix_share = pickd(0.3, 1.0);
  }

  const int tenants = pick(1, 5);
  const int id_stride = pick(1, 3);  // > 1 leaves unused tenant ids
  for (int t = 0; t < tenants; ++t) {
    sched::TenantSpec spec;
    spec.id = t * id_stride;
    spec.name = "t";
    spec.name += std::to_string(spec.id);
    spec.weight = pickd(0.25, 4.0);
    spec.tier = pick(0, 2);
    spec.traffic_share = pickd(0.2, 1.0);
    const auto budget = static_cast<int>(sc.scheduler.blocks.num_blocks);
    switch (pick(0, 4)) {
      case 0:
        spec.kv_block_quota = sched::kNoQuota;
        break;
      case 1:
        spec.kv_block_quota = 0;  // borrow-only
        break;
      case 2:
        spec.kv_block_quota = pick(1, budget / 2);
        break;
      case 3:
        spec.kv_block_quota = pick(budget / 4, budget);
        break;
      default:
        spec.kv_block_quota = budget + pick(1, 100);  // clamps to budget
        break;
    }
    sc.scheduler.tenants.push_back(spec);
  }
  if (pick(0, 3) == 0) {
    sc.cluster.replicas = 2;
    sc.cluster.placement = cluster::Placement::kLeastLoaded;
  }
  return sc;
}

/// One number over the run's decisions: per request (trace order) its
/// first-token time, finish time and preemptions, then every counter.
std::uint64_t outcome_digest(const cluster::ClusterStats& cs) {
  std::uint64_t h = 0;
  const auto add = [&](std::uint64_t v) { h = util::mix64(h ^ v); };
  for (const sched::Request& r : cs.sched.requests) {
    add(std::bit_cast<std::uint64_t>(r.first_token_s));
    add(std::bit_cast<std::uint64_t>(r.finish_s));
    add(static_cast<std::uint64_t>(r.preemptions));
  }
  for (const sched::SchedCounterField& f : sched::kSchedCounterFields) {
    add(static_cast<std::uint64_t>(cs.sched.*f.member));
  }
  return h;
}

TEST(WfqFuzz, QuotaSweepConservesRequestsAndReproducesRecordedOutcomes) {
  const index_t seeds = seed_count();
  index_t preemptions = 0;
  index_t quota_seeds = 0;
  for (index_t seed = 1; seed <= seeds; ++seed) {
    if (std::find(kLivelockSeeds.begin(), kLivelockSeeds.end(),
                  static_cast<std::uint64_t>(seed)) != kLivelockSeeds.end()) {
      continue;
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ServingConfig sc = wfq_config_for_seed(seed);
    const cluster::ClusterStats cs = simulate(fuzz_engine(), sc);
    const sched::SchedStats& st = cs.sched;
    EXPECT_EQ(st.metrics.completed + st.rejected + st.shed,
              static_cast<index_t>(st.requests.size()));
    for (const sched::Request& r : st.requests) {
      EXPECT_TRUE(r.finished()) << "request " << r.id;
    }
    for (const auto& rep : cs.replicas) {
      EXPECT_EQ(rep.leaked_kv_blocks, 0) << "replica " << rep.id;
    }
    EXPECT_EQ(outcome_digest(cs), kDigests[static_cast<std::size_t>(seed - 1)])
        << std::hex << std::showbase << "digest " << outcome_digest(cs);
    preemptions += st.preemptions;
    const auto& tenants = sc.scheduler.tenants;
    quota_seeds += std::any_of(tenants.begin(), tenants.end(),
                               [](const sched::TenantSpec& t) {
                                 return t.kv_block_quota != sched::kNoQuota;
                               });
    if (HasFatalFailure()) return;
  }
  // The sweep must reach what it exists for: quotas and preemptions.
  if (seeds >= 16) {
    EXPECT_GT(quota_seeds, seeds / 2);
    EXPECT_GT(preemptions, 0);
  }
}

}  // namespace
}  // namespace marlin::serve
