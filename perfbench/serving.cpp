// Serving workloads `fleet` and `tenants`.
//
// Load model: this process is one client in a closed loop that runs whole
// simulations back to back; inside each simulation arrivals follow an
// open-loop Poisson schedule in simulated time, and TTFT is taken from
// each request's arrival, so simulated queueing counts. Everything runs
// on the serial SimContext (the event loop is serial).
//
// One repetition = one simulation of one trace: set-up (fresh engine,
// trace generation, decode-memo warm-up) + one timed EventLoop::run +
// correctness checks. A fresh engine per repetition keeps the step memo
// cold, so every repetition of a trace does the same work. A study is one
// repetition of each of several traces; the run cycles through the traces
// and times each trace by the median of its repetitions, so a study's time
// is a sum of medians, each over the whole run.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gpusim/device.hpp"
#include "serve/cluster/event_loop.hpp"
#include "serve/engine.hpp"
#include "serve/model_config.hpp"
#include "serve/parallel/parallel_engine.hpp"
#include "serve/sched/scheduler.hpp"
#include "serve/sched/workload.hpp"
#include "timed_step_model.hpp"
#include "util/sim_context.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace serve = marlin::serve;
namespace sched = serve::sched;
namespace cluster = serve::cluster;
using marlin::index_t;

/// Arrival windows (simulated seconds), sized for host time per
/// repetition; a study's traces together give >= 10 samples beyond every
/// reported p99. `tenants` is overloaded, so its host cost grows faster
/// than its window and varies more from trace to trace: many short traces
/// keep a study's cost steadier across seeds than a few long ones.
constexpr double kFleetWindowS = 60.0;
constexpr double kTenantsWindowS = 40.0;
/// Fleet replicas, and the smaller fleet the per-tick growth compares to.
constexpr index_t kFleetReplicas = 64;
constexpr index_t kFleetSmallReplicas = 16;

struct ServingSpec {
  serve::EngineConfig engine;
  int tensor_parallel = 1;
  sched::WorkloadConfig workload;
  sched::SchedulerConfig scheduler;
  cluster::ClusterOptions cluster;
};

/// Llama-2-7B MARLIN on RTX A6000 behind `replicas` unified replicas with
/// least-loaded placement; Poisson at 4 QPS per replica, 64 in / 64 out,
/// unlimited KV, FCFS, max batch 128.
ServingSpec fleet_spec(std::uint64_t seed, index_t replicas) {
  ServingSpec s;
  s.engine.model = serve::llama2_7b();
  s.engine.gpu = marlin::gpusim::rtxa6000();
  s.engine.format = serve::WeightFormat::kMarlin;
  s.workload.shape = sched::WorkloadShape::kPoisson;
  s.workload.qps = 4.0 * static_cast<double>(replicas);
  s.workload.duration_s = kFleetWindowS;
  s.workload.input_tokens = 64;
  s.workload.output_tokens = 64;
  s.workload.seed = seed;
  s.scheduler.policy = sched::SchedPolicy::kFcfs;
  s.scheduler.max_batch = 128;
  s.cluster.replicas = replicas;
  s.cluster.placement = cluster::Placement::kLeastLoaded;
  return s;
}

/// Llama-2-13B MARLIN at TP=2 on RTX A6000 (ParallelEngine), one replica.
/// ShareGPT lengths (median 256 in / 128 out); 80% of requests carry one
/// of 4 shared 256-token system prompts; n=2 sampling; two tenants with
/// WFQ weights 4:1 and equal traffic; prefix cache on; 1024 KV blocks of
/// 16 tokens; prefill chunked at 512; Poisson at 8 QPS.
ServingSpec tenants_spec(std::uint64_t seed) {
  ServingSpec s;
  s.engine.model = serve::llama2_13b();
  s.engine.gpu = marlin::gpusim::rtxa6000();
  s.engine.format = serve::WeightFormat::kMarlin;
  s.tensor_parallel = 2;
  s.workload.shape = sched::WorkloadShape::kShareGpt;
  s.workload.qps = 8.0;
  s.workload.duration_s = kTenantsWindowS;
  s.workload.input_tokens = 256;
  s.workload.output_tokens = 128;
  s.workload.seed = seed;
  s.workload.tenant_shares = {1.0, 1.0};
  s.workload.shared_prefix_tokens = 256;
  s.workload.shared_prefix_groups = 4;
  s.workload.shared_prefix_share = 0.8;
  s.workload.sampling_n = 2;
  s.scheduler.policy = sched::SchedPolicy::kWeightedFair;
  s.scheduler.max_batch = 128;
  s.scheduler.prefill_chunk_tokens = 512;
  s.scheduler.blocks.block_size = 16;
  s.scheduler.blocks.num_blocks = 1024;
  s.scheduler.blocks.prefix_cache.enabled = true;
  s.scheduler.tenants = {{0, "interactive", 4.0, 0, sched::kNoQuota, 1.0},
                         {1, "batch", 1.0, 0, sched::kNoQuota, 1.0}};
  return s;
}

/// Traces per study, each on its own sub-seed (`seed * traces + i`).
/// Summing several traces keeps the host cost of a study steady from one
/// seed to the next.
constexpr std::uint64_t kFleetTraces = 4;
constexpr std::uint64_t kTenantsTraces = 32;

/// One simulation, or a study folded from several: the sums (or, for
/// peaks, maxima) over its simulations.
struct Rep {
  // Host seconds.
  double build_s = 0, trace_s = 0, warm_s = 0, run_s = 0;
  // Traced repetitions only.
  double busy_s = 0;
  bool spans_nested = true;  // engine spans lie inside the loop span, disjoint
  std::vector<double> call_ns;
  std::size_t calls = 0, distinct = 0;
  // Simulated outcome.
  index_t requests = 0, rejected = 0, shed = 0, ticks = 0, preemptions = 0;
  index_t prefix_hits = 0, prefix_lookups = 0, cow_copies = 0;
  index_t peak_kv_blocks = 0;  // max over replicas and simulations
  double output_tokens = 0;    // completed output tokens x sequences
  double mean_batch = 0;       // mean over simulations
  std::vector<index_t> routed;  // per replica id
  std::vector<double> ttft_ms, tpot_ms;  // kept for the first repetition
  std::uint64_t digest = 0;

  [[nodiscard]] double setup_s() const { return build_s + trace_s + warm_s; }
  [[nodiscard]] double self_s() const { return run_s - busy_s; }
};

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Runs one simulation of `spec`, checking request conservation and
/// KV-block leaks.
Rep run_sim(const ServingSpec& spec, bool traced, bool keep_latency,
            Report& report) {
  const marlin::SimContext& serial = marlin::SimContext::serial_context();
  Rep rep;
  Digest digest;

  // Set-up: fresh engine, trace, decode-memo warm-up.
  const std::int64_t t0 = now_ns();
  const auto engine = std::make_unique<serve::Engine>(spec.engine);
  std::unique_ptr<serve::parallel::ParallelEngine> sharded;
  if (spec.tensor_parallel > 1) {
    serve::parallel::ParallelConfig pc;
    pc.tensor_parallel = spec.tensor_parallel;
    sharded = std::make_unique<serve::parallel::ParallelEngine>(*engine, pc);
  }
  const serve::StepModel& model =
      sharded ? static_cast<const serve::StepModel&>(*sharded) : *engine;
  const std::int64_t t1 = now_ns();
  const std::vector<sched::TraceRequest> trace =
      sched::generate_trace(spec.workload);
  const std::int64_t t2 = now_ns();
  index_t max_context = 1;
  for (const auto& r : trace) {
    max_context = std::max(max_context, r.input_tokens + r.output_tokens);
  }
  model.warm_decode_cache(serial, spec.scheduler.max_batch,
                          static_cast<double>(max_context));
  const std::int64_t t3 = now_ns();
  rep.build_s = seconds_between(t0, t1);
  rep.trace_s = seconds_between(t1, t2);
  rep.warm_s = seconds_between(t2, t3);

  // Timed region: one whole simulation.
  std::optional<TimedStepModel> timed;
  if (traced) timed.emplace(model);
  const serve::StepModel& priced =
      timed ? static_cast<const serve::StepModel&>(*timed) : model;
  const sched::Scheduler scheduler(priced, spec.scheduler);
  const cluster::EventLoop loop(scheduler, spec.cluster);
  const std::int64_t r0 = now_ns();
  const cluster::ClusterStats st = loop.run(trace, serial);
  const std::int64_t r1 = now_ns();
  rep.run_s = seconds_between(r0, r1);

  if (timed) {
    const std::int64_t covered = covered_ns({r0, r1}, timed->spans());
    std::int64_t summed = 0;
    for (const Span& sp : timed->spans()) summed += sp.end_ns - sp.start_ns;
    rep.busy_s = static_cast<double>(covered) * 1e-9;
    rep.spans_nested = covered == summed;
    rep.call_ns = timed->call_ns();
    rep.calls = timed->calls();
    rep.distinct = timed->distinct_keys();
  }

  // Outcome, conservation and leaks.
  const sched::SchedStats& s = st.sched;
  index_t completed = 0, rejected = 0, shed = 0;
  for (const sched::Request& r : s.requests) {
    digest.add(r.first_token_s);
    digest.add(r.finish_s);
    digest.add(r.generated);
    digest.add(r.preemptions);
    if (r.rejected) {
      ++rejected;
    } else if (r.shed) {
      ++shed;
    } else if (r.finish_s >= 0) {
      ++completed;
      rep.output_tokens += static_cast<double>(r.output_tokens * r.num_sequences);
      if (keep_latency) {
        rep.ttft_ms.push_back((r.first_token_s - r.arrival_s) * 1e3);
        rep.tpot_ms.push_back(
            (r.finish_s - r.first_token_s) /
            static_cast<double>(std::max<index_t>(1, r.output_tokens - 1)) * 1e3);
      }
    }
  }
  const auto sent = static_cast<index_t>(trace.size());
  report.check(completed + rejected + shed == sent,
               "request conservation: completed + rejected + shed != sent");
  report.check(s.metrics.completed + s.rejected + s.shed == sent,
               "scheduler counters do not conserve requests");
  for (const index_t v :
       {s.preemptions, s.rejected, s.shed, s.prefill_steps, s.decode_steps,
        s.peak_kv_blocks, s.prefix_cache_hit_blocks,
        s.prefix_cache_lookup_blocks, s.cow_copies}) {
    digest.add(v);
  }
  digest.add(s.sim_end_s);
  digest.add(s.metrics.mean_batch);
  rep.routed.resize(st.replicas.size(), 0);
  for (const cluster::ReplicaStats& r : st.replicas) {
    report.check(r.leaked_kv_blocks == 0,
                 "replica " + std::to_string(r.id) + " leaked KV blocks");
    digest.add(r.routed);
    digest.add(r.completed);
    rep.routed[static_cast<std::size_t>(r.id)] = r.routed;
    rep.peak_kv_blocks = std::max(rep.peak_kv_blocks, r.peak_kv_blocks);
  }
  rep.requests = sent;
  rep.rejected = rejected;
  rep.shed = shed;
  rep.ticks = s.prefill_steps + s.decode_steps;
  rep.preemptions = s.preemptions;
  rep.prefix_hits = s.prefix_cache_hit_blocks;
  rep.prefix_lookups = s.prefix_cache_lookup_blocks;
  rep.cow_copies = s.cow_copies;
  rep.mean_batch = s.metrics.mean_batch;
  rep.digest = digest.value();
  report.attempted += sent;
  report.failed += rejected + shed;
  return rep;
}

/// A study: the simulations of its traces folded into one.
Rep fold(const std::vector<Rep>& sims) {
  Rep out;
  Digest digest;
  for (const Rep& r : sims) {
    out.build_s += r.build_s;
    out.trace_s += r.trace_s;
    out.warm_s += r.warm_s;
    out.run_s += r.run_s;
    out.busy_s += r.busy_s;
    out.spans_nested = out.spans_nested && r.spans_nested;
    out.call_ns.insert(out.call_ns.end(), r.call_ns.begin(), r.call_ns.end());
    out.calls += r.calls;
    out.distinct += r.distinct;
    out.requests += r.requests;
    out.rejected += r.rejected;
    out.shed += r.shed;
    out.ticks += r.ticks;
    out.preemptions += r.preemptions;
    out.prefix_hits += r.prefix_hits;
    out.prefix_lookups += r.prefix_lookups;
    out.cow_copies += r.cow_copies;
    out.peak_kv_blocks = std::max(out.peak_kv_blocks, r.peak_kv_blocks);
    out.output_tokens += r.output_tokens;
    out.mean_batch += r.mean_batch / static_cast<double>(sims.size());
    out.routed.resize(std::max(out.routed.size(), r.routed.size()), 0);
    for (std::size_t i = 0; i < r.routed.size(); ++i) out.routed[i] += r.routed[i];
    out.ttft_ms.insert(out.ttft_ms.end(), r.ttft_ms.begin(), r.ttft_ms.end());
    out.tpot_ms.insert(out.tpot_ms.end(), r.tpot_ms.begin(), r.tpot_ms.end());
    digest.add(r.digest);
  }
  out.digest = digest.value();
  return out;
}

/// The study made of each trace's repetition with the median run time
/// (lower middle for an even count), so its span, self time and busy time
/// add up exactly.
Rep median_study(const std::vector<std::vector<Rep>>& by_trace) {
  std::vector<Rep> picks;
  for (const std::vector<Rep>& reps : by_trace) {
    std::vector<const Rep*> sorted;
    for (const Rep& r : reps) sorted.push_back(&r);
    std::sort(sorted.begin(), sorted.end(),
              [](const Rep* a, const Rep* b) { return a->run_s < b->run_s; });
    picks.push_back(*sorted[(sorted.size() - 1) / 2]);
  }
  return fold(picks);
}

/// Sum over traces of the median of `field` over each trace's repetitions.
template <typename F>
double median_sum(const std::vector<std::vector<Rep>>& by_trace, F field) {
  double sum = 0;
  for (const std::vector<Rep>& reps : by_trace) sum += median(collect(reps, field));
  return sum;
}

double self_ns_per_tick(const Rep& r) {
  return r.self_s() * 1e9 / static_cast<double>(std::max<index_t>(1, r.ticks));
}

/// Simulated latency and outcome metrics, printed in the human report.
void report_sim(const Rep& rep, Report& report) {
  const auto pct = [&](const char* name, const std::vector<double>& xs,
                       double p) {
    const Percentile q = percentile(xs, p);
    report.info(name, q.value, "ms",
                samples_note(q.samples) + " beyond=" + std::to_string(q.beyond) +
                    (q.supported() || p <= 50 ? "" : " (fewer than 10 beyond)"));
  };
  pct("sim_tpot_p50_ms", rep.tpot_ms, 50);
  pct("sim_tpot_p99_ms", rep.tpot_ms, 99);
  pct("sim_ttft_p50_ms", rep.ttft_ms, 50);
  pct("sim_ttft_p99_ms", rep.ttft_ms, 99);
  report.info("failed_frac",
              static_cast<double>(rep.rejected + rep.shed) /
                  static_cast<double>(rep.requests),
              "ratio", "base=" + std::to_string(rep.requests) + " requests");
  report.info("requests", static_cast<double>(rep.requests), "count");
  report.info("sim_output_tokens", rep.output_tokens, "tokens");
}

}  // namespace

void run_serving(const Options& opt, Report& report) {
  const bool fleet = opt.workload == "fleet";
  const std::uint64_t traces = fleet ? kFleetTraces : kTenantsTraces;
  std::vector<ServingSpec> specs, smalls;
  for (std::uint64_t i = 0; i < traces; ++i) {
    const std::uint64_t seed = opt.seed * traces + i;
    specs.push_back(fleet ? fleet_spec(seed, kFleetReplicas) : tenants_spec(seed));
    smalls.push_back(fleet_spec(seed, kFleetSmallReplicas));
  }

  // Closed loop over the traces in turn: an untraced repetition per cycle,
  // or (traced run) an untraced and a traced one, plus the small fleet on
  // `fleet`. At least two cycles per trace.
  std::vector<std::vector<Rep>> plain(traces), traced(traces), traced_small(traces);
  // Peak memory through the first repetition (set-up + one simulation),
  // before later repetitions can add allocator fragmentation.
  double first_rss_mib = 0;
  std::size_t reps = 0;
  HostReference reference;
  LoopBudget budget(opt.seconds, 2 * traces);
  for (std::size_t cycle = 0; budget.next(); ++cycle) {
    const std::size_t k = cycle % traces;
    std::vector<Rep>& p = plain[k];
    p.push_back(run_sim(specs[k], false, p.empty(), report));
    ++reps;
    if (cycle == 0) first_rss_mib = peak_rss_mib();
    report.check(p.back().digest == p.front().digest,
                 "simulated outputs differ between repetitions");
    if (!opt.trace) {
      reference.run();
      continue;
    }
    std::vector<Rep>& t = traced[k];
    t.push_back(run_sim(specs[k], true, false, report));
    ++reps;
    // Call-time percentiles come from each trace's first traced repetition
    // (millions of samples on `fleet`); later ones keep only their sums.
    if (t.size() > 1) t.back().call_ns = {};
    report.check(t.back().digest == p.front().digest,
                 "traced and untraced simulated outputs differ");
    report.check(t.back().calls == t.front().calls &&
                     t.back().distinct == t.front().distinct,
                 "engine.calls / engine.distinct_ratio differ between "
                 "repetitions");
    report.check(t.back().spans_nested,
                 "engine spans overlap or leave the loop span, so "
                 "loop.self_s + engine.busy_s would not be loop.run_s");
    if (fleet) {
      std::vector<Rep>& ts = traced_small[k];
      ts.push_back(run_sim(smalls[k], true, false, report));
      ++reps;
      report.check(ts.back().digest == ts.front().digest,
                   "simulated outputs differ between repetitions");
    }
  }

  std::vector<Rep> firsts;
  for (const std::vector<Rep>& p : plain) firsts.push_back(p.front());
  const Rep first = fold(firsts);
  report_sim(first, report);
  report.info("traces_per_study", static_cast<double>(traces), "count");
  report.info("repetitions", static_cast<double>(reps), "count");
  report.info("digest_low32", static_cast<double>(first.digest & 0xffffffffu),
              "hash");

  const auto run_s = [](const Rep& r) { return r.run_s; };
  if (!opt.trace) {
    const std::string n = samples_note(plain.back().size()) + "+ per trace";
    report.result("setup_s",
                  median_sum(plain, [](const Rep& r) { return r.setup_s(); }),
                  "s", "sum over traces of the median, " + n);
    report.result("peak_rss_mib", first_rss_mib, "MiB", "through the first repetition");
    const double study_s = median_sum(plain, run_s);
    const std::string medians = "sum over traces of the median, " + n;
    const double ref_s = reference.median_s();
    report.info("study_s", study_s, "s", medians);
    report.info("sim_tokens_per_s", first.output_tokens / study_s, "tokens/s", medians);
    report.info("host_ref_s", ref_s, "s",
                "median " + samples_note(reference.samples()) + " reference sorts");
    report.result("study_rel", study_s / ref_s, "ref", "= study_s / host_ref_s");
    report.result("throughput_rel", first.output_tokens * ref_s / study_s, "1/ref",
                  "= sim_tokens_per_s x host_ref_s");
    return;
  }

  const Rep mid = median_study(traced);
  const std::string n = samples_note(traced.back().size()) + "+ per trace";
  report.result("loop.run_s", mid.run_s, "s",
                "sum over traces of the median, " + n);
  report.result("loop.self_s", mid.self_s(), "s", "= loop.run_s - engine.busy_s");
  report.result("loop.ticks", static_cast<double>(mid.ticks), "count");
  report.result("loop.self_ns_per_tick", self_ns_per_tick(mid), "ns");
  if (fleet) {
    report.result("cluster.tick_ns_growth",
                  self_ns_per_tick(mid) / self_ns_per_tick(median_study(traced_small)),
                  "ratio",
                  std::to_string(kFleetReplicas) + " vs " +
                      std::to_string(kFleetSmallReplicas) + " replicas");
  }
  double sum_routed = 0;
  for (const index_t r : mid.routed) sum_routed += static_cast<double>(r);
  report.result("cluster.route_imbalance",
                static_cast<double>(*std::max_element(mid.routed.begin(), mid.routed.end())) /
                    (sum_routed / static_cast<double>(mid.routed.size())),
                "ratio", "max / mean routed per replica");
  report.result("sched.preemptions", static_cast<double>(mid.preemptions), "count");
  report.result("sched.prefix_hit_ratio",
                mid.prefix_lookups > 0 ? static_cast<double>(mid.prefix_hits) /
                                             static_cast<double>(mid.prefix_lookups)
                                       : 0.0,
                "ratio", "base=" + std::to_string(mid.prefix_lookups) + " lookup blocks");
  report.result("sched.cow_copies", static_cast<double>(mid.cow_copies), "count");
  report.result("sched.peak_kv_blocks", static_cast<double>(mid.peak_kv_blocks),
                "blocks", "max over replicas");
  report.result("sched.mean_batch", mid.mean_batch, "seqs");

  std::vector<std::vector<Rep>> all = plain;
  for (std::size_t k = 0; k < traces; ++k) {
    all[k].insert(all[k].end(), traced[k].begin(), traced[k].end());
  }
  const std::string na = "sum over traces of the median, " +
                         samples_note(all.back().size()) + "+ per trace";
  report.result("workload.trace_s",
                median_sum(all, [](const Rep& r) { return r.trace_s; }),
                "s", na);
  report.result("engine.build_s",
                median_sum(all, [](const Rep& r) { return r.build_s; }),
                "s", na);
  report.result("engine.warm_s",
                median_sum(all, [](const Rep& r) { return r.warm_s; }),
                "s", na);
  report.result("engine.calls", static_cast<double>(mid.calls), "count");
  report.result("engine.busy_s", mid.busy_s, "s");
  std::vector<double> call_ns;
  for (const std::vector<Rep>& t : traced) {
    for (const Rep& r : t) call_ns.insert(call_ns.end(), r.call_ns.begin(), r.call_ns.end());
  }
  const Percentile p50 = percentile(call_ns, 50);
  const Percentile p99 = percentile(call_ns, 99);
  report.result("engine.call_ns_p50", p50.value, "ns", samples_note(p50.samples));
  report.result("engine.call_ns_p99", p99.value, "ns",
                samples_note(p99.samples) + " beyond=" + std::to_string(p99.beyond));
  report.result("engine.distinct_ratio",
                static_cast<double>(mid.distinct) /
                    static_cast<double>(std::max<std::size_t>(1, mid.calls)),
                "ratio", "base=" + std::to_string(mid.calls) + " calls");
  report.result("trace_overhead",
                median_sum(traced, run_s) / median_sum(plain, run_s) - 1.0,
                "ratio", "traced / untraced study wall - 1");
}

}  // namespace perfbench
