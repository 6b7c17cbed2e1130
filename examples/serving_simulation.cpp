// Serving simulation: a vLLM-style server under trace-driven client load,
// comparing weight formats — the paper's §5.2 client-count experiment as a
// runnable tool, now on top of the request-level scheduler subsystem
// (paged KV cache, admission policies, preemption). The three engine
// simulations run concurrently under `--threads N` (fixed seed keeps the
// table deterministic).
//
//   $ ./serving_simulation --model llama-2-7b --device rtxa6000 --qps 5
//   $ ./serving_simulation --model llama-2-70b --device a100 --tp 4 --pp 2
//   $ ./serving_simulation --workload sharegpt --policy sjf --kv-blocks 256
//
// `--tp/--pp/--microbatches` shard the model across a tensor/pipeline-
// parallel rank grid (per-rank workers, interconnect-priced all-reduce and
// activation send/recv); they are the one way to use more than one GPU.
// Invalid input (a flag or the serving config it builds) prints one
// `serving_simulation: ...` line to stderr before any output and exits
// with status 2. A KV budget too small for some requests still runs, and
// warns on stderr how many of each format's requests it rejected.

#include <iostream>
#include <optional>

#include "common.hpp"
#include "serve/parallel/parallel_engine.hpp"
#include "serve/server_sim.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

static int run(marlin::CliArgs& args) {
  using namespace marlin;
  namespace sched = serve::sched;
  if (args.has("gpus")) {
    throw Error("--gpus is not supported; shard the model with --tp N "
                "(and --pp N for pipeline stages)");
  }
  const SimContext ctx = make_sim_context(args);
  serve::EngineConfig ecfg;
  ecfg.model = args.get_parsed("model", "llama-2-7b", "target model",
                               serve::model_by_name);
  ecfg.gpu =
      args.get_parsed("device", "rtxa6000", "GPU", gpusim::device_by_name);

  serve::ServingConfig scfg;
  sched::WorkloadConfig& w = scfg.workload;
  sched::SchedulerConfig& sc = scfg.scheduler;
  w.qps = args.get_double("qps", 2.5, "mean arrival rate");
  w.duration_s =
      args.get_double("duration", 120.0, "arrival window seconds");
  w.input_tokens = args.get_int("input-tokens", 64, "prompt tokens");
  w.output_tokens = args.get_int("output-tokens", 64, "output tokens");
  w.seed = bench::read_seed(args);
  sc.blocks.prefix_cache = bench::read_prefix_cache(args);
  w.shape = bench::read_workload(args);
  sc.policy = bench::read_policy(args);
  // --kv-blocks: -1 derives the budget from the device HBM next to the
  // weights (per-rank aware under --tp/--pp); 0 keeps it unlimited; any
  // positive count is used as-is.
  sc.blocks.num_blocks = args.get_int(
      "kv-blocks", 0,
      "KV budget in blocks (-1 = derive from HBM, 0 = unlimited)");
  sc.blocks.block_size =
      args.get_int("kv-block-size", 16, "tokens per KV block");
  sc.prefill_chunk_tokens = args.get_int(
      "prefill-chunk", 0,
      "per-sequence prefill chunk tokens (0 = whole prompt)");
  w.shared_prefix_tokens = args.get_int(
      "shared-prefix-tokens", 0,
      "shared system-prompt length prepended to tagged prompts (0 = off)");
  w.shared_prefix_groups =
      args.get_int("shared-prefix-groups", 1, "distinct shared headers");
  w.shared_prefix_share = args.get_double(
      "shared-prefix-share", 1.0,
      "fraction of requests carrying a shared header");
  w.sampling_n =
      args.get_int("sampling-n", 1, "parallel-sampling width per request");
  scfg.parallel.tensor_parallel =
      static_cast<int>(args.get_int("tp", 1, "tensor-parallel degree"));
  scfg.parallel.pipeline_parallel =
      static_cast<int>(args.get_int("pp", 1, "pipeline-parallel degree"));
  scfg.parallel.microbatches = static_cast<int>(args.get_int(
      "microbatches", 0, "pipeline microbatches (0 = one per stage)"));
  scfg.parallel.comm_buckets = static_cast<int>(args.get_int(
      "comm-buckets", 1,
      "all-reduce chunks overlapped with the next block's compute (1 = "
      "serialized)"));
  // --tenants N: N equal-weight, equal-share tenants — enough to exercise
  // the multi-tenant machinery (see bench_serve_multitenant for tiered
  // mixes with quotas).
  const index_t tenants = args.get_int(
      "tenants", 0,
      "split traffic over N equal-weight tenants (pair with --policy wfq)");
  for (index_t t = 0; t < tenants; ++t) {
    sched::TenantSpec spec;
    spec.id = t;
    spec.name = "tenant" + std::to_string(t);
    sc.tenants.push_back(spec);
  }
  sc.speculation.depth = args.get_int(
      "spec-depth", 0, "speculative draft tokens per round (0 = off)");
  sc.speculation.acceptance =
      args.get_double("spec-accept", 0.7, "per-token draft acceptance");
  const auto draft = args.get_parsed(
      "draft-model", "", "draft model (empty = tinyllama-1.1b)",
      [](const std::string& name) {
        return name.empty() ? std::optional<serve::ModelConfig>()
                            : serve::model_by_name(name);
      });
  if (draft) scfg.draft_model = *draft;
  // Cluster shape: replicas behind the router, streaming SLOs, autoscaler.
  // The defaults (1 replica, no SLO) are exactly the legacy single-engine
  // simulation.
  scfg.cluster.replicas =
      args.get_int("replicas", 1, "engine replicas behind the router");
  scfg.cluster.placement = args.get_parsed(
      "placement", "round-robin",
      "replica placement: round-robin | least-loaded | session-affinity",
      serve::cluster::placement_by_name);
  sc.slo.ttft_deadline_ms = args.get_double(
      "ttft-slo", 0.0, "TTFT deadline ms (shed-on-hopeless; 0 = off)");
  sc.slo.tpot_deadline_ms = args.get_double(
      "tpot-slo", 0.0, "TPOT deadline ms (violation accounting; 0 = off)");
  scfg.cluster.autoscaler.enabled = args.get_bool(
      "autoscale", false, "enable the trace-driven autoscaler");
  scfg.cluster.autoscaler.max_replicas =
      args.get_int("autoscale-max", 8, "autoscaler replica ceiling");
  // Disaggregated pools: --prefill-replicas/--decode-replicas size the
  // fleet directly (KV pricing and the transfer link derive from the
  // engine and device inside serve::simulate); giving either one turns
  // them on.
  scfg.cluster.disagg.enabled =
      args.has("prefill-replicas") || args.has("decode-replicas");
  scfg.cluster.disagg.prefill_replicas = args.get_int(
      "prefill-replicas", 1,
      "disaggregated pools: prefill-role replicas (overrides --replicas)");
  scfg.cluster.disagg.decode_replicas = args.get_int(
      "decode-replicas", 1,
      "disaggregated pools: decode-role replicas fed by KV migration");
  const bench::Observation observation(args);
  args.finish(
      "trace-driven serving comparison of weight formats (FP16 / MARLIN / "
      "Sparse-MARLIN) on the request-level scheduler");
  scfg.validate(ecfg.model);
  const std::vector<serve::WeightFormat> formats{
      serve::WeightFormat::kFp16, serve::WeightFormat::kMarlin,
      serve::WeightFormat::kSparseMarlin};
  // Each format's KV budget: a derived one (--kv-blocks -1) needs the
  // format's weights, and one that leaves no headroom fails here, before
  // any output.
  std::vector<index_t> budgets;
  for (const serve::WeightFormat format : formats) {
    serve::EngineConfig cfg = ecfg;
    cfg.format = format;
    budgets.push_back(serve::kv_block_budget(serve::Engine(cfg), scfg));
  }

  std::cout << ecfg.model.name << " on " << scfg.parallel.world_size()
            << "x " << ecfg.gpu.name;
  if (!scfg.parallel.trivial()) {
    std::cout << " (" << scfg.parallel.to_string() << ", "
              << ecfg.gpu.interconnect_name << ")";
  }
  std::cout << ", " << w.qps << " QPS " << sched::to_string(w.shape)
            << ", " << w.input_tokens << " in / " << w.output_tokens
            << " out, policy " << sched::to_string(sc.policy);
  if (!sc.tenants.empty()) {
    std::cout << ", " << sc.tenants.size() << " tenants";
  }
  if (sc.speculation.enabled()) {
    std::cout << ", speculative depth " << sc.speculation.depth
              << " (accept "
              << format_double(sc.speculation.acceptance, 2) << ", draft "
              << (scfg.draft_model.name.empty()
                      ? serve::tinyllama_1_1b().name  // server_sim's default
                      : scfg.draft_model.name)
              << ")";
  }
  const bool clustered = scfg.cluster.replicas > 1 ||
                         scfg.cluster.autoscaler.enabled ||
                         scfg.cluster.disagg.enabled || sc.slo.enabled();
  if (clustered) {
    if (scfg.cluster.disagg.enabled) {
      std::cout << ", pools " << scfg.cluster.disagg.prefill_replicas
                << " prefill + " << scfg.cluster.disagg.decode_replicas
                << " decode";
    } else {
      std::cout << ", " << scfg.cluster.replicas << " replicas ("
                << serve::cluster::to_string(scfg.cluster.placement) << ")";
    }
    if (scfg.cluster.autoscaler.enabled) {
      std::cout << ", autoscale<=" << scfg.cluster.autoscaler.max_replicas;
    }
    if (sc.slo.enabled()) {
      std::cout << ", SLO " << sc.slo.ttft_deadline_ms << "/"
                << sc.slo.tpot_deadline_ms << " ms";
    }
  }
  std::cout << "\n\n";

  std::vector<std::vector<std::string>> rows(formats.size());
  std::vector<std::string> cluster_rows(formats.size());
  std::vector<std::string> warnings(formats.size());
  ctx.parallel_for(0, static_cast<std::int64_t>(formats.size()),
                   [&](std::int64_t i) {
                     auto cfg = ecfg;
                     cfg.format = formats[static_cast<std::size_t>(i)];
                     const serve::Engine engine(cfg);
                     const auto cs = serve::simulate(engine, scfg);
                     const auto& st = cs.sched;
                     const auto& m = st.metrics;
                     if (clustered) {
                       std::ostringstream cl;
                       cl << serve::to_string(cfg.format) << ": peak "
                          << cs.peak_replicas << " replicas (+"
                          << cs.replicas_added << "/-" << cs.replicas_drained
                          << " scaled), shed " << st.shed
                          << ", TTFT viol " << st.slo_ttft_violations
                          << ", TPOT viol " << st.slo_tpot_violations;
                       if (cs.migrations > 0) {
                         cl << ", migrations " << cs.migrations << " ("
                            << format_bytes(cs.transfer_bytes) << " in "
                            << format_double(cs.transfer_seconds, 3) << " s)";
                       }
                       cluster_rows[static_cast<std::size_t>(i)] = cl.str();
                     }
                     if (st.rejected > 0) {
                       std::ostringstream wn;
                       wn << "serving_simulation: warning: "
                          << serve::to_string(cfg.format) << ": "
                          << st.rejected << " of " << st.requests.size()
                          << " requests rejected: each needs more KV "
                             "blocks than the "
                          << budgets[static_cast<std::size_t>(i)]
                          << "-block budget leaves";
                       warnings[static_cast<std::size_t>(i)] = wn.str();
                     }
                     double weights_per_gpu = engine.weight_bytes_per_gpu();
                     if (!scfg.parallel.trivial()) {
                       weights_per_gpu =
                           serve::parallel::ParallelEngine(engine,
                                                           scfg.parallel)
                               .max_weight_shard_bytes();
                     }
                     rows[static_cast<std::size_t>(i)] = {
                         serve::to_string(cfg.format),
                         format_double(m.mean_tpot_ms, 2),
                         format_double(m.p90_tpot_ms, 2),
                         format_double(m.mean_ttft_ms, 2),
                         format_double(m.p90_ttft_ms, 2),
                         format_double(m.mean_batch, 1),
                         std::to_string(m.completed),
                         std::to_string(st.preemptions),
                         format_bytes(weights_per_gpu)};
                   });

  Table table({"engine", "TPOT ms", "p90 TPOT", "TTFT ms", "p90 TTFT",
               "mean batch", "completed", "preempt", "weights/GPU"});
  for (const auto& row : rows) table.add_row(row);
  table.print(std::cout);
  if (clustered) {
    std::cout << "\nCluster:\n";
    for (const auto& line : cluster_rows) std::cout << "  " << line << "\n";
  }
  for (const auto& line : warnings) {
    if (!line.empty()) std::cerr << line << "\n";
  }

  // `--trace-out` / `--metrics-out`: record the exact configured run on
  // the MARLIN engine in one serial re-run.
  if (observation.enabled()) {
    auto cfg = ecfg;
    cfg.format = serve::WeightFormat::kMarlin;
    observation.maybe_write(serve::Engine(cfg), scfg);
  }
  return 0;
}

int main(int argc, char** argv) { return marlin::cli_main(argc, argv, run); }
