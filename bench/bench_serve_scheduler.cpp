// Scheduler scenario sweep: admission policy x workload shape x KV-cache
// budget for Llama-2-7B (MARLIN) on RTX A6000 under overload (8 QPS).
//
// This is the exploration surface the paper's Figures 15/16 only sample
// one point of: how the serving metrics respond when the arrival process
// burns in bursts or carries heavy-tailed ShareGPT-like lengths, and when
// the paged KV cache actually runs out — forcing watermark admission,
// queueing, and recompute preemption. All 27 simulations are fixed-seed
// discrete-event runs fanned out on the SimContext pool; the tables are
// byte-identical at every `--threads` count (ctest -L golden enforces it).

#include <iostream>

#include "common.hpp"
#include "serve/server_sim.hpp"

static int run(marlin::CliArgs& args) {
  using namespace marlin;
  namespace sched = serve::sched;
  const SimContext ctx = make_sim_context(args);
  serve::ServingConfig base;
  base.workload.qps = args.get_double("qps", 8.0, "mean arrival rate");
  base.workload.duration_s =
      args.get_double("duration", 60.0, "arrival window seconds");
  base.workload.seed = bench::read_seed(args);
  base.scheduler.blocks.prefix_cache = bench::read_prefix_cache(args);
  base.scheduler.prefill_chunk_tokens = args.get_int(
      "prefill-chunk", 0, "per-sequence prefill chunk tokens (0 = unchunked)");
  // The sweep runs fcfs, sjf and max-util itself; --policy picks the
  // traced run's.
  const sched::SchedPolicy traced_policy = bench::read_policy(args);
  const bench::Observation observation(args);
  bench::BenchJsonReporter json(args, ctx, "bench_serve_scheduler");
  args.finish(
      "scheduler scenario sweep: admission policy x workload shape x KV "
      "budget under overload (sweeps fcfs/sjf/max-util itself)");

  serve::EngineConfig ecfg;
  ecfg.model = serve::llama2_7b();
  ecfg.gpu = gpusim::rtxa6000();
  ecfg.format = serve::WeightFormat::kMarlin;
  const serve::Engine engine(ecfg);
  base.validate(ecfg.model);

  const index_t block_size = 16;
  base.scheduler.blocks.block_size = block_size;
  const index_t derived = sched::derive_kv_block_budget(engine, block_size);
  struct Budget {
    std::string label;
    index_t blocks;
  };
  const std::vector<Budget> budgets{
      {"unlimited", 0},
      {"hbm", derived},  // what actually fits next to the weights
      {"tight", 128},    // ~2k KV tokens: forces queueing + preemption
  };
  const std::vector<sched::WorkloadShape> shapes{
      sched::WorkloadShape::kPoisson, sched::WorkloadShape::kBursty,
      sched::WorkloadShape::kShareGpt};
  const std::vector<sched::SchedPolicy> policies{
      sched::SchedPolicy::kFcfs, sched::SchedPolicy::kShortestJob,
      sched::SchedPolicy::kMaxUtilization};

  std::cout << "=== Scheduler sweep: " << ecfg.model.name << " ("
            << serve::to_string(ecfg.format) << ") on " << ecfg.gpu.name
            << ", " << base.workload.qps << " QPS, "
            << base.workload.duration_s << " s ===\n"
            << "KV budgets (blocks of " << block_size
            << " tokens): unlimited, hbm=" << derived << ", tight=128\n\n";

  // ShareGPT tails reach 2048 + 1024 tokens; warm the decode memo that far.
  engine.warm_decode_cache(ctx, 128, 3072.0);

  struct Point {
    std::size_t shape, policy, budget;
  };
  std::vector<Point> points;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (std::size_t b = 0; b < budgets.size(); ++b) points.push_back({s, p, b});
    }
  }

  json.set_points(points.size());
  const bench::SweepTimer timer(ctx, "scheduler scenario sweep");
  const auto cells = bench::run_sweep(ctx, points, [&](const Point& pt) {
    serve::ServingConfig sc = base;
    sc.workload.shape = shapes[pt.shape];
    sc.scheduler.policy = policies[pt.policy];
    sc.scheduler.blocks.num_blocks = budgets[pt.budget].blocks;
    return serve::simulate(engine, sc).sched;
  });

  std::size_t cell = 0;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    std::cout << "--- workload: " << sched::to_string(shapes[s]) << " ---\n";
    Table table({"policy / KV", "TPOT ms", "p90 TPOT", "TTFT ms", "p90 TTFT",
                 "batch", "done", "preempt", "peak blk"});
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (std::size_t b = 0; b < budgets.size(); ++b) {
        const auto& st = cells[cell++];
        const auto& m = st.metrics;
        table.add_row({std::string(sched::to_string(policies[p])) + " / " +
                           budgets[b].label,
                       format_double(m.mean_tpot_ms, 2),
                       format_double(m.p90_tpot_ms, 2),
                       format_double(m.mean_ttft_ms, 2),
                       format_double(m.p90_ttft_ms, 2),
                       format_double(m.mean_batch, 1),
                       std::to_string(m.completed),
                       std::to_string(st.preemptions),
                       std::to_string(st.peak_kv_blocks)});
      }
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Watermark admission keeps the tight budget from thrashing; "
               "preempted sequences recompute their KV on re-admission.\n";

  // `--trace-out` / `--metrics-out`: record the tight-KV bursty cell (the
  // one that queues and preempts) in one serial re-run.
  serve::ServingConfig sc = base;
  sc.workload.shape = sched::WorkloadShape::kBursty;
  sc.scheduler.policy = traced_policy;
  sc.scheduler.blocks.num_blocks = 128;
  observation.maybe_write(engine, sc);
  return 0;
}

int main(int argc, char** argv) { return marlin::cli_main(argc, argv, run); }
