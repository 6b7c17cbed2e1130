#pragma once
// Shared helpers for the figure/table benchmark binaries.
//
// Every bench fans its sweep points out on the SimContext's shared pool
// via run_sweep. Results are collected by point index and printed
// afterwards, so the table output is byte-identical at every thread
// count.

#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/kernel_model.hpp"
#include "core/problem.hpp"
#include "gpusim/clock.hpp"
#include "gpusim/device.hpp"
#include "obs/metrics.hpp"
#include "obs/serve_recorder.hpp"
#include "obs/trace.hpp"
#include "serve/sched/scheduler.hpp"
#include "serve/sched/workload.hpp"
#include "serve/server_sim.hpp"
#include "util/cli.hpp"
#include "util/cpuid.hpp"
#include "util/error.hpp"
#include "util/sim_context.hpp"
#include "util/table.hpp"

namespace marlin::bench {

/// `--seed`: the workload-trace seed. The trace generator is a fixed-seed
/// Rng, so one seed reproduces the identical arrival/length trace on every
/// platform and thread count.
inline std::uint64_t read_seed(CliArgs& args) {
  return static_cast<std::uint64_t>(
      args.get_int("seed", 42, "workload-trace seed; the goldens use 42"));
}

/// `--policy`: the scheduler admission policy (fcfs is the goldens
/// configuration; wfq is the multi-tenant weighted-fair policy).
inline serve::sched::SchedPolicy read_policy(CliArgs& args) {
  return args.get_parsed(
      "policy", "fcfs",
      "scheduler admission policy: fcfs | sjf | max-util | wfq",
      serve::sched::policy_by_name);
}

/// `--workload`: the arrival process shape.
inline serve::sched::WorkloadShape read_workload(CliArgs& args) {
  return args.get_parsed("workload", "poisson",
                         "arrival shape: poisson | bursty | sharegpt",
                         serve::sched::workload_by_name);
}

/// `--prefix-cache-blocks`: cap on evicted-but-cached prefix blocks.
inline index_t read_prefix_cache_blocks(CliArgs& args) {
  return static_cast<index_t>(args.get_int(
      "prefix-cache-blocks", 0,
      "cap on evicted-but-cached prefix blocks kept for reuse (0 = every "
      "free block may stay cached)"));
}

/// `--prefix-cache` / `--prefix-cache-blocks`: the hashed prefix cache
/// over full prompt blocks (off by default, the goldens configuration).
inline serve::sched::PrefixCacheConfig read_prefix_cache(CliArgs& args) {
  serve::sched::PrefixCacheConfig pc;
  pc.enabled = args.get_bool(
      "prefix-cache", false,
      "enable the hashed prefix cache (reuses cached shared-prefix KV "
      "blocks at admission)");
  pc.max_cached_blocks = read_prefix_cache_blocks(args);
  return pc;
}

/// `--trace-out` / `--metrics-out`, shared by every serving binary:
/// re-runs one config serially with an observability recorder attached
/// and writes the Perfetto trace / metrics exposition files.
/// The recorded run is separate from the (recorder-free) golden sweep and
/// announces on stderr only, so the golden-diffed stdout never changes.
/// Because the simulation is deterministic and the recorder formats every
/// float with fixed precision, the written files are byte-identical at
/// every `--threads` setting and across repeat runs.
class Observation {
 public:
  explicit Observation(CliArgs& args)
      : trace_out_(args.get_string(
            "trace-out", "",
            "write a Chrome/Perfetto trace of one recorded serial re-run")),
        metrics_out_(args.get_string(
            "metrics-out", "",
            "write the Prometheus-style metrics exposition of the same "
            "recorded run")) {}

  /// Whether either file was asked for.
  [[nodiscard]] bool enabled() const {
    return !trace_out_.empty() || !metrics_out_.empty();
  }

  /// Records `cfg` on `engine` and writes the requested files.
  void maybe_write(const serve::Engine& engine,
                   serve::ServingConfig cfg) const {
    if (!enabled()) return;
    obs::TraceRecorder trace;
    obs::MetricsRegistry metrics;
    obs::ServeRecorder rec(trace_out_.empty() ? nullptr : &trace,
                           metrics_out_.empty() ? nullptr : &metrics);
    cfg.recorder = &rec;
    (void)serve::simulate(engine, cfg);
    std::ostringstream note;
    if (!trace_out_.empty()) {
      trace.write_file(trace_out_);
      note << "[obs] trace: " << trace_out_ << " (" << trace.events().size()
           << " events)\n";
    }
    if (!metrics_out_.empty()) {
      std::ofstream out(metrics_out_);
      out << metrics.expose();
      MARLIN_CHECK(out.good(), "failed writing metrics to " << metrics_out_);
      note << "[obs] metrics: " << metrics_out_ << "\n";
    }
    std::cerr << note.str();
  }

 private:
  std::string trace_out_;
  std::string metrics_out_;
};

/// Runs fn over every sweep point on the context's pool and returns the
/// results in point order (deterministic output regardless of threading).
/// fn must only touch its own point; nested kernel-level parallel_for
/// calls degrade to inline execution on pool workers by design.
template <typename Point, typename Fn>
auto run_sweep(const SimContext& ctx, const std::vector<Point>& points,
               Fn&& fn) {
  using R = std::invoke_result_t<Fn&, const Point&>;
  static_assert(std::is_default_constructible_v<R>,
                "run_sweep results are pre-sized by point index");
  std::vector<R> results(points.size());
  ctx.parallel_for(0, static_cast<std::int64_t>(points.size()),
                   [&](std::int64_t i) {
                     results[static_cast<std::size_t>(i)] =
                         fn(points[static_cast<std::size_t>(i)]);
                   });
  return results;
}

/// Wall-clock of one sweep section, with the thread count and the active
/// SIMD dispatch level, reported on *stderr* so stdout (the golden-diffed
/// table stream) stays byte-identical across thread counts and levels.
class SweepTimer {
 public:
  explicit SweepTimer(const SimContext& ctx, std::string label)
      : label_(std::move(label)), threads_(ctx.num_threads()),
        start_(std::chrono::steady_clock::now()) {}
  ~SweepTimer() {
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
    // Compose the line off-stream and emit it as one write, after pushing
    // any buffered table output out first. When stdout and stderr are
    // piped into the same file (`bench ... &> log`), the piecewise
    // streaming this replaces could interleave fragments of the timing
    // line into the middle of a table row.
    std::ostringstream line;
    line << "[sweep] " << label_ << ": " << format_double(s, 3)
         << " s (threads=" << threads_
         << ", simd=" << simd::to_string(simd::active_level()) << ")\n";
    std::cout.flush();
    std::cerr << line.str();
  }

 private:
  std::string label_;
  unsigned threads_;
  std::chrono::steady_clock::time_point start_;
};

/// Appends one already-formatted record (no trailing newline) to the JSON
/// array in `path`, creating the file if needed. The file keeps one
/// record per line; callers run sequentially under the `bench-json`
/// target, so there is no concurrent writer.
inline void append_bench_json_record(const std::string& path,
                                     const std::string& rec) {
  std::string body;
  {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    body = buf.str();
  }
  const std::size_t close = body.rfind(']');
  std::ofstream out(path, std::ios::trunc);
  if (close == std::string::npos) {
    out << "[\n" << rec << "\n]\n";
  } else {
    body.resize(close);
    while (!body.empty() && (body.back() == '\n' || body.back() == ' ')) {
      body.pop_back();
    }
    const bool was_empty_array = body.empty() || body.back() == '[';
    out << body << (was_empty_array ? "\n" : ",\n") << rec << "\n]\n";
  }
}

/// Machine-readable perf record for the checked-in BENCH_<pr>.json
/// trajectory (ROADMAP's recorded perf series). When the binary is run
/// with `--bench-json FILE`, the reporter appends one JSON object —
/// bench name, wall seconds, sweep-point count, thread count, active
/// SIMD dispatch level — to the JSON array in FILE on destruction
/// (creating the file if needed).
/// Without the flag it is inert, so golden runs (which never pass it)
/// are untouched; the wall-time goes to the side file, never to the
/// golden-diffed stdout.
class BenchJsonReporter {
 public:
  BenchJsonReporter(CliArgs& args, const SimContext& ctx, std::string bench)
      : path_(args.get_string(
            "bench-json", "",
            "append {bench, wall_s, points, threads, simd} to the JSON array "
            "in this file (the checked-in BENCH_<pr>.json perf trajectory)")),
        bench_(std::move(bench)),
        threads_(ctx.num_threads()),
        start_(std::chrono::steady_clock::now()) {}

  /// Number of simulations/sweep points the bench ran (the record's
  /// work-size field).
  void set_points(std::size_t n) { points_ = n; }

  /// Appends an extra numeric field to the record (e.g. the prefix
  /// bench's cache_hit_rate / blocks_saved). Deterministic simulation
  /// outputs only — wall time stays the one non-reproducible field.
  void set_extra(const std::string& key, double value, int decimals = 4) {
    extras_ += ", \"" + key + "\": " + format_double(value, decimals);
  }

  ~BenchJsonReporter() {
    if (path_.empty()) return;
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start_)
                              .count();
    std::ostringstream rec;
    rec << "  {\"bench\": \"" << bench_ << "\", \"wall_s\": "
        << format_double(wall_s, 3) << ", \"points\": " << points_
        << ", \"threads\": " << threads_ << ", \"simd\": \""
        << simd::to_string(simd::active_level()) << "\"" << extras_ << "}";
    append_bench_json_record(path_, rec.str());
  }

 private:
  std::string path_;
  std::string bench_;
  std::string extras_;
  std::size_t points_ = 0;
  unsigned threads_;
  std::chrono::steady_clock::time_point start_;
};

/// The paper's Figure 1/10/12/13 matrix: "16bit x 4bit (group=128) mul with
/// 72k x 18k matrix" — K = 18432 (reduction), N = 73728 (output).
inline core::MatmulProblem fig1_problem(index_t m) {
  return {m, 18432, 73728, 128, false};
}

inline const std::vector<index_t>& fig1_batches() {
  static const std::vector<index_t> b{1, 2, 4, 8, 16, 32, 64, 128};
  return b;
}

/// Prints one speedup-over-FP16 row per kernel, one column per batch size —
/// the exact series of the corresponding paper figure. All (kernel, batch)
/// estimates are fanned out on the context.
inline void print_speedup_over_fp16(
    const SimContext& ctx, std::ostream& os, const std::string& title,
    const gpusim::DeviceSpec& device, gpusim::ClockMode mode,
    const std::vector<std::string>& kernels,
    const std::vector<index_t>& batches,
    const std::function<core::MatmulProblem(index_t)>& problem) {
  const gpusim::ClockModel clock{mode};

  std::vector<core::MatmulProblem> points;
  points.reserve(batches.size());
  for (const auto m : batches) points.push_back(problem(m));
  const auto fp16 = baselines::make_kernel_model("fp16")->estimate_sweep(
      ctx, points, device, clock);

  struct KernelSweep {
    std::string name;
    std::vector<gpusim::KernelEstimate> est;
  };
  const auto sweeps = run_sweep(
      ctx, kernels, [&](const std::string& name) {
        return KernelSweep{name,
                           baselines::make_kernel_model(name)->estimate_sweep(
                               ctx, points, device, clock)};
      });

  os << title << "\n";
  std::vector<std::string> header{"kernel \\ batch"};
  for (const auto m : batches) header.push_back(std::to_string(m));
  Table table(header);
  for (const auto& sweep : sweeps) {
    std::vector<double> row;
    for (std::size_t i = 0; i < batches.size(); ++i) {
      row.push_back(fp16[i].seconds / sweep.est[i].seconds);
    }
    table.add_row_numeric(sweep.name, row, 2);
  }
  table.print(os);
  os << "\n";
}

}  // namespace marlin::bench
