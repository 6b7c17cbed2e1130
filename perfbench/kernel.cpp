// Kernel workload: the paper's own layer, with no serving code.
//
// Analytic part: KernelModel::estimate for fp16, marlin, sparse-marlin and
// the four Fig. 1 comparators, on the A10 72k x 18k layer at every batch
// 1..128 plus the Llama-2 7B/13B/70B block linears on A10 and A100 at the
// Fig. 1 batches.
// Functional part: marlin_matmul on the scaled 1152 x 4608 Fig. 1 layer
// at the Fig. 1 batches, checked against reference_matmul. The seed draws
// the weights and activations.
//
// One repetition = set-up (weights, quantize, repack, FP32 reference) +
// one timed analytic sweep + one timed functional sweep + checks.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/kernel_model.hpp"
#include "bench_util.hpp"
#include "core/marlin_kernel.hpp"
#include "gpusim/device.hpp"
#include "layout/repack.hpp"
#include "quant/uniform.hpp"
#include "serve/model_config.hpp"
#include "util/rng.hpp"
#include "util/sim_context.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using marlin::index_t;
namespace core = marlin::core;
namespace gpusim = marlin::gpusim;

constexpr index_t kK = 1152, kN = 4608;  // scaled Fig. 1 layer
constexpr int kNumSms = 72;              // A10
const std::vector<index_t> kBatches{1, 2, 4, 8, 16, 32, 64, 128};
const std::vector<std::string> kModels{"fp16",      "marlin",   "sparse-marlin",
                                       "torch-int4", "exllamav2", "awq",
                                       "bitsandbytes"};

/// Fig. 1 paper reference for MARLIN over FP16 (bench_fig1_peak golden
/// footer): ~3.87x at batch <= 16, ~3x at 64, ~1.5x at 128.
const std::vector<std::pair<index_t, double>> kPaperSpeedup{
    {1, 3.87}, {2, 3.87}, {4, 3.87}, {8, 3.87}, {16, 3.87}, {64, 3.0},
    {128, 1.5}};

core::MatmulProblem fig1_problem(index_t m) { return {m, 18432, 73728, 128, false}; }

struct Point {
  core::MatmulProblem problem;
  gpusim::DeviceSpec device;
};

std::vector<Point> analytic_points() {
  std::vector<Point> pts;
  for (index_t m = 1; m <= 128; ++m) pts.push_back({fig1_problem(m), gpusim::a10()});
  for (const auto& model : {marlin::serve::llama2_7b(), marlin::serve::llama2_13b(),
                            marlin::serve::llama2_70b()}) {
    for (const auto& device : {gpusim::a10(), gpusim::a100_80g()}) {
      for (const auto& layer : marlin::serve::block_linear_layers(model)) {
        for (const index_t m : kBatches) {
          pts.push_back({{m, layer.k, layer.n, 128, false}, device});
        }
      }
    }
  }
  return pts;
}

/// GMEM share of a simulated time breakdown.
double gmem_share(const gpusim::TimeBreakdown& b) {
  const double total = b.mem_s + b.l2_s + b.compute_s + b.dequant_s +
                       b.reduce_s + b.pipeline_fill_s + b.launch_s;
  return total > 0 ? b.mem_s / total : 0.0;
}

struct Rep {
  double weights_s = 0, quantize_s = 0, repack_s = 0, reference_s = 0;
  double analytic_s = 0, functional_s = 0;
  std::size_t estimates = 0;
  std::vector<double> estimate_ns;  // traced repetitions only
  std::vector<double> speedup;      // simulated, at kPaperSpeedup batches
  double share_b16 = 0, share_b128 = 0;
  double macs = 0;
  std::int64_t gmem_bytes = 0;
  index_t reduction_steps = 0;
  std::int64_t points = 0, points_failed = 0;
  double max_err = 0;
  std::uint64_t digest = 0;

  [[nodiscard]] double setup_s() const {
    return weights_s + quantize_s + repack_s + reference_s;
  }
  [[nodiscard]] double study_s() const { return analytic_s + functional_s; }
};

Rep run_rep(const std::vector<Point>& points,
            const std::vector<marlin::baselines::KernelModelPtr>& models,
            const marlin::SimContext& ctx, std::uint64_t seed, bool traced) {
  Rep rep;
  Digest digest;

  // Set-up: seeded weights and activations, RTN quantization, MARLIN
  // repack, FP32 reference over the dequantized weights.
  const std::int64_t t0 = now_ns();
  marlin::Rng rng(seed);
  marlin::Matrix<float> w(kK, kN);
  for (index_t i = 0; i < kK; ++i) {
    for (index_t j = 0; j < kN; ++j) w(i, j) = static_cast<float>(rng.normal(0.0, 0.05));
  }
  const index_t m_max = kBatches.back();
  marlin::Matrix<marlin::Half> a(m_max, kK);
  for (index_t i = 0; i < m_max; ++i) {
    for (index_t j = 0; j < kK; ++j) a(i, j) = marlin::Half(static_cast<float>(rng.normal()));
  }
  const std::int64_t t1 = now_ns();
  marlin::quant::QuantConfig qcfg;
  qcfg.group_size = 128;
  const auto q = marlin::quant::quantize_rtn(w.view(), qcfg);
  const std::int64_t t2 = now_ns();
  const auto mw = marlin::layout::marlin_repack(q);
  const std::int64_t t3 = now_ns();
  const auto wd = q.dequantize();
  const auto ref = core::reference_matmul(a.view(), wd.view(), ctx);
  const std::int64_t t4 = now_ns();
  rep.weights_s = static_cast<double>(t1 - t0) * 1e-9;
  rep.quantize_s = static_cast<double>(t2 - t1) * 1e-9;
  rep.repack_s = static_cast<double>(t3 - t2) * 1e-9;
  rep.reference_s = static_cast<double>(t4 - t3) * 1e-9;

  // Timed: the analytic sweep (model-major, so each model's code stays hot).
  const gpusim::ClockModel clock{gpusim::ClockMode::kBoost};
  std::vector<gpusim::KernelEstimate> est(models.size() * points.size());
  if (traced) rep.estimate_ns.reserve(est.size());
  const std::int64_t a0 = now_ns();
  for (std::size_t mi = 0; mi < models.size(); ++mi) {
    for (std::size_t pi = 0; pi < points.size(); ++pi) {
      const std::int64_t e0 = traced ? now_ns() : 0;
      est[mi * points.size() + pi] =
          models[mi]->estimate(points[pi].problem, points[pi].device, clock);
      if (traced) rep.estimate_ns.push_back(static_cast<double>(now_ns() - e0));
    }
  }
  const std::int64_t a1 = now_ns();
  rep.analytic_s = static_cast<double>(a1 - a0) * 1e-9;
  rep.estimates = est.size();
  for (const auto& e : est) digest.add(e.seconds);

  // Fig. 1 points are the first 128 (batch m at index m - 1).
  const auto at = [&](const std::string& model, index_t m) -> const gpusim::KernelEstimate& {
    const auto mi = static_cast<std::size_t>(
        std::find(kModels.begin(), kModels.end(), model) - kModels.begin());
    return est[mi * points.size() + static_cast<std::size_t>(m - 1)];
  };
  for (const auto& [m, paper] : kPaperSpeedup) {
    rep.speedup.push_back(at("fp16", m).seconds / at("marlin", m).seconds);
  }
  rep.share_b16 = gmem_share(at("marlin", 16).breakdown);
  rep.share_b128 = gmem_share(at("marlin", 128).breakdown);

  // Timed: the functional sweep on the pool.
  core::KernelConfig cfg;
  cfg.n_sm_tile = 256;
  std::vector<core::FunctionalResult> out;
  out.reserve(kBatches.size());
  const std::int64_t f0 = now_ns();
  for (const index_t m : kBatches) {
    out.push_back(core::marlin_matmul(a.view().block(0, 0, m, kK), mw, cfg, kNumSms, ctx));
  }
  const std::int64_t f1 = now_ns();
  rep.functional_s = static_cast<double>(f1 - f0) * 1e-9;

  // Checks: every point within the kernel test's tolerance.
  const double tol = 2e-3 * std::sqrt(static_cast<double>(kK)) + 2e-2;
  for (std::size_t bi = 0; bi < kBatches.size(); ++bi) {
    const index_t m = kBatches[bi];
    const auto& res = out[bi];
    double err = 0;
    for (index_t i = 0; i < m; ++i) {
      for (index_t j = 0; j < kN; ++j) {
        const float c = res.c(i, j).to_float();
        err = std::max(err, static_cast<double>(std::abs(c - ref(i, j))));
        digest.add(static_cast<double>(c));
      }
    }
    if (!(err <= tol)) ++rep.points_failed;
    ++rep.points;
    rep.max_err = std::max(rep.max_err, err);
    rep.macs += static_cast<double>(m * kK * kN);
    rep.gmem_bytes += res.traffic.gmem_total();
    rep.reduction_steps += res.reduction_steps;
    digest.add(res.traffic.gmem_total());
    digest.add(res.reduction_steps);
  }
  rep.digest = digest.value();
  return rep;
}

}  // namespace

int kernel_threads() {
  return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

void run_kernel(const Options& opt, Report& report) {
  const int threads = kernel_threads();
  const marlin::SimContext ctx(static_cast<unsigned>(threads));
  const std::vector<Point> points = analytic_points();
  std::vector<marlin::baselines::KernelModelPtr> models;
  for (const auto& name : kModels) models.push_back(marlin::baselines::make_kernel_model(name));

  std::vector<Rep> plain, traced;
  // Peak memory through the first repetition (set-up + one study), before
  // later repetitions can add allocator fragmentation.
  double first_rss_mib = 0;
  HostReference reference;
  LoopBudget budget(opt.seconds, opt.trace ? 2 : 3);
  while (budget.next()) {
    plain.push_back(run_rep(points, models, ctx, opt.seed, false));
    if (plain.size() == 1) first_rss_mib = peak_rss_mib();
    if (!opt.trace) reference.run();
    if (opt.trace) traced.push_back(run_rep(points, models, ctx, opt.seed, true));
  }
  for (const auto* reps : {&plain, &traced}) {
    for (const Rep& r : *reps) {
      report.check(r.digest == plain.front().digest,
                   "kernel outputs differ between repetitions");
      report.check(r.points_failed == 0,
                   "functional marlin_matmul outside tolerance (max |err| " +
                       std::to_string(r.max_err) + ")");
      report.attempted += r.points;
      report.failed += r.points_failed;
    }
  }

  const Rep& first = plain.front();
  std::vector<double> paper;
  for (const auto& [m, ref] : kPaperSpeedup) paper.push_back(ref);
  const std::string n = samples_note(plain.size());
  const double estimates_per_s = median(collect(plain, [](const Rep& r) {
    return static_cast<double>(r.estimates) / r.analytic_s;
  }));
  report.info("estimates_per_s", estimates_per_s, "1/s", "median " + n);
  report.info("matmul_gflops",
              median(collect(plain, [](const Rep& r) {
                return 2.0 * r.macs / r.functional_s * 1e-9;
              })),
              "GFLOP/s", "median " + n + ", " + std::to_string(threads) + " threads");
  report.info("failed_frac",
              static_cast<double>(first.points_failed) / static_cast<double>(first.points),
              "ratio", "base=" + std::to_string(first.points) + " points");
  report.info("speedup_err", speedup_err(first.speedup, paper), "ratio",
              "base=" + std::to_string(paper.size()) + " Fig. 1 points");
  report.info("max_abs_err", first.max_err, "abs");
  report.info("repetitions", static_cast<double>(plain.size() + traced.size()), "count");
  report.info("digest_low32", static_cast<double>(first.digest & 0xffffffffu), "hash");

  if (!opt.trace) {
    report.result("setup_s", median(collect(plain, [](const Rep& r) { return r.setup_s(); })),
                  "s", "median " + n);
    report.result("peak_rss_mib", first_rss_mib, "MiB", "through the first repetition");
    const double study_s = median(collect(plain, [](const Rep& r) { return r.study_s(); }));
    const double ref_s = reference.median_s();
    report.info("study_s", study_s, "s", "median " + n);
    report.info("host_ref_s", ref_s, "s",
                "median " + samples_note(reference.samples()) + " reference sorts");
    report.result("study_rel", study_s / ref_s, "ref", "= study_s / host_ref_s");
    report.result("throughput_rel", estimates_per_s * ref_s, "1/ref",
                  "= estimates_per_s x host_ref_s");
    return;
  }

  std::vector<double> est_ns;
  for (const Rep& r : traced) est_ns.insert(est_ns.end(), r.estimate_ns.begin(), r.estimate_ns.end());
  const Percentile p50 = percentile(est_ns, 50);
  const Percentile p99 = percentile(est_ns, 99);
  report.result("kernel.estimate_ns_p50", p50.value, "ns", samples_note(p50.samples));
  report.result("kernel.estimate_ns_p99", p99.value, "ns",
                samples_note(p99.samples) + " beyond=" + std::to_string(p99.beyond));
  report.result("kernel.matmul_ns_per_mac",
                median(collect(traced, [](const Rep& r) { return r.functional_s * 1e9 / r.macs; })),
                "ns", "median " + samples_note(traced.size()));
  report.result("kernel.gmem_bytes", static_cast<double>(first.gmem_bytes), "bytes",
                "computed, summed over the functional sweep");
  report.result("kernel.reduction_steps", static_cast<double>(first.reduction_steps), "count");
  report.result("kernel.sim_gmem_share.b16", first.share_b16, "ratio");
  report.result("kernel.sim_gmem_share.b128", first.share_b128, "ratio");
  std::vector<Rep> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  const std::string na = "median " + samples_note(all.size());
  report.result("quant.quantize_s", median(collect(all, [](const Rep& r) { return r.quantize_s; })), "s", na);
  report.result("layout.repack_s", median(collect(all, [](const Rep& r) { return r.repack_s; })), "s", na);
  report.result("kernel.reference_s", median(collect(all, [](const Rep& r) { return r.reference_s; })), "s", na);
  report.result("trace_overhead",
                median(collect(traced, [](const Rep& r) { return r.study_s(); })) /
                        median(collect(plain, [](const Rep& r) { return r.study_s(); })) -
                    1.0,
                "ratio", "traced / untraced study wall - 1");
}

}  // namespace perfbench
