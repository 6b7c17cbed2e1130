#pragma once
// Benchmark-side tracing of the engine layer: a StepModel that forwards
// every call to the real Engine / ParallelEngine and records one span per
// call, plus the call's (method, args) key for the memo-distinctness
// ratio. The scheduler prices against it exactly as against the real
// model, so traced and untraced runs produce the same bits (the digest
// check proves it). Single-threaded by design: the event loop is serial.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "serve/engine.hpp"

namespace perfbench {

class TimedStepModel final : public marlin::serve::StepModel {
 public:
  using index_t = marlin::index_t;

  explicit TimedStepModel(const marlin::serve::StepModel& inner)
      : inner_(inner) {}

  [[nodiscard]] double decode_step_seconds(index_t batch,
                                           double avg_context) const override {
    const std::int64_t t0 = now_ns();
    const double s = inner_.decode_step_seconds(batch, avg_context);
    record(t0, kDecode, batch, bits(avg_context), 0);
    return s;
  }
  [[nodiscard]] double prefill_seconds(index_t batch,
                                       index_t prompt_tokens) const override {
    const std::int64_t t0 = now_ns();
    const double s = inner_.prefill_seconds(batch, prompt_tokens);
    record(t0, kPrefill, batch, prompt_tokens, 0);
    return s;
  }
  [[nodiscard]] double verify_step_seconds(index_t batch, double avg_context,
                                           index_t depth) const override {
    const std::int64_t t0 = now_ns();
    const double s = inner_.verify_step_seconds(batch, avg_context, depth);
    record(t0, kVerify, batch, bits(avg_context), depth);
    return s;
  }
  void warm_decode_cache(const marlin::SimContext& ctx, index_t max_batch,
                         double max_context) const override {
    const std::int64_t t0 = now_ns();
    inner_.warm_decode_cache(ctx, max_batch, max_context);
    spans_.push_back({t0, now_ns()});
  }
  [[nodiscard]] bool decode_split(index_t batch, double avg_context,
                                  double* compute_s, double* comm_s,
                                  double* bubble_fraction) const override {
    return inner_.decode_split(batch, avg_context, compute_s, comm_s,
                               bubble_fraction);
  }

  /// Every engine span, warm-up included, in call order.
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Durations of the priced calls (decode / prefill / verify), ns.
  [[nodiscard]] const std::vector<double>& call_ns() const { return call_ns_; }
  [[nodiscard]] std::size_t calls() const { return keys_.size(); }
  /// Distinct (method, args) keys among the priced calls.
  [[nodiscard]] std::size_t distinct_keys() const {
    std::vector<Key> k = keys_;
    std::sort(k.begin(), k.end());
    return static_cast<std::size_t>(std::unique(k.begin(), k.end()) - k.begin());
  }

 private:
  enum Method : int { kDecode, kPrefill, kVerify };
  using Key = std::tuple<int, index_t, index_t, index_t>;

  /// Keys hold the exact arguments (a double by its bits), independent of
  /// how any engine buckets its memo.
  static index_t bits(double x) { return std::bit_cast<index_t>(x); }
  void record(std::int64_t t0, Method m, index_t a, index_t b,
              index_t c) const {
    const std::int64_t t1 = now_ns();
    spans_.push_back({t0, t1});
    call_ns_.push_back(static_cast<double>(t1 - t0));
    keys_.emplace_back(m, a, b, c);
  }

  const marlin::serve::StepModel& inner_;
  mutable std::vector<Span> spans_;
  mutable std::vector<double> call_ns_;
  mutable std::vector<Key> keys_;
};

}  // namespace perfbench
