#pragma once
// Pure helpers of the benchmark: percentiles with their sample evidence,
// span self-time, the Fig. 1 speedup error, an output digest and host
// clocks. No library dependency, so selftest.cpp can check them alone.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Host monotonic clock in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Closed-loop run length: `next()` admits another cycle while fewer than
/// `min_cycles` ran, or while one more cycle, estimated by the last one,
/// still ends within `seconds`.
class LoopBudget {
 public:
  LoopBudget(double seconds, std::size_t min_cycles)
      : seconds_(seconds), min_cycles_(min_cycles) {}

  bool next() {
    const std::int64_t now = now_ns();
    const double elapsed = static_cast<double>(now - start_) * 1e-9;
    const double last = static_cast<double>(now - last_) * 1e-9;
    last_ = now;
    if (cycles_ >= min_cycles_ && elapsed + last > seconds_) return false;
    ++cycles_;
    return true;
  }

 private:
  double seconds_;
  std::size_t min_cycles_;
  std::size_t cycles_ = 0;
  std::int64_t start_ = now_ns();
  std::int64_t last_ = start_;
};

/// A fixed task outside the program, timed between repetitions: sorting
/// the same pseudo-random 32-bit keys. On a shared host the speed drifts
/// by up to ~40% over minutes, for all branchy, cache-bound code alike;
/// dividing the program's host time by this task's (medians over the same
/// run) cancels most of that drift, while a change to the program moves
/// the ratio in full.
class HostReference {
 public:
  explicit HostReference(std::size_t keys = 131072) : keys_(keys), work_(keys) {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t& k : keys_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = static_cast<std::uint32_t>(x >> 32);
    }
  }

  /// Times one sort; throws if the result is not sorted.
  void run() {
    std::copy(keys_.begin(), keys_.end(), work_.begin());
    const std::int64_t t0 = now_ns();
    std::sort(work_.begin(), work_.end());
    const std::int64_t t1 = now_ns();
    if (!std::is_sorted(work_.begin(), work_.end())) {
      throw std::logic_error("host reference sort is not sorted");
    }
    seconds_.push_back(static_cast<double>(t1 - t0) * 1e-9);
  }
  [[nodiscard]] std::size_t samples() const { return seconds_.size(); }
  /// Median host seconds of one sort so far (declared below).
  [[nodiscard]] double median_s() const;

 private:
  std::vector<std::uint32_t> keys_, work_;
  std::vector<double> seconds_;
};

/// A percentile together with the evidence behind it.
struct Percentile {
  double value = 0;
  std::size_t samples = 0;  // sample count
  std::size_t beyond = 0;   // samples ranked above the percentile
  /// A tail percentile is reported only with at least ten samples beyond.
  [[nodiscard]] bool supported() const { return beyond >= 10; }
};

/// Nearest-rank percentile: the sample at rank ceil(p/100 * n), 1-based
/// (rank 1 for p = 0). An empty sample gives a zero value and no evidence.
inline Percentile percentile(std::vector<double> xs, double p) {
  if (p < 0 || p > 100) throw std::invalid_argument("percentile outside [0,100]");
  Percentile out;
  out.samples = xs.size();
  if (xs.empty()) return out;
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(p / 100.0 * n - 1e-9), 1.0, n));
  out.value = xs[rank - 1];
  out.beyond = xs.size() - rank;
  return out;
}

/// Median (mean of the middle two for an even count); 0 when empty.
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t h = xs.size() / 2;
  return xs.size() % 2 ? xs[h] : 0.5 * (xs[h - 1] + xs[h]);
}

inline double HostReference::median_s() const { return median(seconds_); }

/// `field(r)` of every repetition, in order.
template <typename Rep, typename F>
std::vector<double> collect(const std::vector<Rep>& reps, F field) {
  std::vector<double> out;
  out.reserve(reps.size());
  for (const Rep& r : reps) out.push_back(field(r));
  return out;
}

/// Half-open host interval [start_ns, end_ns).
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Nanoseconds of `parent` covered by the union of `children` (each
/// clipped to the parent; overlapping children count once).
inline std::int64_t covered_ns(Span parent, std::vector<Span> children) {
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  std::int64_t covered = 0;
  std::int64_t cursor = parent.start_ns;
  for (const Span& c : children) {
    const std::int64_t lo = std::max(c.start_ns, cursor);
    const std::int64_t hi = std::min(c.end_ns, parent.end_ns);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return covered;
}

/// A layer's self time: its span minus the part its child spans cover.
inline std::int64_t self_ns(Span parent, std::vector<Span> children) {
  return (parent.end_ns - parent.start_ns) -
         covered_ns(parent, std::move(children));
}

/// Mean |simulated - paper| / paper over paired speedup points.
inline double speedup_err(const std::vector<double>& simulated,
                          const std::vector<double>& paper) {
  if (simulated.size() != paper.size() || paper.empty()) {
    throw std::invalid_argument("speedup_err needs equal, non-empty series");
  }
  double sum = 0;
  for (std::size_t i = 0; i < paper.size(); ++i) {
    sum += std::abs(simulated[i] - paper[i]) / paper[i];
  }
  return sum / static_cast<double>(paper.size());
}

/// FNV-1a digest of simulated outputs: bit-exact, so two runs agree only
/// when every recorded double and count is identical.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench
