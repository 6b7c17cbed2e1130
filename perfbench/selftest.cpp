// Unit tests of the benchmark's own helpers (bench_util.hpp) against
// hand-computed values. Exits non-zero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b)); }

std::vector<double> one_to(int n) {
  std::vector<double> xs;
  for (int i = n; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  return xs;
}

void test_percentile() {
  using perfbench::percentile;
  // Nearest rank: p50 of 1..10 is rank 5.
  const auto p50 = percentile(one_to(10), 50);
  expect(p50.value == 5 && p50.samples == 10 && p50.beyond == 5, "p50 of 1..10");
  // p99 of 1..1000 is rank 990, leaving exactly 10 samples beyond.
  const auto p99 = percentile(one_to(1000), 99);
  expect(p99.value == 990 && p99.beyond == 10 && p99.supported(),
         "p99 of 1..1000 has 10 beyond");
  // With 999 samples rank 990 leaves only 9: not supported.
  const auto p99s = percentile(one_to(999), 99);
  expect(p99s.value == 990 && p99s.beyond == 9 && !p99s.supported(),
         "p99 of 1..999 has 9 beyond");
  // p0 is the minimum, p100 the maximum with nothing beyond.
  expect(percentile(one_to(7), 0).value == 1, "p0 is the minimum");
  const auto p100 = percentile(one_to(7), 100);
  expect(p100.value == 7 && p100.beyond == 0, "p100 is the maximum");
  const auto empty = percentile({}, 50);
  expect(empty.samples == 0 && empty.value == 0, "empty sample");
  expect(perfbench::median({3, 1, 2}) == 2, "odd median");
  expect(perfbench::median({4, 1, 3, 2}) == 2.5, "even median");
  perfbench::HostReference ref(1000);
  ref.run();
  ref.run();
  expect(ref.samples() == 2 && ref.median_s() > 0, "host reference timings");
}

void test_self_time() {
  using perfbench::Span;
  const Span parent{100, 200};
  // Disjoint children: 10 + 20 covered, self = 70.
  expect(perfbench::self_ns(parent, {{110, 120}, {150, 170}}) == 70, "disjoint children");
  // Overlapping children count once: [110,140) u [130,160) = 50.
  expect(perfbench::self_ns(parent, {{130, 160}, {110, 140}}) == 50, "overlapping children");
  // Children are clipped to the parent: [90,110) -> 10, [190,250) -> 10.
  expect(perfbench::self_ns(parent, {{90, 110}, {190, 250}}) == 80, "clipped children");
  // A child nested in another adds nothing.
  expect(perfbench::covered_ns(parent, {{120, 180}, {130, 140}}) == 60, "nested child");
  expect(perfbench::self_ns(parent, {}) == 100, "no children");
}

void test_speedup_err() {
  // |3.87-3.87|/3.87 = 0; |2.7-3|/3 = 0.1; |1.8-1.5|/1.5 = 0.2 -> mean 0.1.
  expect(near(perfbench::speedup_err({3.87, 2.7, 1.8}, {3.87, 3.0, 1.5}), 0.1),
         "speedup_err mean relative error");
  // Single point: |4 - 3.2| / 3.2 = 0.25.
  expect(near(perfbench::speedup_err({4.0}, {3.2}), 0.25), "speedup_err one point");
  bool threw = false;
  try {
    (void)perfbench::speedup_err({1.0}, {1.0, 2.0});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "speedup_err rejects mismatched series");
}

void test_digest() {
  perfbench::Digest a, b, c;
  a.add(1.0);
  b.add(1.0);
  c.add(std::nextafter(1.0, 2.0));
  expect(a.value() == b.value(), "digest is deterministic");
  expect(a.value() != c.value(), "digest sees a one-ulp change");
}

}  // namespace

int main() {
  test_percentile();
  test_self_time();
  test_speedup_err();
  test_digest();
  if (failures != 0) return EXIT_FAILURE;
  std::printf("perfbench_selftest: all helper tests passed\n");
  return EXIT_SUCCESS;
}
