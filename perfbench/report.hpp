#pragma once
// What one benchmark run prints: a human-readable report (every metric by
// name, with its unit and sample count) followed, as the last line of
// stdout, by one JSON object with the machine-read result.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample count / base, for the human report
};

class Report {
 public:
  /// A metric the final JSON line carries.
  void result(std::string name, double value, std::string unit,
              std::string note = "") {
    results_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  /// Adds `name` reading 0 unless a workload already reported it.
  void ensure(const std::string& name, const std::string& unit) {
    for (const Metric& m : results_) {
      if (m.name == name) return;
    }
    results_.push_back({name, 0.0, unit, "not exercised by this workload"});
  }
  [[nodiscard]] const std::vector<Metric>& results() const { return results_; }
  /// A metric printed in the human report only.
  void info(std::string name, double value, std::string unit,
            std::string note = "") {
    info_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  /// Records a failed correctness check; the run then exits non-zero.
  void fail(const std::string& what) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    correct_ = false;
  }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  [[nodiscard]] bool correct() const { return correct_; }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Prints the report, then the JSON line. Returns the process exit code.
  int print() {
    for (const auto* list : {&info_, &results_}) {
      for (const Metric& m : *list) {
        std::printf("  %-28s %.6g %s%s%s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.empty() ? "" : "  ",
                    m.note.c_str());
      }
    }
    for (const Metric& m : results_) {
      if (!std::isfinite(m.value)) fail(m.name + " is not finite");
    }
    if (attempted < 1) fail("no operation attempted");
    if (!correct_) return 1;
    std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (std::size_t i = 0; i < results_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", results_[i].name.c_str(), results_[i].value,
                  results_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return 0;
  }

 private:
  std::vector<Metric> results_;
  std::vector<Metric> info_;
  bool correct_ = true;
};

/// Peak resident set of this process so far, in MiB.
inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// "n=12" style sample-count note.
inline std::string samples_note(std::size_t n) {
  return "n=" + std::to_string(n);
}

}  // namespace perfbench
