// util substrate: matrices, rng, stats, table, cli, thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"
#include "util/names.hpp"
#include "util/rng.hpp"
#include "util/sim_context.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

namespace marlin {
namespace {

TEST(Matrix, BasicAccessAndViews) {
  Matrix<int> m(3, 4, 7);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m(2, 3), 7);
  m(1, 2) = 42;
  const auto v = m.view();
  EXPECT_EQ(v(1, 2), 42);
  EXPECT_EQ(v.stride(), 4);
}

TEST(Matrix, BlockViewIsZeroCopy) {
  Matrix<int> m(4, 4, 0);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 4; ++j) m(i, j) = static_cast<int>(i * 4 + j);
  }
  auto b = m.view().block(1, 2, 2, 2);
  EXPECT_EQ(b(0, 0), 6);
  EXPECT_EQ(b(1, 1), 11);
  b(0, 0) = -1;
  EXPECT_EQ(m(1, 2), -1);
}

TEST(Matrix, BlockOutOfRangeThrows) {
  Matrix<int> m(4, 4, 0);
  EXPECT_THROW((void)m.view().block(2, 2, 3, 1), Error);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(2);
  std::vector<double> xs(50000);
  for (auto& x : xs) x = rng.normal();
  EXPECT_NEAR(mean(xs), 0.0, 0.02);
  EXPECT_NEAR(stddev(xs), 1.0, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(3);
  std::vector<double> xs(50000);
  for (auto& x : xs) x = rng.exponential(4.0);
  EXPECT_NEAR(mean(xs), 0.25, 0.01);
}

TEST(Rng, StudentTHeavierTailsThanNormal) {
  Rng rng(4);
  int t_extreme = 0, n_extreme = 0;
  for (int i = 0; i < 50000; ++i) {
    if (std::abs(rng.student_t(4.0)) > 3.0) ++t_extreme;
    if (std::abs(rng.normal()) > 3.0) ++n_extreme;
  }
  EXPECT_GT(t_extreme, 2 * n_extreme);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

TEST(Stats, RelativeFrobenius) {
  const std::vector<float> a{3.0f, 4.0f};
  const std::vector<float> b{3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(relative_frobenius_error(a, b), 0.0);
  const std::vector<float> c{0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(relative_frobenius_error(a, c), 1.0);
}

TEST(Table, AlignsAndCsv) {
  Table t({"kernel", "speedup"});
  t.add_row({"marlin", "3.87"});
  t.add_row_numeric("fp16", {1.0}, 2);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("marlin"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "kernel,speedup\nmarlin,3.87\nfp16,1.00\n");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(FormatHelpers, HumanUnits) {
  EXPECT_EQ(format_seconds(1.5), "1.500 s");
  EXPECT_EQ(format_seconds(2.5e-3), "2.500 ms");
  EXPECT_EQ(format_seconds(3.2e-6), "3.200 us");
  EXPECT_EQ(format_bytes(1536.0), "1.50 KiB");
  EXPECT_EQ(format_bytes(2.0 * 1024 * 1024 * 1024), "2.00 GiB");
}

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog", "--m=16", "--device", "a10", "--enable"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_int("m", 0, "batch"), 16);
  EXPECT_EQ(args.get_string("device", "", "GPU"), "a10");
  EXPECT_TRUE(args.get_bool("enable", false, "switch"));
  EXPECT_EQ(args.get_int("missing", 99, "absent"), 99);
  EXPECT_NO_THROW(args.finish(""));
}

TEST(Cli, StrayPositionalIsAnError) {
  const char* argv[] = {"prog", "--m=16", "positional"};
  EXPECT_THROW(CliArgs(3, argv), Error);
}

TEST(Cli, NumericGettersAcceptWholeNumbers) {
  const char* argv[] = {"prog", "--n=-12", "--qps", "0.25", "--big=1e3"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_int("n", 0, ""), -12);
  EXPECT_EQ(args.get_double("qps", 0, ""), 0.25);
  EXPECT_EQ(args.get_double("big", 0, ""), 1000.0);
  EXPECT_EQ(args.get_double("missing", 1.5, ""), 1.5);
}

/// The message of the `Error` that `get` throws ("" when it throws none).
template <typename Fn>
std::string error_message(Fn&& get) {
  try {
    get();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, NumericGettersRejectMalformedValuesNamingFlagAndValue) {
  const char* argv[] = {"prog",        "--qps",     "abc",  "--replicas",
                        "12x",         "--empty=",  "--gap= 3",
                        "--frac=1.5",  "--huge=99999999999999999999",
                        "--nan=nan",   "--bare"};
  CliArgs args(11, argv);
  const std::string qps =
      error_message([&] { (void)args.get_double("qps", 1, ""); });
  EXPECT_NE(qps.find("--qps"), std::string::npos) << qps;
  EXPECT_NE(qps.find("`abc`"), std::string::npos) << qps;
  const std::string replicas =
      error_message([&] { (void)args.get_int("replicas", 1, ""); });
  EXPECT_NE(replicas.find("--replicas"), std::string::npos) << replicas;
  EXPECT_NE(replicas.find("`12x`"), std::string::npos) << replicas;
  EXPECT_THROW((void)args.get_int("empty", 1, ""), Error);
  EXPECT_THROW((void)args.get_double("empty", 1, ""), Error);
  EXPECT_THROW((void)args.get_int("gap", 1, ""), Error);
  EXPECT_THROW((void)args.get_int("frac", 1, ""), Error);
  EXPECT_THROW((void)args.get_int("huge", 1, ""), Error);
  EXPECT_THROW((void)args.get_double("nan", 1, ""), Error);
  EXPECT_THROW((void)args.get_int("bare", 1, ""), Error);  // parsed as "true"
  EXPECT_EQ(args.get_double("frac", 0, ""), 1.5);
}

TEST(Cli, GetBoolAcceptsSixWordsAndRejectsOthersNamingFlagAndValue) {
  const char* argv[] = {"prog",     "--a=true", "--b=1",   "--c=yes",
                        "--d=false", "--e=0",   "--f=no",  "--clip=ture",
                        "--on=TRUE", "--empty="};
  CliArgs args(10, argv);
  for (const char* on : {"a", "b", "c"}) {
    EXPECT_TRUE(args.get_bool(on, false, ""));
  }
  for (const char* off : {"d", "e", "f"}) {
    EXPECT_FALSE(args.get_bool(off, true, ""));
  }
  const std::string clip =
      error_message([&] { (void)args.get_bool("clip", true, ""); });
  EXPECT_NE(clip.find("--clip"), std::string::npos) << clip;
  EXPECT_NE(clip.find("`ture`"), std::string::npos) << clip;
  EXPECT_THROW((void)args.get_bool("on", false, ""), Error);
  EXPECT_THROW((void)args.get_bool("empty", false, ""), Error);
}

TEST(Cli, HelpListsEveryReadFlagWithItsDefaultInReadOrder) {
  const char* argv[] = {"/path/to/prog"};
  CliArgs args(1, argv);
  (void)args.get_int("threads", 0, "worker threads");
  (void)args.get_double("qps", 2.5, "mean arrival rate");
  (void)args.get_string("policy", "fcfs", "admission policy");
  (void)args.get_string("trace-out", "", "trace file");
  (void)args.get_bool("autoscale", false, "enable the autoscaler");
  (void)args.get_int("threads", 7, "read again: the first read wins");
  EXPECT_EQ(args.help("does things"),
            "prog — does things\n"
            "\n"
            "Flags:\n"
            "  --threads INT    worker threads (default: 0)\n"
            "  --qps NUM        mean arrival rate (default: 2.5)\n"
            "  --policy STR     admission policy (default: fcfs)\n"
            "  --trace-out STR  trace file (default: \"\")\n"
            "  --autoscale      enable the autoscaler (default: false)\n"
            "  --help           print this help and exit\n");
}

TEST(Cli, UnreadFlagIsAnErrorNamingItWithASuggestion) {
  const char* argv[] = {"prog", "--qpss", "5", "--seed", "1"};
  CliArgs args(5, argv);
  (void)args.get_double("qps", 1.0, "mean arrival rate");
  (void)args.get_int("seed", 42, "trace seed");
  const std::string what = error_message([&] { args.finish(""); });
  EXPECT_NE(what.find("unknown flag `--qpss`"), std::string::npos) << what;
  EXPECT_NE(what.find("did you mean `--qps`?"), std::string::npos) << what;
  EXPECT_NE(what.find("known: --qps, --seed, --help"), std::string::npos)
      << what;
  // Every read belongs before finish(): --help could not list a later one.
  EXPECT_THROW((void)args.get_int("late", 0, ""), Error);
}

TEST(Cli, HelpWinsOverMalformedValues) {
  // Under --help every getter falls back instead of throwing, so
  // finish() can still list the flags.
  const char* argv[] = {"prog", "--help", "--n=x", "--qps=y", "--on=maybe",
                        "--policy=bogus"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("n", 3, ""), 3);
  EXPECT_EQ(args.get_double("qps", 1.5, ""), 1.5);
  EXPECT_TRUE(args.get_bool("on", true, ""));
  const auto policy = [](const std::string& name) {
    return find_name("policy", name, {"fcfs", "wfq"});
  };
  EXPECT_EQ(args.get_parsed("policy", "wfq", "", policy), 1u);
  // Without --help the same values are errors naming flag and value.
  const char* bad[] = {"prog", "--policy=bogus"};
  CliArgs strict(2, bad);
  const std::string what = error_message(
      [&] { (void)strict.get_parsed("policy", "wfq", "", policy); });
  EXPECT_NE(what.find("unknown policy `bogus`"), std::string::npos) << what;
}

TEST(Cli, ParseIntIsTheOneIntegerRule) {
  EXPECT_EQ(parse_int("X", "-7"), -7);
  for (const char* bad : {"", " 3", "3x", "abc", "99999999999999999999"}) {
    const std::string what = error_message([&] { (void)parse_int("X", bad); });
    EXPECT_EQ(what, std::string("X expects an integer, got `") + bad + "`");
  }
}

TEST(Cli, HasIsAPureQueryThatDeclaresNothing) {
  const char* argv[] = {"prog", "--gpus", "2"};
  CliArgs args(3, argv);
  EXPECT_TRUE(args.has("gpus"));
  EXPECT_FALSE(args.has("tp"));
  EXPECT_EQ(args.help("").find("--gpus"), std::string::npos);
  const std::string what = error_message([&] { args.finish(""); });
  EXPECT_NE(what.find("unknown flag `--gpus`"), std::string::npos) << what;
}

TEST(Cli, MainBoundaryTurnsErrorsIntoExitStatusTwo) {
  const char* ok[] = {"prog", "--n", "3"};
  EXPECT_EQ(cli_main(3, ok, [](CliArgs& args) {
              const auto n = args.get_int("n", 0, "");
              args.finish("");
              return static_cast<int>(n);
            }),
            3);
  const char* bad[] = {"prog", "--nn", "3"};
  testing::internal::CaptureStderr();
  EXPECT_EQ(cli_main(3, bad, [](CliArgs& args) {
              (void)args.get_int("n", 0, "");
              args.finish("");
              return 0;
            }),
            2);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.rfind("prog: unknown flag `--nn`", 0), 0u) << err;
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
}

TEST(NameLookup, CaseInsensitiveWithListAndSuggestion) {
  const std::vector<std::string> known{"round-robin", "least-loaded"};
  EXPECT_EQ(find_name("placement", "LEAST-loaded", known), 1u);
  const std::string typo = error_message(
      [&] { (void)find_name("placement", "least-loded", known); });
  EXPECT_EQ(typo,
            "unknown placement `least-loded`; did you mean `least-loaded`? "
            "known: round-robin, least-loaded");
  const std::string far =
      error_message([&] { (void)find_name("placement", "zzz", known); });
  EXPECT_EQ(far.find("did you mean"), std::string::npos) << far;
  EXPECT_EQ(edit_distance("Kitten", "sitting"), 3u);
}

// The pool is reached through SimContext — the only supported owner.
TEST(ThreadPool, RunsAllIndices) {
  const SimContext ctx(5);  // 4 workers + caller
  std::vector<std::atomic<int>> hits(100);
  ctx.pool()->parallel_for(0, 100, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesException) {
  const SimContext ctx(3);
  EXPECT_THROW(ctx.pool()->parallel_for(0, 8,
                                        [&](std::int64_t i) {
                                          if (i == 5) throw Error("boom");
                                        }),
               Error);
}

TEST(ThreadPool, EmptyRangeNoop) {
  const SimContext ctx(3);
  ctx.pool()->parallel_for(5, 5, [](std::int64_t) { FAIL(); });
}

TEST(ErrorMacro, MessageContainsContext) {
  try {
    MARLIN_CHECK(1 == 2, "value was " << 42);
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace marlin
