// Unit tests for chk::util — RNG determinism/quality, stats, tables, CLI,
// and the parallel job runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace chk::util {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng parent1(7), parent2(7);
  Rng child1 = parent1.fork(3);
  // chklint:allow(unique-fork-tags): the same tag twice is the point — the
  // test proves equal (seed, tag) pairs reproduce the identical stream.
  Rng child2 = parent2.fork(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child1(), child2());
}

TEST(Rng, ForkTagDecorrelates) {
  Rng parent(7);
  Rng a = Rng(7).fork(1);
  Rng b = Rng(7).fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 8);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 8);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, UniformU64Unbiased) {
  Rng rng(17);
  std::vector<int> counts(7, 0);
  constexpr int kDraws = 70000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_u64(7)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 7, kDraws / 7 / 5);  // within 20%
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.15);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(RunningStats, BasicMoments) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats whole, part1, part2;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0, 10);
    whole.add(x);
    (i < 200 ? part1 : part2).add(x);
  }
  part1.merge(part2);
  EXPECT_EQ(part1.count(), whole.count());
  EXPECT_NEAR(part1.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(part1.variance(), whole.variance(), 1e-9);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_TRUE(std::isnan(stats.min()));
}

TEST(SampleSet, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
}

TEST(Table, RendersAlignedGrid) {
  Table t({"app", "overhead"});
  t.add_row({"SOR", "1.25"});
  t.add_row({"NQUEENS", "0.07"});
  const std::string out = t.render("Demo");
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("SOR"), std::string::npos);
  EXPECT_NE(out.find("NQUEENS"), std::string::npos);
  // every data line has the same width
  std::size_t width = 0;
  std::size_t pos = out.find('\n');
  for (std::size_t start = pos + 1; start < out.size();) {
    std::size_t end = out.find('\n', start);
    if (end == std::string::npos) break;
    if (width == 0) width = end - start;
    EXPECT_EQ(end - start, width);
    start = end + 1;
  }
}

TEST(Table, NumericFormatters) {
  EXPECT_EQ(Table::fixed(1.23456, 2), "1.23");
  EXPECT_EQ(Table::percent(0.0123, 2), "1.23 %");
  EXPECT_EQ(Table::bytes(2048), "2.0 KiB");
  EXPECT_EQ(Table::integer(42), "42");
}

TEST(Cli, ParsesForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta=4.5", "--flag", "pos", "--no-gamma"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("alpha", 0, 0, 10), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0, 0, 10), 4.5);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_FALSE(cli.get_bool("gamma", true));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos");
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, const_cast<char**>(argv));
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("missing", 7, 0, 10), 7);
  EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, StrictProbabilityAcceptsTheValidRange) {
  const char* argv[] = {"prog", "--p0=0", "--p1=1", "--mid=0.25"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.get_double("p0", 0.5, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(cli.get_double("p1", 0.5, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(cli.get_double("mid", 0.5, 0.0, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 0.5, 0.0, 1.0), 0.5);
}

TEST(Cli, StrictProbabilityRejectsOutOfRangeAndGarbage) {
  const char* argv[] = {"prog", "--loss=1.5", "--dup=-0.1", "--junk=0.5x",
                        "--empty=",  "--word=lots", "--nan=nan"};
  Cli cli(7, const_cast<char**>(argv));
  for (const std::string key : {"loss", "dup", "junk", "empty", "word", "nan"}) {
    EXPECT_THROW((void)cli.get_double(key, 0, 0.0, 1.0), std::invalid_argument) << key;
  }
  // The error names the offending flag so the user can fix the right one.
  try {
    (void)cli.get_double("loss", 0, 0.0, 1.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("--loss"), std::string::npos);
  }
}

TEST(Cli, StrictNonNegativeRejectsNegativesAndGarbage) {
  const char* argv[] = {"prog", "--mean=0.002", "--neg=-1", "--junk=abc"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.get_double("mean", 1, 0.0, 1e3), 0.002);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 3.5, 0.0, 1e3), 3.5);
  EXPECT_THROW((void)cli.get_double("neg", 0, 0.0, 1e3), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("junk", 0, 0.0, 1e3), std::invalid_argument);
}

/// The message of the std::invalid_argument `read` throws ("" if none).
template <typename Read>
std::string rejection(Read read) {
  try {
    read();
  } catch (const std::invalid_argument& err) {
    return err.what();
  }
  return "";
}

TEST(Cli, StrictNumbersRejectTrailingJunkEmptyAndWordsNamingTheFlag) {
  const char* argv[] = {"prog", "--runs=2x", "--nodes=", "--frac=abc", "--ok=12"};
  Cli cli(5, const_cast<char**>(argv));
  for (const std::string key : {"runs", "nodes", "frac"}) {
    EXPECT_NE(rejection([&] { (void)cli.get_int(key, 0, 0, 100); }).find("--" + key),
              std::string::npos)
        << key;
    EXPECT_NE(rejection([&] { (void)cli.get_double(key, 0, 0, 100); }).find("--" + key),
              std::string::npos)
        << key;
  }
  EXPECT_EQ(cli.get_int("ok", 0, 0, 100), 12);
  EXPECT_DOUBLE_EQ(cli.get_double("ok", 0, 0, 100), 12.0);
  EXPECT_THROW((void)cli.get_int("frac", 0, 0, 100), std::invalid_argument);
}

TEST(Cli, RangedIntegersAcceptTheBoundsAndRejectOutsideNamingTheFlag) {
  const char* argv[] = {"prog", "--lo=1", "--hi=1024", "--nodes=-1", "--runs=0",
                        "--big=1025"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("lo", 8, 1, 1024), 1);
  EXPECT_EQ(cli.get_int("hi", 8, 1, 1024), 1024);
  for (const std::string key : {"nodes", "runs", "big"}) {
    const std::string message = rejection([&] { (void)cli.get_int(key, 8, 1, 1024); });
    EXPECT_NE(message.find("--" + key), std::string::npos) << key;
    EXPECT_NE(message.find("[1, 1024]"), std::string::npos) << message;
  }
}

TEST(Cli, RangedDoublesRejectZeroAndNegativeBelowAPositiveFloor) {
  const char* argv[] = {"prog", "--intervals=0", "--frac=-1", "--ok=0.001", "--huge=1e300"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.get_double("ok", 5.0, 1e-3, 1e3), 1e-3);
  for (const std::string key : {"intervals", "frac", "huge"}) {
    EXPECT_NE(rejection([&] { (void)cli.get_double(key, 5.0, 1e-3, 1e3); }).find("--" + key),
              std::string::npos)
        << key;
  }
}

TEST(Cli, GetListParsesEveryEntryStrictly) {
  const char* argv[] = {"prog", "--fracs=0.35,0.7,1.4", "--ranks=8,64",
                        "--apps=SOR-384,NQUEENS-14", "--bad=0.4,abc", "--hole=1,,2",
                        "--none="};
  Cli cli(7, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_list<double>("fracs", ""), (std::vector<double>{0.35, 0.7, 1.4}));
  EXPECT_EQ(cli.get_list<std::int64_t>("ranks", ""), (std::vector<std::int64_t>{8, 64}));
  EXPECT_EQ(cli.get_list<std::string>("apps", ""),
            (std::vector<std::string>{"SOR-384", "NQUEENS-14"}));
  // An absent flag parses its fallback the same way.
  EXPECT_EQ(cli.get_list<double>("missing", "0.4,0.8"), (std::vector<double>{0.4, 0.8}));
  EXPECT_NE(rejection([&] { (void)cli.get_list<double>("bad", ""); }).find("--bad"),
            std::string::npos);
  EXPECT_THROW((void)cli.get_list<std::int64_t>("fracs", ""), std::invalid_argument);
  EXPECT_THROW((void)cli.get_list<double>("hole", ""), std::invalid_argument);
  EXPECT_THROW((void)cli.get_list<std::string>("hole", ""), std::invalid_argument);
  EXPECT_NE(rejection([&] { (void)cli.get_list<double>("none", ""); }).find("--none"),
            std::string::npos);
  EXPECT_THROW((void)cli.get_list<std::string>("none", ""), std::invalid_argument);
  EXPECT_THROW((void)cli.get_list<double>("missing", ""), std::invalid_argument);
}

TEST(Cli, ReportsAFlagThatNoGetterRead) {
  const char* argv[] = {"prog", "--quick", "--mtbf-frac=0.5", "--no-verify"};
  Cli cli(4, const_cast<char**>(argv));
  (void)cli.get_bool("quick", false);
  (void)cli.get_bool("verify", true);
  (void)cli.get_list<double>("mtbf-fracs", "0.4");  // the flag the user meant
  EXPECT_NE(rejection([&] { cli.reject_unread(); }).find("--mtbf-frac"), std::string::npos);
}

TEST(Cli, AcceptsWhenEveryFlagWasRead) {
  const char* argv[] = {"prog", "--quick", "--trace-out=t.json"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_TRUE(cli.get_bool("quick", false));
  EXPECT_TRUE(cli.has("trace-out"));
  EXPECT_NO_THROW(cli.reject_unread());
}

TEST(Cli, StrictBoolRejectsOtherWords) {
  const char* argv[] = {"prog", "--quick=yes", "--verify=maybe"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_TRUE(cli.get_bool("quick", false));
  EXPECT_THROW((void)cli.get_bool("verify", false), std::invalid_argument);
}

TEST(ParallelMap, ResultsFollowInputOrderWhenLaterJobsFinishFirst) {
  const std::size_t count = std::min(8u, std::thread::hardware_concurrency());
  if (count < 2) GTEST_SKIP() << "needs two hardware threads";
  // Every job gets its own worker, and job i finishes only after job i + 1:
  // completion runs from the last job to the first.
  std::vector<std::atomic<bool>> done(count);
  std::mutex mu;
  std::vector<std::size_t> completion;
  const std::vector<std::size_t> out = parallel_map(count, [&](std::size_t i) {
    while (i + 1 < count && !done[i + 1]) std::this_thread::yield();
    {
      const std::lock_guard<std::mutex> lock(mu);
      completion.push_back(i);
    }
    done[i] = true;
    return 10 * i;
  });
  std::vector<std::size_t> last_to_first(count);
  for (std::size_t i = 0; i < count; ++i) last_to_first[i] = count - 1 - i;
  EXPECT_EQ(completion, last_to_first);
  ASSERT_EQ(out.size(), count);
  for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(out[i], 10 * i);
}

TEST(ParallelMap, RethrowsTheFirstFailureOnlyAfterEveryWorkerJoined) {
  constexpr std::size_t kJobs = 64;
  const std::size_t workers =
      std::min<std::size_t>(kJobs, std::max(1u, std::thread::hardware_concurrency()));
  std::atomic<std::size_t> started{0};
  std::atomic<int> running{0};
  std::string message;
  try {
    (void)parallel_map(kJobs, [&](std::size_t i) {
      ++started;
      ++running;
      if (i == 0) {
        // Fail once every worker is busy with a job of its own.
        while (started < workers) std::this_thread::yield();
        --running;
        throw std::runtime_error("job 0 failed");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      --running;
      return i;
    });
  } catch (const std::runtime_error& err) {
    message = err.what();
    // The jobs still sleeping at the failure have all returned.
    EXPECT_EQ(running.load(), 0);
  }
  EXPECT_EQ(message, "job 0 failed");
  // No job was handed out after the failure.
  EXPECT_LT(started.load(), kJobs);
}

TEST(ParallelMap, RunsAtMostHardwareConcurrencyJobsAtOnce) {
  std::atomic<unsigned> running{0};
  std::atomic<unsigned> peak{0};
  const auto out = parallel_map(64, [&](std::size_t i) {
    const unsigned now = ++running;
    unsigned seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    --running;
    return i;
  });
  EXPECT_EQ(out.size(), 64u);
  EXPECT_GE(peak.load(), 1u);
  EXPECT_LE(peak.load(), std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ParallelMap, NoJobsNoResults) {
  EXPECT_TRUE(parallel_map(0, [](std::size_t i) { return i; }).empty());
}

}  // namespace
}  // namespace chk::util
