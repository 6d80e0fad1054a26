// Unit tests for chk::util — RNG determinism/quality, the byte hash, the
// formatter, tables, CLI, and the parallel job runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
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
  constexpr int kDraws = 20000;
  double sum = 0.0;
  double min = 1.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.exponential(4.0);
    sum += x;
    min = std::min(min, x);
  }
  EXPECT_NEAR(sum / kDraws, 4.0, 0.15);
  EXPECT_GE(min, 0.0);
}

TEST(Hash, ZeroBuffersOfEveryLengthUpTo64HashApart) {
  std::set<std::uint64_t> seen;
  for (std::size_t len = 0; len <= 64; ++len) {
    const std::vector<std::byte> zeros(len);
    EXPECT_TRUE(seen.insert(hash_bytes(zeros)).second) << len << " zero bytes";
  }
}

TEST(Hash, EveryChangeInsideOneWordChangesTheHash) {
  // Lengths around the 8-byte words and the 32-byte stripes of four lanes.
  Rng rng(17);
  std::size_t unchanged = 0;
  std::size_t tried = 0;
  for (const std::size_t len : {1u, 7u, 8u, 9u, 31u, 32u, 33u, 40u, 70u}) {
    std::vector<std::byte> bytes(len);
    for (std::size_t i = 0; i < len; ++i) bytes[i] = static_cast<std::byte>(37 * i + len);
    const std::uint64_t base = hash_bytes(bytes);
    // Every one-byte change: each offset, each nonzero xor mask.
    for (std::size_t at = 0; at < len; ++at) {
      for (unsigned mask = 1; mask < 256; ++mask) {
        bytes[at] ^= static_cast<std::byte>(mask);
        if (hash_bytes(bytes) == base) ++unchanged;
        ++tried;
        bytes[at] ^= static_cast<std::byte>(mask);
      }
    }
    // Random changes spread over all bytes of one 8-byte word.
    for (std::size_t word = 0; word * 8 < len; ++word) {
      for (int draw = 0; draw < 64; ++draw) {
        const std::uint64_t mask = rng() | 1;
        std::vector<std::byte> changed = bytes;
        for (std::size_t b = 0; b < 8 && word * 8 + b < len; ++b) {
          changed[word * 8 + b] ^= static_cast<std::byte>(mask >> (8 * b));
        }
        if (hash_bytes(changed) == base) ++unchanged;
        ++tried;
      }
    }
  }
  EXPECT_EQ(unchanged, 0u) << "of " << tried << " changed buffers";
}

// Each expected string is what {fmt} 12.1, which util::format replaced,
// printed for the same call.
TEST(Format, ShortestDoubleIsFixedForExponentsFromMinus4To15) {
  EXPECT_EQ(format("{}", 0.0), "0");
  EXPECT_EQ(format("{}", -0.0), "-0");
  EXPECT_EQ(format("{}", 0.1), "0.1");
  EXPECT_EQ(format("{}", 1e-4), "0.0001");
  EXPECT_EQ(format("{}", 1e-5), "1e-05");
  EXPECT_EQ(format("{}", 1e15), "1000000000000000");
  EXPECT_EQ(format("{}", 1e16), "1e+16");
  EXPECT_EQ(format("{}", 123456789012345680.0), "1.2345678901234568e+17");
  EXPECT_EQ(format("{}", 1e300), "1e+300");
}

TEST(Format, FixedPrecisionRoundsHalfwayCasesToEven) {
  EXPECT_EQ(format("{:.2f}", 0.125), "0.12");
  EXPECT_EQ(format("{:.0f}", 2.5), "2");
  EXPECT_EQ(format("{:.{}f}", 0.125, 2), "0.12");
  EXPECT_EQ(format("{:.{}f}", 2.5, 0), "2");
  EXPECT_EQ(format("{:.{}f} %", 2.5, 3), "2.500 %");
}

TEST(Format, GeneralKeepsSixSignificantDigits) {
  EXPECT_EQ(format("{:g}", 1e-9), "1e-09");
  EXPECT_EQ(format("{:g}", 1234567.0), "1.23457e+06");
}

TEST(Format, IntegersInHexAndZeroPadded) {
  EXPECT_EQ(format("{:016x}", std::uint64_t{0x1234abcd}), "000000001234abcd");
  EXPECT_EQ(format("{:016x}", std::uint64_t{0xfedcba9876543210}), "fedcba9876543210");
  EXPECT_EQ(format("{:#x}", std::uint64_t{0x1234abcd}), "0x1234abcd");
  EXPECT_EQ(format("{:#x}", std::uint64_t{0}), "0x0");
  EXPECT_EQ(format("{:08}", std::uint64_t{42}), "00000042");
  EXPECT_EQ(format("{:08}", -42), "-0000042");
  EXPECT_EQ(format("{}", std::int64_t{-9223372036854775807 - 1}), "-9223372036854775808");
}

TEST(Format, StringLikesPrintAsTheyAre) {
  const std::string str = "str";
  const std::string_view view = "view";
  const char* ptr = "ptr";
  EXPECT_EQ(format("{}/{}/{}/{}", str, view, ptr, "lit"), "str/view/ptr/lit");
  EXPECT_EQ(format("no fields"), "no fields");
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
  const char* argv[] = {"prog", "--runs=2x", "--nodes=", "--frac=abc", "--pad= 12", "--ok=12"};
  Cli cli(6, const_cast<char**>(argv));
  for (const std::string key : {"runs", "nodes", "frac", "pad"}) {
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
    const std::string message = rejection([&] { (void)cli.get_double(key, 5.0, 1e-3, 1e3); });
    EXPECT_NE(message.find("--" + key), std::string::npos) << key;
    EXPECT_NE(message.find("expected a number in [0.001, 1000]"), std::string::npos) << message;
  }
}

TEST(Cli, GetListParsesEveryEntryStrictly) {
  const char* argv[] = {"prog", "--fracs=0.35,0.7,1.4", "--ranks=8,64",
                        "--apps=SOR-384,NQUEENS-14", "--bad=0.4,abc", "--hole=1,,2",
                        "--none=", "--spaced=1, 2"};
  Cli cli(8, const_cast<char**>(argv));
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
  EXPECT_THROW((void)cli.get_list<double>("spaced", ""), std::invalid_argument);
  EXPECT_THROW((void)cli.get_list<std::int64_t>("spaced", ""), std::invalid_argument);
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
