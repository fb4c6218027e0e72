#include <gtest/gtest.h>

#include <cfloat>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "support/atomic_file.hpp"
#include "support/bitset.hpp"
#include "support/numerics.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"
#include "support/strings.hpp"

namespace cftcg {
namespace {

TEST(StatusTest, OkAndError) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status err = Status::Error("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.message(), "boom");
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> bad(Status::Error("nope"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.message(), "nope");
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17U);
  }
  EXPECT_EQ(rng.NextBelow(0), 0U);
  EXPECT_EQ(rng.NextBelow(1), 0U);
}

TEST(RngTest, NextInRangeBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NextDoubleUnit) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBelow(7));
  EXPECT_EQ(seen.size(), 7U);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkIndependent) {
  Rng a(21);
  Rng child = a.Fork();
  EXPECT_NE(a.NextU64(), child.NextU64());
}

TEST(StringsTest, Format) { EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x"); }

TEST(StringsTest, SplitPreservesEmpty) {
  const auto parts = SplitString("a,,b", ',');
  ASSERT_EQ(parts.size(), 3U);
  EXPECT_EQ(parts[1], "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(TrimString("  hi \n"), "hi");
  EXPECT_EQ(TrimString(""), "");
  EXPECT_EQ(TrimString("   "), "");
}

TEST(StringsTest, ParseInt64) {
  long long v = 0;
  EXPECT_TRUE(ParseInt64("-42", v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(ParseInt64("0x10", v));
  EXPECT_EQ(v, 16);
  EXPECT_FALSE(ParseInt64("12x", v));
  EXPECT_FALSE(ParseInt64("", v));
}

TEST(StringsTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("2.5e3", v));
  EXPECT_EQ(v, 2500.0);
  EXPECT_FALSE(ParseDouble("abc", v));
}

TEST(StringsTest, ParseDoubleAcceptsUnderflowRejectsOverflow) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("1e-310", v));
  EXPECT_EQ(v, 1e-310);
  EXPECT_TRUE(ParseDouble("-4.9406564584124654e-324", v));
  EXPECT_EQ(v, -DBL_TRUE_MIN);
  EXPECT_FALSE(ParseDouble("1e400", v));
  EXPECT_FALSE(ParseDouble("-1e400", v));
}

TEST(StringsTest, DoubleRoundTrip) {
  for (double x : {0.1, 1.0 / 3.0, 1e-300, 12345.6789, -0.0, DBL_MIN / 4, -DBL_TRUE_MIN}) {
    double back = 0;
    ASSERT_TRUE(ParseDouble(DoubleToString(x), back));
    EXPECT_EQ(back, x);
  }
}

TEST(StringsTest, XmlEscape) {
  EXPECT_EQ(XmlEscape("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
}

TEST(BitsetTest, SetTestReset) {
  DynamicBitset b(130);
  EXPECT_FALSE(b.Test(129));
  b.Set(129);
  EXPECT_TRUE(b.Test(129));
  b.Reset(129);
  EXPECT_FALSE(b.Test(129));
}

TEST(BitsetTest, Count) {
  DynamicBitset b(200);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(199);
  EXPECT_EQ(b.Count(), 4U);
}

TEST(BitsetTest, CountDifferences) {
  DynamicBitset a(100);
  DynamicBitset b(100);
  a.Set(1);
  a.Set(50);
  b.Set(50);
  b.Set(99);
  EXPECT_EQ(a.CountDifferences(b), 2U);
}

TEST(BitsetTest, MergeCountsNewBits) {
  DynamicBitset total(100);
  DynamicBitset curr(100);
  curr.Set(3);
  curr.Set(70);
  EXPECT_EQ(total.MergeAndCountNew(curr), 2U);
  EXPECT_EQ(total.MergeAndCountNew(curr), 0U);
  curr.Set(71);
  EXPECT_EQ(total.MergeAndCountNew(curr), 1U);
}

TEST(BitsetTest, HasNewBits) {
  DynamicBitset total(64);
  DynamicBitset curr(64);
  curr.Set(5);
  EXPECT_TRUE(curr.HasNewBitsRelativeTo(total));
  total.Set(5);
  EXPECT_FALSE(curr.HasNewBitsRelativeTo(total));
}

TEST(BitsetTest, HashDistinguishes) {
  DynamicBitset a(64);
  DynamicBitset b(64);
  a.Set(1);
  b.Set(2);
  EXPECT_NE(a.Hash(), b.Hash());
}

TEST(NumericsTest, SafeDivByZero) {
  EXPECT_EQ(num::SafeDiv(1.0, 0.0), 0.0);
  EXPECT_EQ(num::SafeDivI(5, 0), 0);
}

TEST(NumericsTest, MatlabModSign) {
  EXPECT_EQ(num::SafeModI(-7, 3), 2);
  EXPECT_EQ(num::SafeModI(7, -3), -2);
  EXPECT_EQ(num::SafeRemI(-7, 3), -1);
  EXPECT_DOUBLE_EQ(num::SafeMod(-7.0, 3.0), 2.0);
}

TEST(NumericsTest, TruncSaturates) {
  EXPECT_EQ(num::TruncToI64(1e300), INT64_MAX);
  EXPECT_EQ(num::TruncToI64(-1e300), INT64_MIN);
  EXPECT_EQ(num::TruncToI64(2.9), 2);
  EXPECT_EQ(num::TruncToI64(-2.9), -2);
}

namespace fs = std::filesystem;

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Temp files live next to the destination so rename(2) stays within one
// filesystem; a committed write replaces the target in one step and leaves
// no temporaries behind.
TEST(AtomicFileTest, WriteCommitReplacesTarget) {
  const std::string dir = "atomic_file_test_commit";
  fs::remove_all(dir);
  ASSERT_TRUE(support::EnsureDir(dir).ok());
  const std::string path = dir + "/out.txt";

  ASSERT_TRUE(support::WriteFileAtomic(path, "first").ok());
  EXPECT_EQ(Slurp(path), "first");
  ASSERT_TRUE(support::WriteFileAtomic(path, "second, longer content").ok());
  EXPECT_EQ(Slurp(path), "second, longer content");

  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u) << "temporary files leaked into the directory";
  fs::remove_all(dir);
}

TEST(AtomicFileTest, AbortLeavesDestinationUntouched) {
  const std::string dir = "atomic_file_test_abort";
  fs::remove_all(dir);
  ASSERT_TRUE(support::EnsureDir(dir).ok());
  const std::string path = dir + "/out.txt";
  ASSERT_TRUE(support::WriteFileAtomic(path, "original").ok());

  {
    support::AtomicFileWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.Write("partial garbage").ok());
    EXPECT_TRUE(fs::exists(writer.temp_path()));
    // Destroyed without Commit(): the temp vanishes, the original survives.
  }
  EXPECT_EQ(Slurp(path), "original");
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  fs::remove_all(dir);
}

TEST(AtomicFileTest, CommitIsOneShot) {
  const std::string dir = "atomic_file_test_oneshot";
  fs::remove_all(dir);
  ASSERT_TRUE(support::EnsureDir(dir).ok());
  const std::string path = dir + "/out.txt";

  support::AtomicFileWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Write("abc").ok());
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_FALSE(writer.open());
  EXPECT_FALSE(writer.Write("more").ok());
  EXPECT_EQ(Slurp(path), "abc");
  fs::remove_all(dir);
}

TEST(AtomicFileTest, OpenFailsInMissingDirectory) {
  support::AtomicFileWriter writer;
  EXPECT_FALSE(writer.Open("no_such_dir_xyz/out.txt").ok());
  EXPECT_FALSE(support::WriteFileAtomic("no_such_dir_xyz/out.txt", "x").ok());
}

TEST(AtomicFileTest, EnsureDirIsIdempotent) {
  const std::string dir = "atomic_file_test_dir";
  fs::remove_all(dir);
  EXPECT_TRUE(support::EnsureDir(dir).ok());
  EXPECT_TRUE(support::EnsureDir(dir).ok());
  EXPECT_TRUE(fs::is_directory(dir));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cftcg
