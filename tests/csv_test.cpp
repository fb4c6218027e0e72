// Binary test-case <-> CSV conversion (the paper's Simulink-import tool).
#include <gtest/gtest.h>

#include <cfloat>
#include <cstring>

#include "fuzz/csv_export.hpp"
#include "support/rng.hpp"

namespace cftcg::fuzz {
namespace {

using ir::DType;

TEST(CsvTest, ExportsHeaderAndRows) {
  TupleLayout layout({DType::kInt8, DType::kInt32});
  std::vector<std::uint8_t> data(10, 0);
  data[0] = 7;                       // tuple 0, field 0
  const std::int32_t v = -1234;
  std::memcpy(data.data() + 1, &v, 4);
  data[5] = 0xFF;                    // tuple 1, field 0 = -1 (int8)
  const std::string csv = TestCaseToCsv(layout, {"Enable", "Power"}, data);
  EXPECT_EQ(csv, "Enable,Power\n7,-1234\n-1,0\n");
}

TEST(CsvTest, DiscardsTrailingPartialTuple) {
  TupleLayout layout({DType::kInt16});
  std::vector<std::uint8_t> data{1, 0, 2, 0, 9};  // 2 tuples + 1 stray byte
  const std::string csv = TestCaseToCsv(layout, {"x"}, data);
  EXPECT_EQ(csv, "x\n1\n2\n");
}

TEST(CsvTest, RoundTripAllTypes) {
  TupleLayout layout({DType::kBool, DType::kInt8, DType::kUInt16, DType::kInt32, DType::kSingle,
                      DType::kDouble});
  Rng rng(21);
  std::vector<std::uint8_t> data(layout.tuple_size() * 5);
  rng.FillBytes(data.data(), data.size());
  // Normalize via value semantics first (bool bytes and NaN floats are
  // canonicalized by the driver), then round-trip.
  auto canonical = CsvToTestCase(layout, TestCaseToCsv(layout, {}, data));
  ASSERT_TRUE(canonical.ok()) << canonical.message();
  const std::string csv = TestCaseToCsv(layout, {}, canonical.value());
  auto back = CsvToTestCase(layout, csv);
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value(), canonical.value());
}

TEST(CsvTest, RoundTripSubnormalDoubles) {
  TupleLayout layout({DType::kDouble});
  std::vector<std::uint8_t> data(2 * sizeof(double));
  const double values[] = {DBL_MIN / 4, -DBL_TRUE_MIN};
  std::memcpy(data.data(), values, sizeof values);
  auto back = CsvToTestCase(layout, TestCaseToCsv(layout, {"x"}, data));
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value(), data);
}

TEST(CsvTest, ImportRejectsWrongColumnCount) {
  TupleLayout layout({DType::kInt8, DType::kInt8});
  EXPECT_FALSE(CsvToTestCase(layout, "a,b\n1,2,3\n").ok());
}

TEST(CsvTest, ImportRejectsGarbageNumbers) {
  TupleLayout layout({DType::kDouble});
  EXPECT_FALSE(CsvToTestCase(layout, "x\nbanana\n").ok());
}

TEST(CsvTest, ImportParsesBooleans) {
  TupleLayout layout({DType::kBool});
  auto data = CsvToTestCase(layout, "b\ntrue\nfalse\n1\n0\n");
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data.value().size(), 4U);
  EXPECT_EQ(data.value()[0], 1);
  EXPECT_EQ(data.value()[1], 0);
  EXPECT_EQ(data.value()[2], 1);
  EXPECT_EQ(data.value()[3], 0);
}

TEST(CsvTest, DefaultColumnNames) {
  TupleLayout layout({DType::kInt8, DType::kInt8});
  const std::string csv = TestCaseToCsv(layout, {}, {1, 2});
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "in0,in1");
}

}  // namespace
}  // namespace cftcg::fuzz
