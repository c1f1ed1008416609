// The flat-JSON reader and the integer-field reference gate the perf CI
// leg runs: parse what BenchJson emits (and only that shape), compare
// integer fields exactly, and honor POPAN_BENCH_REFERENCE_DIR.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "sim/bench_json.h"

namespace popan::sim {
namespace {

TEST(BenchRecordTest, ParsesBenchJsonOutputRoundTrip) {
  BenchJson json("roundtrip");
  json.Add("count", static_cast<uint64_t>(42))
      .Add("seconds", 0.125)
      .Add("label", std::string("tree walk"))
      .Add("checksum", static_cast<uint64_t>(15063389225694513970ULL));
  StatusOr<BenchRecord> record = BenchRecord::Parse(json.ToJson());
  ASSERT_TRUE(record.ok()) << record.status().message();
  EXPECT_TRUE(record.value().Has("bench"));
  EXPECT_TRUE(record.value().Has("count"));
  EXPECT_FALSE(record.value().Has("missing"));
  StatusOr<int64_t> count = record.value().Integer("count");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(42, count.value());
  // Full-width unsigned counters survive the round trip bit-exactly.
  StatusOr<int64_t> checksum = record.value().Integer("checksum");
  ASSERT_TRUE(checksum.ok());
  EXPECT_EQ(static_cast<int64_t>(15063389225694513970ULL), checksum.value());
  StatusOr<std::string> seconds = record.value().Raw("seconds");
  ASSERT_TRUE(seconds.ok());
  EXPECT_EQ(0.125, std::stod(seconds.value()));
  StatusOr<std::string> label = record.value().Raw("label");
  ASSERT_TRUE(label.ok());
  EXPECT_EQ("\"tree walk\"", label.value());
}

TEST(BenchRecordTest, RejectsMalformedInput) {
  EXPECT_FALSE(BenchRecord::Parse("").ok());
  EXPECT_FALSE(BenchRecord::Parse("{\"a\": 1").ok());
  EXPECT_FALSE(BenchRecord::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(BenchRecord::Parse("{\"a\": }").ok());
  EXPECT_FALSE(BenchRecord::Parse("{a: 1}").ok());
  EXPECT_TRUE(BenchRecord::Parse("{}").ok());
  EXPECT_TRUE(BenchRecord::Parse("{\n  \"a\": 1,\n  \"b\": -2\n}\n").ok());
}

TEST(BenchRecordTest, IntegerRejectsNonIntegerFields) {
  StatusOr<BenchRecord> record =
      BenchRecord::Parse("{\"f\": 0.5, \"s\": \"x\", \"i\": 7}");
  ASSERT_TRUE(record.ok());
  EXPECT_FALSE(record.value().Integer("f").ok());
  EXPECT_FALSE(record.value().Integer("s").ok());
  EXPECT_FALSE(record.value().Integer("missing").ok());
  StatusOr<int64_t> i = record.value().Integer("i");
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(7, i.value());
}

TEST(DiffIntegerFieldsTest, EqualAndDriftedFields) {
  StatusOr<BenchRecord> parsed_a =
      BenchRecord::Parse("{\"n\": 10, \"m\": 20, \"t\": 0.5}");
  StatusOr<BenchRecord> parsed_b =
      BenchRecord::Parse("{\"n\": 10, \"m\": 21, \"t\": 0.9}");
  ASSERT_TRUE(parsed_a.ok());
  ASSERT_TRUE(parsed_b.ok());
  const BenchRecord& a = parsed_a.value();
  const BenchRecord& b = parsed_b.value();
  EXPECT_TRUE(DiffIntegerFields(a, a, {"n", "m"}).ok());
  // Float fields are exempt from the gate by construction: only the
  // named integer fields are compared.
  EXPECT_TRUE(DiffIntegerFields(a, b, {"n"}).ok());
  Status drift = DiffIntegerFields(a, b, {"n", "m"});
  EXPECT_FALSE(drift.ok());
  EXPECT_NE(std::string::npos, drift.message().find("m"));
  // Asking to gate a float field is an error, not a silent pass.
  EXPECT_FALSE(DiffIntegerFields(a, b, {"t"}).ok());
}

class GateAgainstReferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per case: ctest runs the cases as parallel processes,
    // so a shared file would let one case read a sibling's reference.
    dir_ = ::testing::TempDir() + "/bench_gate_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::remove((dir_ + "/BENCH_gate_demo.json").c_str());
  }

  void TearDown() override { unsetenv("POPAN_BENCH_REFERENCE_DIR"); }

  void WriteReference(const std::string& body) {
    std::string mkdir = "mkdir -p " + dir_;
    ASSERT_EQ(0, std::system(mkdir.c_str()));
    std::ofstream out(dir_ + "/BENCH_gate_demo.json");
    out << body;
  }

  std::string dir_;
};

TEST_F(GateAgainstReferenceTest, NoEnvironmentMeansNoGate) {
  unsetenv("POPAN_BENCH_REFERENCE_DIR");
  BenchJson json("gate_demo");
  json.Add("n", static_cast<uint64_t>(1));
  EXPECT_TRUE(GateAgainstReference(json, {"n"}).ok());
}

TEST_F(GateAgainstReferenceTest, MatchingReferencePasses) {
  BenchJson json("gate_demo");
  json.Add("n", static_cast<uint64_t>(123)).Add("seconds", 0.5);
  WriteReference("{\"bench\": \"gate_demo\", \"n\": 123, \"seconds\": 9.0}");
  setenv("POPAN_BENCH_REFERENCE_DIR", dir_.c_str(), 1);
  EXPECT_TRUE(GateAgainstReference(json, {"n"}).ok());
}

TEST_F(GateAgainstReferenceTest, DriftedReferenceFails) {
  BenchJson json("gate_demo");
  json.Add("n", static_cast<uint64_t>(124));
  WriteReference("{\"bench\": \"gate_demo\", \"n\": 123}");
  setenv("POPAN_BENCH_REFERENCE_DIR", dir_.c_str(), 1);
  Status gate = GateAgainstReference(json, {"n"});
  EXPECT_FALSE(gate.ok());
  EXPECT_NE(std::string::npos, gate.message().find("124"));
}

TEST_F(GateAgainstReferenceTest, MissingReferenceFileFails) {
  BenchJson json("gate_demo");
  json.Add("n", static_cast<uint64_t>(1));
  setenv("POPAN_BENCH_REFERENCE_DIR", "/nonexistent-bench-refs", 1);
  EXPECT_FALSE(GateAgainstReference(json, {"n"}).ok());
}

}  // namespace
}  // namespace popan::sim
