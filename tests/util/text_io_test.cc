#include "util/text_io.h"

#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testing/statusor_testing.h"

namespace popan {
namespace {

TEST(ReadTokensTest, SplitsOnWhitespace) {
  std::istringstream in("alpha  beta\tgamma\n");
  std::vector<std::string> tokens;
  ASSERT_TRUE(ReadTokens(&in, &tokens));
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "alpha");
  EXPECT_EQ(tokens[1], "beta");
  EXPECT_EQ(tokens[2], "gamma");
}

TEST(ReadTokensTest, StripsCarriageReturn) {
  std::istringstream in("a b\r\nc\r\n");
  std::vector<std::string> tokens;
  ASSERT_TRUE(ReadTokens(&in, &tokens));
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[1], "b");
  ASSERT_TRUE(ReadTokens(&in, &tokens));
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0], "c");
  EXPECT_FALSE(ReadTokens(&in, &tokens));
}

TEST(ReadTokensTest, BlankLinesYieldEmptyTokenLists) {
  std::istringstream in("\n\nx\n");
  std::vector<std::string> tokens;
  ASSERT_TRUE(ReadTokens(&in, &tokens));
  EXPECT_TRUE(tokens.empty());
  ASSERT_TRUE(ReadTokens(&in, &tokens));
  EXPECT_TRUE(tokens.empty());
  ASSERT_TRUE(ReadTokens(&in, &tokens));
  ASSERT_EQ(tokens.size(), 1u);
}

TEST(ReadTokensTest, ConsumedCountsLineAndTerminator) {
  std::istringstream in("ab cd\nef");
  std::vector<std::string> tokens;
  size_t consumed = 0;
  ASSERT_TRUE(ReadTokens(&in, &tokens, &consumed));
  EXPECT_EQ(consumed, 6u);  // "ab cd" + '\n'
  ASSERT_TRUE(ReadTokens(&in, &tokens, &consumed));
  EXPECT_EQ(consumed, 2u);  // "ef", no terminator at EOF
  EXPECT_TRUE(in.eof());
}

TEST(ParseU64Test, AcceptsCanonicalIntegers) {
  EXPECT_EQ(ValueOrDie(ParseU64("0")), 0u);
  EXPECT_EQ(ValueOrDie(ParseU64("18446744073709551615")),
            std::numeric_limits<uint64_t>::max());
}

TEST(ParseU64Test, RejectsGarbage) {
  EXPECT_FALSE(ParseU64("").ok());
  EXPECT_FALSE(ParseU64("-1").ok());
  EXPECT_FALSE(ParseU64("12x").ok());
  EXPECT_FALSE(ParseU64("18446744073709551616").ok());  // overflow
  EXPECT_FALSE(ParseU64("0x10").ok());
}

TEST(ParseDoubleTest, RoundTripsExtremeValues) {
  const std::vector<double> values = {
      0.0,
      -0.0,
      4.9406564584124654e-324,   // smallest denormal
      -4.9406564584124654e-324,
      2.2250738585072014e-308,   // smallest normal
      1.7976931348623157e308,    // largest finite
      0.1000000000000000055511151231257827,
      0.99999999999999989,
  };
  for (double v : values) {
    std::ostringstream os;
    StreamFormatGuard guard(&os);
    os << std::setprecision(17) << v;
    StatusOr<double> parsed = ParseDouble(os.str());
    ASSERT_TRUE(parsed.ok()) << os.str();
    EXPECT_EQ(std::signbit(parsed.value()), std::signbit(v)) << os.str();
    EXPECT_EQ(parsed.value(), v) << os.str();
  }
}

TEST(ParseDoubleTest, RejectsNonFiniteAndGarbage) {
  EXPECT_FALSE(ParseDouble("nan").ok());
  EXPECT_FALSE(ParseDouble("inf").ok());
  EXPECT_FALSE(ParseDouble("-inf").ok());
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("1.0.0").ok());
  EXPECT_FALSE(ParseDouble("0.5x").ok());
  EXPECT_FALSE(ParseDouble("1e999").ok());  // overflows to infinity
}

TEST(Fnv1aTest, MatchesKnownVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(Fnv1a(std::string("")), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a(std::string("a")), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a(std::string("foobar")), 0x85944171f73967e8ULL);
}

TEST(Fnv1aTest, SensitiveToEveryByte) {
  std::string a(64, '\0');
  std::string b = a;
  b[63] = '\1';
  EXPECT_NE(Fnv1a(a), Fnv1a(b));
}

TEST(Fnv1aTest, ChainedHashOverASplitBufferEqualsOnePass) {
  const std::string whole = "a population analysis";
  for (size_t cut = 0; cut <= whole.size(); ++cut) {
    const uint64_t head = Fnv1a(whole.data(), cut);
    EXPECT_EQ(Fnv1a(whole.data() + cut, whole.size() - cut, head),
              Fnv1a(whole))
        << "cut at " << cut;
  }
}

TEST(Fnv1aTest, U64FoldsTheLittleEndianBytes) {
  const uint64_t value = 0x0123456789abcdefULL;
  unsigned char bytes[8];
  for (size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(value >> (8 * i));
  }
  EXPECT_EQ(Fnv1aU64(kFnv1aBasis, value), Fnv1a(bytes, sizeof(bytes)));
  const uint64_t running = Fnv1a(std::string("foobar"));
  EXPECT_EQ(Fnv1aU64(running, value),
            Fnv1a(bytes, sizeof(bytes), running));
}

TEST(StreamFormatGuardTest, RestoresFlagsAndPrecision) {
  std::ostringstream os;
  {
    StreamFormatGuard guard(&os);
    os << std::setprecision(17) << std::hex << std::uppercase
       << std::showpos;
  }
  // The sticky manipulators above must not survive the guard's scope.
  os << 1.0 / 3.0 << " " << 255;
  std::ostringstream expect;
  expect << 1.0 / 3.0 << " " << 255;
  EXPECT_EQ(os.str(), expect.str());
}

TEST(StreamFormatGuardTest, WorksOnInputStreams) {
  std::istringstream in("ff 255");
  // Deliberately dirty the stream outside any guard: the test verifies
  // the guard restores exactly this state.
  // popan-lint: allow(stream-format-guard)
  in >> std::hex;
  {
    StreamFormatGuard guard(&in);
    in >> std::dec;
  }
  int value = 0;
  in >> value;  // hex restored: "ff" parses as 255
  EXPECT_EQ(value, 255);
}

}  // namespace
}  // namespace popan
