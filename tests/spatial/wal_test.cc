#include "spatial/wal.h"

#include <bit>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

#include "testing/rejecting_streambuf.h"
#include "testing/statusor_testing.h"

namespace popan::spatial {
namespace {

using geo::Box2;
using geo::Point2;

PrTreeOptions SmallOptions() {
  PrTreeOptions options;
  options.capacity = 2;
  options.max_depth = 20;
  return options;
}

TEST(WalTest, HeaderOnlyRecoversEmptyTree) {
  std::ostringstream log;
  WalWriter writer(&log, Box2::UnitCube(), SmallOptions());
  StatusOr<WalRecovery> recovery = ReplayWal(log.str());
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->tree.size(), 0u);
  EXPECT_EQ(recovery->records_applied, 0u);
  EXPECT_FALSE(recovery->truncated_tail);
  EXPECT_EQ(recovery->tree.capacity(), 2u);
  EXPECT_EQ(recovery->next_sequence, 1u);
  EXPECT_EQ(recovery->valid_bytes, log.str().size());
}

TEST(WalTest, ReplayReconstructsTheTree) {
  std::ostringstream log;
  WalWriter writer(&log, Box2::UnitCube(), SmallOptions());
  PrTree<2> reference(Box2::UnitCube(), SmallOptions());
  Pcg32 rng(3);
  std::vector<Point2> live;
  for (int op = 0; op < 500; ++op) {
    if (live.empty() || rng.NextBounded(3) != 0) {
      Point2 p(rng.NextDouble(), rng.NextDouble());
      if (reference.Insert(p).ok()) {
        ASSERT_TRUE(writer.LogInsert(p).ok());
        live.push_back(p);
      }
    } else {
      size_t idx = rng.NextBounded(static_cast<uint32_t>(live.size()));
      ASSERT_TRUE(reference.Erase(live[idx]).ok());
      ASSERT_TRUE(writer.LogErase(live[idx]).ok());
      live[idx] = live.back();
      live.pop_back();
    }
  }
  StatusOr<WalRecovery> recovery = ReplayWal(log.str());
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_FALSE(recovery->truncated_tail) << recovery->truncation_reason;
  EXPECT_EQ(recovery->tree.size(), reference.size());
  EXPECT_EQ(recovery->tree.LeafCount(), reference.LeafCount());
  for (const Point2& p : live) {
    EXPECT_TRUE(recovery->tree.Contains(p));
  }
  EXPECT_TRUE(recovery->tree.CheckInvariants().ok());
  EXPECT_EQ(recovery->valid_bytes, log.str().size());
  EXPECT_EQ(recovery->next_sequence, recovery->last_sequence + 1);
}

TEST(WalTest, SequenceNumbersAreConsecutive) {
  std::ostringstream log;
  WalWriter writer(&log, Box2::UnitCube(), SmallOptions());
  EXPECT_EQ(ValueOrDie(writer.LogInsert(Point2(0.1, 0.1))), 1u);
  EXPECT_EQ(ValueOrDie(writer.LogInsert(Point2(0.2, 0.2))), 2u);
  EXPECT_EQ(ValueOrDie(writer.LogErase(Point2(0.1, 0.1))), 3u);
  EXPECT_EQ(writer.next_sequence(), 4u);
}

TEST(WalTest, AppendRejectsNonFiniteCoordinates) {
  // The reader's ParseDouble rejects non-finite values, so logging one
  // would silently truncate the rest of the log at recovery. The writer
  // must refuse at append time, without consuming a sequence number or
  // writing anything.
  std::ostringstream log;
  WalWriter writer(&log, Box2::UnitCube(), SmallOptions());
  const std::string header = log.str();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(writer.LogInsert(Point2(nan, 0.5)).ok());
  EXPECT_FALSE(writer.LogInsert(Point2(0.5, inf)).ok());
  EXPECT_FALSE(writer.LogErase(Point2(-inf, nan)).ok());
  EXPECT_EQ(writer.next_sequence(), 1u);
  EXPECT_EQ(log.str(), header);
  // A valid record after the rejections still gets sequence 1 and the
  // whole log replays cleanly.
  EXPECT_EQ(ValueOrDie(writer.LogInsert(Point2(0.5, 0.5))), 1u);
  StatusOr<WalRecovery> recovery = ReplayWal(log.str());
  ASSERT_TRUE(recovery.ok());
  EXPECT_FALSE(recovery->truncated_tail) << recovery->truncation_reason;
  EXPECT_EQ(recovery->records_applied, 1u);
}

TEST(WalTest, AppendRejectsOutOfBoundsPoints) {
  std::ostringstream log;
  WalWriter writer(&log, Box2::UnitCube(), SmallOptions());
  const std::string header = log.str();
  EXPECT_EQ(writer.LogInsert(Point2(1.5, 0.5)).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(writer.LogErase(Point2(-0.1, 0.5)).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(log.str(), header);
}

TEST(WalTest, ResumeConstructorContinuesARecoveredLog) {
  // The resume/collision bug: a fresh writer starts at sequence 1, so
  // appending to a recovered log makes replay discard everything after
  // the old tail as a sequence gap. The fix: recover, truncate to
  // valid_bytes, resume at next_sequence.
  std::ostringstream log;
  WalWriter writer(&log, Box2::UnitCube(), SmallOptions());
  ASSERT_TRUE(writer.LogInsert(Point2(0.1, 0.1)).ok());
  ASSERT_TRUE(writer.LogInsert(Point2(0.9, 0.9)).ok());

  StatusOr<WalRecovery> recovery = ReplayWal(log.str());
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery->next_sequence, 3u);

  std::string resumed = log.str().substr(0, recovery->valid_bytes);
  std::ostringstream tail;
  WalWriter appender(&tail, Box2::UnitCube(),
                     WalWriter::ResumeAt{recovery->next_sequence});
  EXPECT_EQ(ValueOrDie(appender.LogErase(Point2(0.1, 0.1))), 3u);
  EXPECT_EQ(ValueOrDie(appender.LogInsert(Point2(0.4, 0.6))), 4u);
  resumed += tail.str();

  StatusOr<WalRecovery> replayed = ReplayWal(resumed);
  ASSERT_TRUE(replayed.ok());
  EXPECT_FALSE(replayed->truncated_tail) << replayed->truncation_reason;
  EXPECT_EQ(replayed->records_applied, 4u);
  EXPECT_EQ(replayed->tree.size(), 2u);
  EXPECT_FALSE(replayed->tree.Contains(Point2(0.1, 0.1)));
  EXPECT_TRUE(replayed->tree.Contains(Point2(0.4, 0.6)));
}

TEST(WalTest, FreshWriterCollidesWithoutResume) {
  // Document the failure mode the resume constructor exists for.
  std::ostringstream log;
  WalWriter writer(&log, Box2::UnitCube(), SmallOptions());
  ASSERT_TRUE(writer.LogInsert(Point2(0.1, 0.1)).ok());
  std::ostringstream tail;
  WalWriter collider(&tail, Box2::UnitCube(),
                     WalWriter::ResumeAt{1});  // wrong: 1 already used
  ASSERT_TRUE(collider.LogInsert(Point2(0.9, 0.9)).ok());
  StatusOr<WalRecovery> recovery = ReplayWal(log.str() + tail.str());
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->truncated_tail);
  EXPECT_EQ(recovery->truncation_reason, "sequence gap");
  EXPECT_EQ(recovery->records_applied, 1u);
}

TEST(WalTest, AnchoredLogRequiresItsSnapshot) {
  PrTreeOptions options = SmallOptions();
  std::ostringstream log;
  WalWriter writer(&log, Box2::UnitCube(), options, /*anchor=*/7);
  EXPECT_EQ(writer.next_sequence(), 8u);
  EXPECT_FALSE(ReplayWal(log.str()).ok());
}

TEST(WalTest, ReplayOntoBaseContinuesFromTheAnchor) {
  PrTreeOptions options = SmallOptions();
  PrTree<2> base(Box2::UnitCube(), options);
  ASSERT_TRUE(base.Insert(Point2(0.25, 0.25)).ok());
  ASSERT_TRUE(base.Insert(Point2(0.75, 0.75)).ok());

  std::ostringstream log;
  WalWriter writer(&log, Box2::UnitCube(), options, /*anchor=*/2);
  EXPECT_EQ(ValueOrDie(writer.LogErase(Point2(0.25, 0.25))), 3u);
  EXPECT_EQ(ValueOrDie(writer.LogInsert(Point2(0.5, 0.5))), 4u);

  StatusOr<WalRecovery> recovery = ReplayWal(log.str(), base, 2);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_FALSE(recovery->truncated_tail) << recovery->truncation_reason;
  EXPECT_EQ(recovery->records_applied, 2u);
  EXPECT_EQ(recovery->last_sequence, 4u);
  EXPECT_EQ(recovery->next_sequence, 5u);
  EXPECT_EQ(recovery->tree.size(), 2u);
  EXPECT_TRUE(recovery->tree.Contains(Point2(0.5, 0.5)));
  EXPECT_FALSE(recovery->tree.Contains(Point2(0.25, 0.25)));

  // Mismatched anchor or geometry is a pairing error, not a torn tail.
  EXPECT_EQ(ReplayWal(log.str(), base, 5).status().code(),
            StatusCode::kFailedPrecondition);
  PrTree<2> other(Box2::UnitCube(2.0), options);
  EXPECT_EQ(ReplayWal(log.str(), other, 2).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(WalTest, PreAnchorHeadersStillReplay) {
  // Headers written before the anchor token existed have 8 tokens and are
  // implicitly anchored at 0.
  std::string text = "popan-wal v1 2 20 0 0 1 1\n";
  uint64_t checksum = WalChecksum(1, 'I', 0.5, 0.5);
  text += "1 I 0.5 0.5 " + std::to_string(checksum) + "\n";
  StatusOr<WalRecovery> recovery = ReplayWal(text);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->records_applied, 1u);
}

TEST(WalTest, TornTailIsDiscardedNotFatal) {
  std::ostringstream log;
  WalWriter writer(&log, Box2::UnitCube(), SmallOptions());
  ASSERT_TRUE(writer.LogInsert(Point2(0.1, 0.1)).ok());
  ASSERT_TRUE(writer.LogInsert(Point2(0.9, 0.9)).ok());
  std::string text = log.str();
  size_t full = text.size();
  // Simulate a crash mid-write: drop the last 10 characters.
  text.resize(text.size() - 10);
  StatusOr<WalRecovery> recovery = ReplayWal(text);
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->truncated_tail);
  EXPECT_EQ(recovery->records_applied, 1u);
  EXPECT_TRUE(recovery->tree.Contains(Point2(0.1, 0.1)));
  EXPECT_FALSE(recovery->tree.Contains(Point2(0.9, 0.9)));
  // The intact prefix ends exactly where the second record began.
  EXPECT_LT(recovery->valid_bytes, full - 10);
  StatusOr<WalRecovery> prefix =
      ReplayWal(text.substr(0, recovery->valid_bytes));
  ASSERT_TRUE(prefix.ok());
  EXPECT_FALSE(prefix->truncated_tail);
  EXPECT_EQ(prefix->records_applied, 1u);
}

TEST(WalTest, UnterminatedFinalRecordIsTorn) {
  // A record missing its newline is not durable even if every token is
  // present — the terminator is the commit marker.
  std::ostringstream log;
  WalWriter writer(&log, Box2::UnitCube(), SmallOptions());
  ASSERT_TRUE(writer.LogInsert(Point2(0.1, 0.1)).ok());
  std::string text = log.str();
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();
  StatusOr<WalRecovery> recovery = ReplayWal(text);
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->truncated_tail);
  EXPECT_EQ(recovery->truncation_reason, "torn record (no terminator)");
  EXPECT_EQ(recovery->records_applied, 0u);
}

TEST(WalTest, CrlfLineEndingsReplayIdentically) {
  std::ostringstream log;
  WalWriter writer(&log, Box2::UnitCube(), SmallOptions());
  ASSERT_TRUE(writer.LogInsert(Point2(0.1, 0.1)).ok());
  ASSERT_TRUE(writer.LogInsert(Point2(0.9, 0.9)).ok());
  std::string crlf;
  for (char c : log.str()) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  StatusOr<WalRecovery> recovery = ReplayWal(crlf);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_FALSE(recovery->truncated_tail) << recovery->truncation_reason;
  EXPECT_EQ(recovery->records_applied, 2u);
  EXPECT_EQ(recovery->valid_bytes, crlf.size());
}

TEST(WalTest, BlankLinesMidLogAreHarmless) {
  std::ostringstream log;
  WalWriter writer(&log, Box2::UnitCube(), SmallOptions());
  ASSERT_TRUE(writer.LogInsert(Point2(0.1, 0.1)).ok());
  std::string text = log.str() + "\n\n";
  std::ostringstream tail;
  WalWriter appender(&tail, Box2::UnitCube(), WalWriter::ResumeAt{2});
  ASSERT_TRUE(appender.LogInsert(Point2(0.9, 0.9)).ok());
  text += tail.str();
  StatusOr<WalRecovery> recovery = ReplayWal(text);
  ASSERT_TRUE(recovery.ok());
  EXPECT_FALSE(recovery->truncated_tail) << recovery->truncation_reason;
  EXPECT_EQ(recovery->records_applied, 2u);
  EXPECT_EQ(recovery->valid_bytes, text.size());
}

TEST(WalTest, CorruptChecksumStopsReplay) {
  std::ostringstream log;
  WalWriter writer(&log, Box2::UnitCube(), SmallOptions());
  ASSERT_TRUE(writer.LogInsert(Point2(0.1, 0.1)).ok());
  ASSERT_TRUE(writer.LogInsert(Point2(0.9, 0.9)).ok());
  std::string text = log.str();
  // Flip a digit of the second record's x coordinate; its checksum no
  // longer matches.
  size_t pos = text.rfind("0.9");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 2] = '8';
  StatusOr<WalRecovery> recovery = ReplayWal(text);
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->truncated_tail);
  EXPECT_EQ(recovery->truncation_reason, "checksum mismatch");
  EXPECT_EQ(recovery->records_applied, 1u);
}

TEST(WalTest, SequenceGapStopsReplay) {
  std::ostringstream log;
  WalWriter writer(&log, Box2::UnitCube(), SmallOptions());
  ASSERT_TRUE(writer.LogInsert(Point2(0.1, 0.1)).ok());
  // Hand-craft a record with sequence 5 (valid checksum, wrong sequence).
  uint64_t checksum = WalChecksum(5, 'I', 0.5, 0.5);
  std::string text = log.str() + "5 I 0.5 0.5 " +
                     std::to_string(checksum) + "\n";
  StatusOr<WalRecovery> recovery = ReplayWal(text);
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->truncated_tail);
  EXPECT_EQ(recovery->truncation_reason, "sequence gap");
}

TEST(WalTest, EraseOfMissingPointStopsReplayWithReason) {
  // An erase of a point that is not stored signals log/state divergence;
  // the truncation reason carries the underlying status.
  std::ostringstream log;
  WalWriter writer(&log, Box2::UnitCube(), SmallOptions());
  ASSERT_TRUE(writer.LogErase(Point2(0.5, 0.5)).ok());
  StatusOr<WalRecovery> recovery = ReplayWal(log.str());
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->truncated_tail);
  EXPECT_EQ(recovery->records_applied, 0u);
  EXPECT_NE(recovery->truncation_reason.find("record does not apply"),
            std::string::npos)
      << recovery->truncation_reason;
  EXPECT_NE(recovery->truncation_reason.find("NotFound"),
            std::string::npos)
      << recovery->truncation_reason;
}

TEST(WalTest, BadHeaderIsFatal) {
  EXPECT_FALSE(ReplayWal(std::string("nonsense\n")).ok());
  EXPECT_FALSE(ReplayWal(std::string("")).ok());
  EXPECT_FALSE(
      ReplayWal(std::string("popan-wal v1 0 20 0 0 1 1\n")).ok());
  EXPECT_FALSE(
      ReplayWal(std::string("popan-wal v1 2 20 1 0 0 1\n")).ok());
  // A header missing its newline is a torn header write, not a log.
  EXPECT_FALSE(ReplayWal(std::string("popan-wal v1 2 20 0 0 1 1 0")).ok());
  // Ten tokens is no known header shape.
  EXPECT_FALSE(
      ReplayWal(std::string("popan-wal v1 2 20 0 0 1 1 0 0\n")).ok());
}

TEST(WalTest, ChecksumIsContentSensitive) {
  uint64_t base = WalChecksum(1, 'I', 0.25, 0.75);
  EXPECT_NE(base, WalChecksum(2, 'I', 0.25, 0.75));
  EXPECT_NE(base, WalChecksum(1, 'E', 0.25, 0.75));
  EXPECT_NE(base, WalChecksum(1, 'I', 0.250001, 0.75));
  EXPECT_NE(base, WalChecksum(1, 'I', 0.25, 0.750001));
  EXPECT_EQ(base, WalChecksum(1, 'I', 0.25, 0.75));
}

TEST(WalTest, FullPrecisionSurvivesTheRoundTrip) {
  std::ostringstream log;
  WalWriter writer(&log, Box2::UnitCube(), SmallOptions());
  Point2 p(0.12345678901234567, 0.98765432109876543);
  ASSERT_TRUE(writer.LogInsert(p).ok());
  StatusOr<WalRecovery> recovery = ReplayWal(log.str());
  ASSERT_TRUE(recovery.ok());
  EXPECT_FALSE(recovery->truncated_tail) << recovery->truncation_reason;
  EXPECT_TRUE(recovery->tree.Contains(p));
}

TEST(WalTest, ExtremeCoordinatesRoundTrip) {
  // Denormals, signed zero and 17-digit worst cases must survive the
  // decimal round trip bit-for-bit (the checksum hashes the binary
  // doubles, so any rounding would read back as corruption).
  PrTreeOptions options;
  options.capacity = 2;
  options.max_depth = 40;
  Box2 bounds(Point2(-1.0, -1.0), Point2(1.0, 1.0));
  const std::vector<Point2> extremes = {
      Point2(4.9406564584124654e-324, 0.5),    // smallest denormal
      Point2(-4.9406564584124654e-324, -0.5),  // and its negation
      Point2(2.2250738585072014e-308, 2.2250738585072009e-308),
      Point2(0.0, -0.0),                       // signed zero pair
      Point2(0.1000000000000000055511151231257827, 0.3),
      Point2(0.99999999999999989, -0.99999999999999989),
  };
  std::ostringstream log;
  WalWriter writer(&log, bounds, options);
  for (const Point2& p : extremes) {
    ASSERT_TRUE(writer.LogInsert(p).ok()) << p.ToString();
  }
  StatusOr<WalRecovery> recovery = ReplayWal(log.str());
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_FALSE(recovery->truncated_tail) << recovery->truncation_reason;
  EXPECT_EQ(recovery->records_applied, extremes.size());
  for (const Point2& p : extremes) {
    EXPECT_TRUE(recovery->tree.Contains(p)) << p.ToString();
  }
}

TEST(WalTest, WriterDoesNotLeakStreamFormatting) {
  std::ostringstream log;
  WalWriter writer(&log, Box2::UnitCube(), SmallOptions());
  ASSERT_TRUE(writer.LogInsert(Point2(0.1, 0.1)).ok());
  // The default 6-digit rendering must still be in force after the
  // writer's precision-17 records.
  size_t before = log.str().size();
  log << 1.0 / 3.0;
  std::ostringstream expect;
  expect << 1.0 / 3.0;
  EXPECT_EQ(log.str().substr(before), expect.str());
}

// --- Record formatting, write runs, failed streams ------------------------

/// How records were rendered before the writer formatted them with
/// std::to_chars: `ostream << setprecision(17)`, kept as the reference the
/// new bytes must equal.
std::string StreamRendering(uint64_t seq, char op, double x, double y) {
  std::ostringstream out;  // a fresh stream: no format state leaks
  // popan-lint: allow(stream-format-guard)
  out << seq << " " << op << " " << std::setprecision(17) << x << " " << y
      << " " << WalChecksum(seq, op, x, y) << "\n";
  return out.str();
}

/// perfbench's tag coding: an owner and a serial in the low 28 mantissa
/// bits.
double TagCoord(double x, uint32_t owner, uint32_t serial) {
  constexpr uint64_t kMask = (uint64_t{1} << 28) - 1;
  uint64_t bits = std::bit_cast<uint64_t>(x);
  bits = (bits & ~kMask) | (uint64_t{owner} << 24) | serial;
  return std::bit_cast<double>(bits);
}

TEST(WalFormatTest, RecordsMatchTheStreamRendering) {
  const std::vector<double> specials = {
      0.0, -0.0, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), 2.2250738585072009e-308,
      std::numeric_limits<double>::min(), 1e-310, 0.1, 1.0 / 3.0,
      1.0 - 0x1.0p-53, 1e-05, -1e-05, 1e+16, -1e+16, 123456789012345680.0,
      0.5, 1e-4, 9.999999999999999e-05, 1e15, 0.30000000000000004};
  std::vector<Point2> points;
  for (double x : specials) {
    for (double y : {0.0, x, -0.25}) points.emplace_back(x, y);
  }
  Pcg32 rng(1987);
  for (int i = 0; i < 4000; ++i) {
    const int exponent = static_cast<int>(rng.NextBounded(36)) - 20;
    points.emplace_back((rng.NextDouble() - 0.5) * std::pow(10.0, exponent),
                        rng.NextDouble());
    const uint32_t owner = rng.NextBounded(16);
    const uint32_t serial = rng.NextBounded(1u << 24);
    points.emplace_back(TagCoord(rng.NextDouble(), owner, serial),
                        TagCoord(rng.NextDouble(), 15, i));
  }
  const Box2 bounds(Point2(-1e18, -1e18), Point2(1e18, 1e18));
  std::ostringstream log;
  WalWriter writer(&log, bounds, SmallOptions());
  std::vector<std::string> want;
  for (size_t i = 0; i < points.size(); ++i) {
    const Point2& p = points[i];
    const char op = i % 3 == 2 ? 'E' : 'I';
    StatusOr<uint64_t> seq =
        op == 'I' ? writer.LogInsert(p) : writer.LogErase(p);
    ASSERT_TRUE(seq.ok()) << p.ToString();
    want.push_back(StreamRendering(seq.value(), op, p.x(), p.y()));
  }
  std::istringstream got(log.str());
  std::string line;
  ASSERT_TRUE(std::getline(got, line));  // the header
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(std::getline(got, line));
    EXPECT_EQ(line + "\n", want[i]) << "record " << i;
  }
  EXPECT_FALSE(std::getline(got, line));
}

/// A string stream that counts flushes.
class CountingBuf : public std::stringbuf {
 public:
  int syncs = 0;

 protected:
  int sync() override {
    ++syncs;
    return std::stringbuf::sync();
  }
};

TEST(WalFormatTest, RunFlushesOnceWithTheSameBytes) {
  CountingBuf per_op_buf;
  CountingBuf run_buf;
  std::ostream per_op_out(&per_op_buf);
  std::ostream run_out(&run_buf);
  WalWriter per_op(&per_op_out, Box2::UnitCube(), SmallOptions());
  WalWriter run(&run_out, Box2::UnitCube(), SmallOptions());
  Pcg32 rng(5);
  const int before = run_buf.syncs;
  run.BeginRun();
  for (int i = 0; i < 100; ++i) {
    Point2 p(rng.NextDouble(), rng.NextDouble());
    ASSERT_EQ(ValueOrDie(per_op.LogInsert(p)), ValueOrDie(run.LogInsert(p)));
  }
  EXPECT_EQ(run_buf.syncs, before);
  ASSERT_TRUE(run.EndRun().ok());
  EXPECT_EQ(run_buf.syncs, before + 1);
  EXPECT_GE(per_op_buf.syncs, 100);
  EXPECT_EQ(run_buf.str(), per_op_buf.str());
  // Outside a run every record is flushed again.
  ASSERT_TRUE(run.LogErase(Point2(0.5, 0.5)).ok());
  EXPECT_EQ(run_buf.syncs, before + 2);
}

TEST(WalFormatTest, FailedStreamIsAnError) {
  RejectingStreambuf buf;
  std::ostream out(&buf);
  WalWriter writer(&out, Box2::UnitCube(), SmallOptions());
  ASSERT_TRUE(writer.LogInsert(Point2(0.1, 0.1)).ok());
  buf.rejecting = true;
  StatusOr<uint64_t> lost = writer.LogInsert(Point2(0.2, 0.2));
  EXPECT_EQ(lost.status().code(), StatusCode::kInternal);
}

TEST(WalFormatTest, FailedRunFlushIsAnError) {
  RejectingStreambuf buf;
  std::ostream out(&buf);
  WalWriter writer(&out, Box2::UnitCube(), SmallOptions());
  writer.BeginRun();
  ASSERT_TRUE(writer.LogInsert(Point2(0.1, 0.1)).ok());
  buf.rejecting = true;
  // The record sits in the buffer; the run's flush is what fails.
  ASSERT_TRUE(writer.LogInsert(Point2(0.2, 0.2)).ok());
  EXPECT_EQ(writer.EndRun().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace popan::spatial
