// ServerCore: frame pipelining, write/notify routing, WAL lockstep,
// snapshot-isolated reads, recovery seeding, and run-parallel reads.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "geometry/point.h"
#include "server/cow_store.h"
#include "server/protocol.h"
#include "server/server_core.h"
#include "server/shard_store.h"
#include "shard/router.h"
#include "sim/thread_pool.h"
#include "spatial/epoch.h"
#include "spatial/pr_tree.h"
#include "spatial/wal.h"
#include "testing/rejecting_streambuf.h"
#include "testing/server_testing.h"
#include "testing/statusor_testing.h"
#include "util/random.h"
#include "util/status.h"

namespace popan::server {
namespace {

using geo::Box2;
using geo::Point2;
using popan::ValueOrDie;

Box2 UnitDomain() { return Box2(Point2(0.0, 0.0), Point2(1.0, 1.0)); }

spatial::PrTreeOptions SmallTree() {
  spatial::PrTreeOptions options;
  options.capacity = 2;
  options.max_depth = 12;
  return options;
}

Request Insert(double x, double y) {
  Request r;
  r.type = MsgType::kInsert;
  r.point = Point2(x, y);
  return r;
}

Request Range(const Box2& box) {
  Request r;
  r.type = MsgType::kRange;
  r.box = box;
  return r;
}

TEST(ServerCoreTest, PipelinedBurstAnsweredInOrder) {
  ServerCore core(std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree()));
  uint64_t client = core.OpenClient();
  Request census;
  census.type = MsgType::kCensus;
  // One burst: three inserts, a duplicate, a range, a census.
  std::string burst = Frame(Insert(0.1, 0.1)) + Frame(Insert(0.2, 0.2)) +
                      Frame(Insert(0.8, 0.8)) + Frame(Insert(0.1, 0.1)) +
                      Frame(Range(Box2(Point2(0.0, 0.0),
                                       Point2(0.5, 0.5)))) +
                      Frame(census);
  ASSERT_TRUE(core.ConsumeBytes(client, burst).ok());
  std::vector<OutFrame> frames = DrainFrames(&core, client);
  ASSERT_EQ(frames.size(), 6u);
  EXPECT_EQ(frames[0].response.sequence, 1u);
  EXPECT_EQ(frames[1].response.sequence, 2u);
  EXPECT_EQ(frames[2].response.sequence, 3u);
  EXPECT_EQ(frames[3].response.status,
            static_cast<uint8_t>(StatusCode::kAlreadyExists));
  EXPECT_EQ(frames[4].response.points.size(), 2u);
  EXPECT_EQ(frames[5].response.size, 3u);
  EXPECT_EQ(frames[5].response.sequence, 3u);
  // The burst is fully drained; nothing left.
  EXPECT_TRUE(core.TakeOutput(client).empty());
  EXPECT_TRUE(core.ClientsWithOutput().empty());
}

TEST(ServerCoreTest, SplitFrameAcrossConsumeCalls) {
  ServerCore core(std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree()));
  uint64_t client = core.OpenClient();
  std::string frame = Frame(Insert(0.3, 0.7));
  // Deliver byte by byte: no response until the frame completes.
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    ASSERT_TRUE(
        core.ConsumeBytes(client, std::string_view(&frame[i], 1)).ok());
    EXPECT_TRUE(core.TakeOutput(client).empty());
  }
  ASSERT_TRUE(
      core.ConsumeBytes(client, std::string_view(&frame.back(), 1)).ok());
  std::vector<OutFrame> frames = DrainFrames(&core, client);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].response.sequence, 1u);
}

TEST(ServerCoreTest, MalformedPayloadKeepsStreamAlive) {
  ServerCore core(std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree()));
  uint64_t client = core.OpenClient();
  // A syntactically framed but semantically broken payload (truncated
  // insert body), followed by a valid ping in the same burst.
  std::string bad_payload;
  AppendU8(&bad_payload, static_cast<uint8_t>(MsgType::kInsert));
  AppendF64(&bad_payload, 0.5);
  std::string bad_frame;
  AppendU32(&bad_frame, static_cast<uint32_t>(bad_payload.size()));
  bad_frame += bad_payload;
  Request ping;
  ping.type = MsgType::kPing;
  ASSERT_TRUE(core.ConsumeBytes(client, bad_frame + Frame(ping)).ok());
  std::vector<OutFrame> frames = DrainFrames(&core, client);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].response.status,
            static_cast<uint8_t>(StatusCode::kInvalidArgument));
  EXPECT_EQ(frames[0].response.type, ResponseTypeFor(MsgType::kInsert));
  EXPECT_EQ(frames[1].response.status, 0);
  EXPECT_EQ(frames[1].response.type, ResponseTypeFor(MsgType::kPing));
}

TEST(ServerCoreTest, UndecodableTypeByteIsAnsweredWithAResponse) {
  // Answering with `type | 0x80` turned 0x40 and 0xC0 into 0xC0, the
  // notification type, which clients file as a notification: their
  // response count fell one short.
  ServerCore core(std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree()));
  uint64_t client = core.OpenClient();
  Request ping;
  ping.type = MsgType::kPing;
  for (int type : {-1, 0x00, 0x40, 0x7f, 0x84, 0xc0, 0xff}) {
    std::string payload;  // type -1: an empty payload
    if (type >= 0) AppendU8(&payload, static_cast<uint8_t>(type));
    std::string bad_frame;
    AppendU32(&bad_frame, static_cast<uint32_t>(payload.size()));
    bad_frame += payload;
    ASSERT_TRUE(core.ConsumeBytes(client, bad_frame + Frame(ping)).ok());
    std::string out = core.TakeOutput(client);
    std::vector<std::string_view> frames;
    size_t offset = 0;
    std::string_view view;
    Status error;
    while (NextFrame(out, &offset, &view, &error)) frames.push_back(view);
    ASSERT_EQ(frames.size(), 2u) << "type " << type;
    StatusOr<Response> answer = DecodeResponsePayload(frames[0]);
    ASSERT_TRUE(answer.ok()) << "type " << type << ": "
                             << answer.status().ToString();
    EXPECT_EQ(answer.value().status,
              static_cast<uint8_t>(StatusCode::kInvalidArgument))
        << "type " << type;
    StatusOr<Response> pong = DecodeResponsePayload(frames[1]);
    ASSERT_TRUE(pong.ok()) << "type " << type;
    EXPECT_EQ(pong.value().type, ResponseTypeFor(MsgType::kPing));
    EXPECT_EQ(pong.value().status, 0);
  }
}

TEST(ServerCoreTest, OversizedFramePoisonsTheConnection) {
  ServerCore core(std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree()));
  uint64_t client = core.OpenClient();
  std::string poison;
  AppendU32(&poison, kMaxPayloadBytes + 1);
  EXPECT_EQ(core.ConsumeBytes(client, poison).code(),
            StatusCode::kInvalidArgument);
}

TEST(ServerCoreTest, NotificationsRouteToSubscribersOnly) {
  ServerCore core(std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree()));
  uint64_t watcher = core.OpenClient();
  uint64_t writer = core.OpenClient();
  Request subscribe;
  subscribe.type = MsgType::kSubscribe;
  subscribe.box = Box2(Point2(0.0, 0.0), Point2(0.5, 0.5));
  ASSERT_TRUE(core.ConsumeBytes(watcher, Frame(subscribe)).ok());
  std::vector<OutFrame> frames = DrainFrames(&core, watcher);
  ASSERT_EQ(frames.size(), 1u);
  uint64_t sub_id = frames[0].response.sub_id;
  EXPECT_GT(sub_id, 0u);

  // Writer inserts one point inside the watched box and one outside,
  // then erases the inside one.
  Request erase = Insert(0.25, 0.25);
  erase.type = MsgType::kErase;
  ASSERT_TRUE(core.ConsumeBytes(writer, Frame(Insert(0.25, 0.25)) +
                                            Frame(Insert(0.75, 0.75)) +
                                            Frame(erase))
                  .ok());
  std::vector<OutFrame> writer_frames = DrainFrames(&core, writer);
  ASSERT_EQ(writer_frames.size(), 3u);
  for (const OutFrame& f : writer_frames) {
    EXPECT_FALSE(f.is_notification);  // writer has no subscription
    EXPECT_EQ(f.response.status, 0);
  }
  std::vector<OutFrame> watcher_frames = DrainFrames(&core, watcher);
  ASSERT_EQ(watcher_frames.size(), 2u);
  EXPECT_TRUE(watcher_frames[0].is_notification);
  EXPECT_EQ(watcher_frames[0].notification.sub_id, sub_id);
  EXPECT_EQ(watcher_frames[0].notification.op, 'I');
  EXPECT_EQ(watcher_frames[0].notification.point.x(), 0.25);
  EXPECT_EQ(watcher_frames[0].notification.sequence, 1u);
  EXPECT_EQ(watcher_frames[1].notification.op, 'E');
  EXPECT_EQ(watcher_frames[1].notification.sequence, 3u);
  EXPECT_EQ(core.notifications_sent(), 2u);
}

TEST(ServerCoreTest, SelfNotificationAndBatchWrites) {
  ServerCore core(std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree()));
  uint64_t client = core.OpenClient();
  Request subscribe;
  subscribe.type = MsgType::kSubscribe;
  subscribe.box = Box2(Point2(0.0, 0.0), Point2(1.0, 1.0));
  Request batch;
  batch.type = MsgType::kInsertBatch;
  batch.batch = {Point2(0.1, 0.1), Point2(0.1, 0.1), Point2(0.9, 0.9)};
  ASSERT_TRUE(
      core.ConsumeBytes(client, Frame(subscribe) + Frame(batch)).ok());
  std::vector<OutFrame> frames = DrainFrames(&core, client);
  // subscribe response, two insert notifications (duplicate is silent),
  // then the batch response.
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_FALSE(frames[0].is_notification);
  EXPECT_TRUE(frames[1].is_notification);
  EXPECT_TRUE(frames[2].is_notification);
  EXPECT_FALSE(frames[3].is_notification);
  EXPECT_EQ(frames[3].response.inserted, 2u);
  EXPECT_EQ(frames[3].response.duplicates, 1u);
  EXPECT_EQ(frames[3].response.rejected, 0u);
  EXPECT_EQ(frames[3].response.sequence, 2u);
}

TEST(ServerCoreTest, UnsubscribeRequiresOwnership) {
  ServerCore core(std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree()));
  uint64_t owner = core.OpenClient();
  uint64_t thief = core.OpenClient();
  Request subscribe;
  subscribe.type = MsgType::kSubscribe;
  subscribe.box = Box2(Point2(0.0, 0.0), Point2(0.5, 0.5));
  ASSERT_TRUE(core.ConsumeBytes(owner, Frame(subscribe)).ok());
  uint64_t sub_id = DrainFrames(&core, owner)[0].response.sub_id;

  Request unsubscribe;
  unsubscribe.type = MsgType::kUnsubscribe;
  unsubscribe.sub_id = sub_id;
  ASSERT_TRUE(core.ConsumeBytes(thief, Frame(unsubscribe)).ok());
  EXPECT_EQ(DrainFrames(&core, thief)[0].response.status,
            static_cast<uint8_t>(StatusCode::kNotFound));
  // Still live: the owner can drop it.
  EXPECT_EQ(core.subscriptions().live_count(), 1u);
  ASSERT_TRUE(core.ConsumeBytes(owner, Frame(unsubscribe)).ok());
  EXPECT_EQ(DrainFrames(&core, owner)[0].response.status, 0);
  EXPECT_EQ(core.subscriptions().live_count(), 0u);
}

TEST(ServerCoreTest, CloseClientDropsItsSubscriptions) {
  ServerCore core(std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree()));
  uint64_t watcher = core.OpenClient();
  uint64_t writer = core.OpenClient();
  Request subscribe;
  subscribe.type = MsgType::kSubscribe;
  subscribe.box = Box2(Point2(0.0, 0.0), Point2(1.0, 1.0));
  ASSERT_TRUE(core.ConsumeBytes(watcher, Frame(subscribe)).ok());
  (void)DrainFrames(&core, watcher);
  ASSERT_TRUE(core.CloseClient(watcher).ok());
  EXPECT_EQ(core.subscriptions().live_count(), 0u);
  ASSERT_TRUE(core.ConsumeBytes(writer, Frame(Insert(0.5, 0.5))).ok());
  EXPECT_EQ(core.notifications_sent(), 0u);
  // Double close is an error, not a crash.
  EXPECT_EQ(core.CloseClient(watcher).code(), StatusCode::kNotFound);
}

TEST(ServerCoreTest, OutOfBoundsAndNonFiniteWritesAreRejected) {
  ServerCore core(std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree()));
  uint64_t client = core.OpenClient();
  Request outside = Insert(1.5, 0.5);
  Request nan_point = Insert(0.5, 0.5);
  nan_point.point = Point2(std::numeric_limits<double>::quiet_NaN(), 0.5);
  ASSERT_TRUE(core.ConsumeBytes(client, Frame(outside) + Frame(nan_point))
                  .ok());
  std::vector<OutFrame> frames = DrainFrames(&core, client);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_NE(frames[0].response.status, 0);
  EXPECT_NE(frames[1].response.status, 0);
  EXPECT_EQ(core.size(), 0u);
  EXPECT_EQ(core.sequence(), 0u);  // rejected writes consume no sequence
}

TEST(ServerCoreTest, PreparedReadSeesItsSnapshotNotLaterWrites) {
  ServerCore core(std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree()));
  uint64_t client = core.OpenClient();
  ASSERT_TRUE(core.ConsumeBytes(client, Frame(Insert(0.2, 0.2))).ok());
  (void)DrainFrames(&core, client);
  const Request all = Range(Box2(Point2(0.0, 0.0), Point2(1.0, 1.0)));
  std::unique_ptr<const ReadView> pinned = ValueOrDie(Pin(core));
  // Writes that land after the pin must be invisible to the read.
  ASSERT_TRUE(core.ConsumeBytes(client, Frame(Insert(0.4, 0.4)) +
                                            Frame(Insert(0.6, 0.6)))
                  .ok());
  (void)DrainFrames(&core, client);
  Response response = pinned->Complete(all);
  EXPECT_EQ(response.status, 0);
  EXPECT_EQ(response.points.size(), 1u);
  EXPECT_EQ(response.sequence, 1u);
  // A fresh read sees everything.
  EXPECT_EQ(Ask(&core, client, all).points.size(), 3u);
}

TEST(ServerCoreTest, OneViewPredictsAllItsReadsFromOneCostModel) {
  // A pinned view serves a whole read run, completed by several threads at
  // once, and builds its cost model once. Every predicted_nodes must equal,
  // bit for bit, the answer of a view pinned for that read alone.
  ServerCore core(std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree()));
  uint64_t client = core.OpenClient();
  Pcg32 rng(17);
  std::string inserts;
  for (int i = 0; i < 300; ++i) {
    inserts += Frame(Insert(rng.NextDouble(), rng.NextDouble()));
  }
  ASSERT_TRUE(core.ConsumeBytes(client, inserts).ok());
  (void)DrainFrames(&core, client);
  std::vector<Request> reads;
  for (int i = 0; i < 64; ++i) {
    if (i % 4 == 3) {
      Request r;
      r.type = MsgType::kPartialMatch;
      r.axis = static_cast<uint8_t>(i % 2);
      r.value = rng.NextDouble();
      reads.push_back(r);
    } else {
      const double x = rng.NextDouble(0.0, 0.7);
      const double y = rng.NextDouble(0.0, 0.7);
      const double side = rng.NextDouble(0.01, 0.3);
      reads.push_back(Range(Box2(Point2(x, y), Point2(x + side, y + side))));
    }
  }
  std::vector<uint64_t> expected;
  for (const Request& r : reads) {
    const Response alone = ValueOrDie(Pin(core))->Complete(r);
    ASSERT_GT(alone.predicted_nodes, 0.0);
    expected.push_back(std::bit_cast<uint64_t>(alone.predicted_nodes));
  }
  const std::unique_ptr<const ReadView> shared = ValueOrDie(Pin(core));
  std::vector<uint64_t> got(reads.size());
  sim::ThreadPool pool(3);
  pool.ParallelFor(reads.size(), [&](size_t i) {
    got[i] =
        std::bit_cast<uint64_t>(shared->Complete(reads[i]).predicted_nodes);
  });
  EXPECT_EQ(got, expected);
}

TEST(ServerCoreTest, WalStaysInLockstepAndReplays) {
  std::ostringstream log;
  spatial::PrTreeOptions options = SmallTree();
  {
    spatial::WalWriter wal(&log, UnitDomain(), options);
    ServerCore core(
        std::make_unique<CowTreeBackend>(UnitDomain(), options, &wal));
    uint64_t client = core.OpenClient();
    Request erase = Insert(0.25, 0.75);
    erase.type = MsgType::kErase;
    ASSERT_TRUE(core.ConsumeBytes(client, Frame(Insert(0.25, 0.75)) +
                                              Frame(Insert(0.5, 0.5)) +
                                              Frame(erase))
                    .ok());
    (void)DrainFrames(&core, client);
    EXPECT_EQ(core.sequence(), 3u);
    EXPECT_EQ(wal.next_sequence(), 4u);
    // Rejected writes must not burn WAL sequence numbers either.
    ASSERT_TRUE(core.ConsumeBytes(client, Frame(Insert(2.0, 2.0))).ok());
    EXPECT_EQ(wal.next_sequence(), 4u);
  }
  spatial::WalRecovery recovery = ValueOrDie(spatial::ReplayWal(log.str()));
  EXPECT_EQ(recovery.last_sequence, 3u);
  EXPECT_EQ(recovery.records_applied, 3u);
  EXPECT_EQ(recovery.tree.size(), 1u);
  EXPECT_FALSE(recovery.truncated_tail);
}

TEST(ServerCoreTest, SeedPointsRebuildRecoveredState) {
  // Simulate a restart: 5 ops happened (4 inserts, 1 erase), 3 points
  // survive. The recovered core must answer queries over the survivors
  // and stamp new writes with sequence 6.
  std::vector<Point2> survivors = {Point2(0.1, 0.1), Point2(0.5, 0.5),
                                   Point2(0.9, 0.9)};
  ServerCore core(std::make_unique<CowTreeBackend>(
      UnitDomain(), SmallTree(), /*wal=*/nullptr,
      /*initial_sequence=*/5, survivors));
  EXPECT_EQ(core.sequence(), 5u);
  EXPECT_EQ(core.size(), 3u);
  uint64_t client = core.OpenClient();
  ASSERT_TRUE(core.ConsumeBytes(client, Frame(Insert(0.3, 0.3))).ok());
  std::vector<OutFrame> frames = DrainFrames(&core, client);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].response.sequence, 6u);
  EXPECT_EQ(Ask(&core, client, Range(Box2(Point2(0.0, 0.0),
                                          Point2(1.0, 1.0))))
                .points.size(),
            4u);
}

TEST(ServerCoreTest, CensusAndKnnOverPipelinedState) {
  ServerCore core(std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree()));
  uint64_t client = core.OpenClient();
  std::string burst;
  for (int i = 0; i < 8; ++i) {
    burst += Frame(Insert(0.1 + 0.1 * i, 0.05 + 0.1 * i));
  }
  Request knn;
  knn.type = MsgType::kNearestK;
  knn.point = Point2(0.1, 0.05);
  knn.k = 3;
  Request census;
  census.type = MsgType::kCensus;
  burst += Frame(knn) + Frame(census);
  ASSERT_TRUE(core.ConsumeBytes(client, burst).ok());
  std::vector<OutFrame> frames = DrainFrames(&core, client);
  ASSERT_EQ(frames.size(), 10u);
  const Response& knn_response = frames[8].response;
  EXPECT_EQ(knn_response.status, 0);
  ASSERT_EQ(knn_response.points.size(), 3u);
  EXPECT_EQ(knn_response.points[0].x(), 0.1);  // the query point itself
  const Response& census_response = frames[9].response;
  EXPECT_EQ(census_response.size, 8u);
  EXPECT_GT(census_response.leaf_count, 0u);
}

// --- Run-parallel reads ----------------------------------------------------

/// Threads in this process, from /proc/self/status.
size_t ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  ADD_FAILURE() << "no Threads: line in /proc/self/status";
  return 0;
}

/// A CowTreeBackend that counts the pins it hands out.
class CountingBackend final : public StoreBackend {
 public:
  explicit CountingBackend(size_t* pins)
      : inner_(UnitDomain(), SmallTree()), pins_(pins) {}

  const Box2& bounds() const override { return inner_.bounds(); }
  uint64_t sequence() const override { return inner_.sequence(); }
  size_t size() const override { return inner_.size(); }
  [[nodiscard]] StatusOr<uint64_t> ApplyInsert(const Point2& p) override {
    return inner_.ApplyInsert(p);
  }
  [[nodiscard]] StatusOr<uint64_t> ApplyErase(const Point2& p) override {
    return inner_.ApplyErase(p);
  }
  [[nodiscard]] StatusOr<std::unique_ptr<const ReadView>> PrepareRead()
      const override {
    ++*pins_;
    return inner_.PrepareRead();
  }

 private:
  CowTreeBackend inner_;
  size_t* pins_;
};

Point2 RandomPoint(Pcg32* rng) {
  return Point2(rng->NextDouble(), rng->NextDouble());
}

Box2 RandomBox(Pcg32* rng, double max_side) {
  Point2 lo = RandomPoint(rng);
  return Box2(lo, Point2(std::min(1.0, lo.x() + max_side * rng->NextDouble()),
                         std::min(1.0, lo.y() + max_side * rng->NextDouble())));
}

/// How a burst draws its frames.
enum class Mix { kReadHeavy, kWriteHeavy, kEven };

/// One seeded request frame. Read-heavy bursts draw reads 80% of the
/// time and write-heavy bursts draw writes 80% of the time, so runs of
/// consecutive reads and of consecutive writes are common; otherwise
/// every kind is drawn: writes (single, some out of bounds; 8-point
/// batch, some with a NaN point; erase of an earlier point),
/// subscription control, pings, and malformed payloads (a truncated
/// range body, which reads as a read type, and an unknown type).
std::string RandomFrame(Pcg32* rng, Mix mix, std::vector<Point2>* written,
                        uint64_t* subscribes) {
  uint32_t roll = rng->NextBounded(100);
  if (mix == Mix::kReadHeavy && rng->NextBounded(10) < 8) {
    roll = rng->NextBounded(50);
  } else if (mix == Mix::kWriteHeavy && rng->NextBounded(10) < 8) {
    roll = 50 + rng->NextBounded(28);
  }
  Request r;
  if (roll < 25) {
    r.type = MsgType::kRange;
    r.box = RandomBox(rng, 0.4);
  } else if (roll < 37) {
    r.type = MsgType::kNearestK;
    r.point = RandomPoint(rng);
    r.k = 1 + rng->NextBounded(16);
  } else if (roll < 45) {
    r.type = MsgType::kPartialMatch;
    r.axis = static_cast<uint8_t>(rng->NextBounded(2));
    r.value = rng->NextDouble();
  } else if (roll < 50) {
    r.type = MsgType::kCensus;
  } else if (roll < 64) {
    r.type = MsgType::kInsert;
    r.point = RandomPoint(rng);
    if (roll == 63) r.point[0] += 1.0;  // out of bounds: OutOfRange
    written->push_back(r.point);
  } else if (roll < 69) {
    r.type = MsgType::kInsertBatch;
    for (int i = 0; i < 8; ++i) {
      r.batch.push_back(RandomPoint(rng));
      written->push_back(r.batch.back());
    }
    if (roll == 68) {
      r.batch.push_back(Point2(std::numeric_limits<double>::quiet_NaN(), 0.5));
    }
  } else if (roll < 78) {
    // Erase an earlier point; it may already be gone (NotFound).
    r.type = MsgType::kErase;
    r.point = written->empty()
                  ? RandomPoint(rng)
                  : (*written)[rng->NextBounded(
                        static_cast<uint32_t>(written->size()))];
  } else if (roll < 84) {
    r.type = MsgType::kSubscribe;
    r.box = RandomBox(rng, 0.6);
    ++*subscribes;
  } else if (roll < 88) {
    // Ids are handed out from 1; this one may be dead or someone else's.
    r.type = MsgType::kUnsubscribe;
    r.sub_id = 1 + rng->NextBounded(static_cast<uint32_t>(*subscribes + 1));
  } else if (roll < 92) {
    r.type = MsgType::kPing;
  } else {
    std::string payload;
    AppendU8(&payload,
             roll < 96 ? static_cast<uint8_t>(MsgType::kRange) : 0x7f);
    AppendF64(&payload, 0.5);
    std::string frame;
    AppendU32(&frame, static_cast<uint32_t>(payload.size()));
    return frame + payload;
  }
  return Frame(r);
}

/// Drives `core` with `bursts` seeded pipelined bursts spread over
/// `clients` clients. Each burst reaches the core in two ConsumeBytes
/// calls cut at a random byte offset, or with `frame_per_call` in one
/// call per frame. Returns every client's output bytes, concatenated in
/// the order the client could read them.
std::vector<std::string> RunBursts(ServerCore* core, uint64_t seed,
                                   size_t clients, size_t bursts,
                                   bool frame_per_call = false) {
  Pcg32 rng(seed);
  std::vector<uint64_t> ids;
  for (size_t c = 0; c < clients; ++c) ids.push_back(core->OpenClient());
  std::vector<std::string> out(clients);
  std::vector<Point2> written;
  uint64_t subscribes = 0;
  for (size_t b = 0; b < bursts; ++b) {
    size_t c = rng.NextBounded(static_cast<uint32_t>(clients));
    Mix mix = static_cast<Mix>(rng.NextBounded(3));
    std::vector<std::string> frames;
    std::string burst;
    for (uint32_t n = 1 + rng.NextBounded(24); n > 0; --n) {
      frames.push_back(RandomFrame(&rng, mix, &written, &subscribes));
      burst += frames.back();
    }
    size_t cut = rng.NextBounded(static_cast<uint32_t>(burst.size() + 1));
    if (frame_per_call) {
      for (const std::string& frame : frames) {
        EXPECT_TRUE(core->ConsumeBytes(ids[c], frame).ok());
      }
    } else {
      EXPECT_TRUE(core->ConsumeBytes(ids[c], burst.substr(0, cut)).ok());
      EXPECT_TRUE(core->ConsumeBytes(ids[c], burst.substr(cut)).ok());
    }
    for (size_t k = 0; k < clients; ++k) out[k] += core->TakeOutput(ids[k]);
  }
  core->WaitForReads();
  for (size_t k = 0; k < clients; ++k) out[k] += core->TakeOutput(ids[k]);
  return out;
}

TEST(ServerCoreTest, ReadRunsMatchSerialBytesAtAnyThreadCount) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    std::vector<std::string> serial;
    for (size_t threads : {0, 1, 3}) {
      size_t idle = ThreadCount();
      ServerCore core(std::make_unique<CowTreeBackend>(UnitDomain(),
                                                       SmallTree()),
                      threads);
      std::vector<std::string> out = RunBursts(&core, seed, 3, 60);
      // Read threads started: some burst carried a run of reads.
      EXPECT_EQ(ThreadCount() > idle, threads > 0) << "seed " << seed;
      if (threads == 0) {
        serial = std::move(out);
        EXPECT_GT(core.notifications_sent(), 0u) << "seed " << seed;
        continue;
      }
      for (size_t c = 0; c < serial.size(); ++c) {
        EXPECT_TRUE(out[c] == serial[c])
            << "seed " << seed << " threads " << threads << " client " << c;
      }
    }
  }
}

TEST(ServerCoreTest, ShardedReadRunsMatchSerialBytesAcrossSplits) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    std::vector<std::string> serial;
    for (size_t threads : {0, 1, 3}) {
      shard::RouterOptions options;
      options.tree = SmallTree();
      options.rebalance.enabled = true;
      options.rebalance.split_cost = 3.0;
      options.rebalance.merge_cost = 1.0;
      options.rebalance.min_split_points = 16;
      options.rebalance.check_interval = 8;
      options.rebalance.max_shards = 16;
      auto router =
          std::make_unique<shard::ShardRouter>(UnitDomain(), options);
      shard::ShardRouter* raw = router.get();
      size_t idle = ThreadCount();
      ServerCore core(std::make_unique<ShardStoreBackend>(std::move(router)),
                      threads);
      std::vector<std::string> out = RunBursts(&core, seed, 3, 60);
      EXPECT_GT(raw->splits(), 0u) << "seed " << seed;
      EXPECT_EQ(ThreadCount() > idle, threads > 0) << "seed " << seed;
      if (threads == 0) {
        serial = std::move(out);
        continue;
      }
      for (size_t c = 0; c < serial.size(); ++c) {
        EXPECT_TRUE(out[c] == serial[c])
            << "seed " << seed << " threads " << threads << " client " << c;
      }
    }
  }
}

TEST(ServerCoreTest, PipelinedReadRunTakesOnePin) {
  for (size_t threads : {0, 3}) {
    size_t pins = 0;
    ServerCore core(std::make_unique<CountingBackend>(&pins), threads);
    uint64_t client = core.OpenClient();
    ASSERT_TRUE(core.ConsumeBytes(client, Frame(Insert(0.25, 0.5)) +
                                              Frame(Insert(0.75, 0.5)))
                    .ok());
    (void)DrainFrames(&core, client);
    std::string burst;
    for (int i = 0; i < 200; ++i) {
      burst += Frame(Range(Box2(Point2(0.0, 0.0), Point2(0.5, 1.0))));
    }
    ASSERT_TRUE(core.ConsumeBytes(client, burst).ok());
    std::vector<OutFrame> frames = DrainFrames(&core, client);
    ASSERT_EQ(frames.size(), 200u);
    for (const OutFrame& frame : frames) {
      EXPECT_EQ(frame.response.status, 0);
      ASSERT_EQ(frame.response.points.size(), 1u);
    }
    EXPECT_EQ(pins, 1u) << threads << " threads";
  }
}

TEST(ServerCoreTest, ReadRunWithNoFreeReaderSlotShedsEachRead) {
  ServerCore core(std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree()),
                  3);
  uint64_t client = core.OpenClient();
  std::vector<std::unique_ptr<const ReadView>> held;
  for (int i = 0; i < 1000; ++i) {
    StatusOr<std::unique_ptr<const ReadView>> pinned = Pin(core);
    if (!pinned.ok()) break;
    held.push_back(std::move(pinned).value());
  }
  Request census;
  census.type = MsgType::kCensus;
  std::string run = Frame(census) + Frame(Range(UnitDomain())) +
                    Frame(census);
  ASSERT_TRUE(core.ConsumeBytes(client, run).ok());
  std::vector<OutFrame> shed = DrainFrames(&core, client);
  ASSERT_EQ(shed.size(), 3u);
  for (const OutFrame& frame : shed) {
    EXPECT_EQ(frame.response.status,
              static_cast<uint8_t>(StatusCode::kResourceExhausted));
  }
  held.clear();
  ASSERT_TRUE(core.ConsumeBytes(client, run).ok());
  for (const OutFrame& frame : DrainFrames(&core, client)) {
    EXPECT_EQ(frame.response.status, 0);
  }
}

TEST(ServerCoreTest, ReadThreadsStartOnlyForARunOfReads) {
  size_t before = ThreadCount();
  ServerCore core(std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree()),
                  3);
  uint64_t client = core.OpenClient();
  Request census;
  census.type = MsgType::kCensus;
  Request batch;
  batch.type = MsgType::kInsertBatch;
  batch.batch = {Point2(0.1, 0.2), Point2(0.3, 0.4)};
  // Writes and single reads, each read between two writes or alone.
  ASSERT_TRUE(core.ConsumeBytes(client, Frame(Insert(0.5, 0.5)) +
                                            Frame(census) + Frame(batch) +
                                            Frame(Range(UnitDomain())) +
                                            Frame(Insert(0.6, 0.6)))
                  .ok());
  ASSERT_TRUE(core.ConsumeBytes(client, Frame(census)).ok());
  EXPECT_EQ(DrainFrames(&core, client).size(), 6u);
  EXPECT_EQ(ThreadCount(), before);
  // Two reads back to back form a run: the pool starts.
  ASSERT_TRUE(
      core.ConsumeBytes(client, Frame(census) + Frame(Range(UnitDomain())))
          .ok());
  EXPECT_EQ(DrainFrames(&core, client).size(), 2u);
  EXPECT_GE(ThreadCount(), before + 3);
}

// --- Runs in flight --------------------------------------------------------

/// A store for the tests below, and its router when it is sharded.
struct TestStore {
  std::unique_ptr<StoreBackend> backend;
  const shard::ShardRouter* router = nullptr;
};

/// The single tree, or a sharded store that splits as it grows.
TestStore MakeStore(bool sharded) {
  TestStore store;
  if (!sharded) {
    store.backend = std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree());
    return store;
  }
  shard::RouterOptions options;
  options.tree = SmallTree();
  options.rebalance.enabled = true;
  options.rebalance.split_cost = 3.0;
  options.rebalance.merge_cost = 1.0;
  options.rebalance.min_split_points = 16;
  options.rebalance.check_interval = 8;
  options.rebalance.max_shards = 16;
  auto router = std::make_unique<shard::ShardRouter>(UnitDomain(), options);
  store.router = router.get();
  store.backend = std::make_unique<ShardStoreBackend>(std::move(router));
  return store;
}

/// Drives `core` like RunBursts, but feeds each burst in up to four
/// ConsumeBytes calls and, after every call, takes every client's output
/// without waiting for the read runs in flight. A client that
/// ClientsWithOutput lists must get bytes from its take. Waits and takes
/// once more at the end.
std::vector<std::string> TakeWithoutWaiting(ServerCore* core, uint64_t seed,
                                            size_t clients, size_t bursts) {
  Pcg32 rng(seed);
  std::vector<uint64_t> ids;
  for (size_t c = 0; c < clients; ++c) ids.push_back(core->OpenClient());
  std::vector<std::string> out(clients);
  std::vector<Point2> written;
  uint64_t subscribes = 0;
  for (size_t b = 0; b < bursts; ++b) {
    size_t c = rng.NextBounded(static_cast<uint32_t>(clients));
    Mix mix = static_cast<Mix>(rng.NextBounded(3));
    std::string burst;
    for (uint32_t n = 1 + rng.NextBounded(24); n > 0; --n) {
      burst += RandomFrame(&rng, mix, &written, &subscribes);
    }
    std::vector<size_t> cuts = {burst.size()};
    for (uint32_t n = rng.NextBounded(4); n > 0; --n) {
      cuts.push_back(rng.NextBounded(static_cast<uint32_t>(burst.size())));
    }
    std::sort(cuts.begin(), cuts.end());
    size_t from = 0;
    for (size_t to : cuts) {
      const std::string_view piece =
          std::string_view(burst).substr(from, to - from);
      EXPECT_TRUE(core->ConsumeBytes(ids[c], piece).ok());
      from = to;
      const std::vector<uint64_t> ready = core->ClientsWithOutput();
      for (size_t k = 0; k < clients; ++k) {
        const std::string taken = core->TakeOutput(ids[k]);
        if (std::find(ready.begin(), ready.end(), ids[k]) != ready.end()) {
          EXPECT_FALSE(taken.empty()) << "client " << k;
        }
        out[k] += taken;
      }
    }
  }
  core->WaitForReads();
  for (size_t k = 0; k < clients; ++k) out[k] += core->TakeOutput(ids[k]);
  return out;
}

TEST(ServerCoreTest, TakesWithoutWaitingMatchSerialBytes) {
  for (bool sharded : {false, true}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      std::vector<std::string> serial;
      for (size_t threads : {0, 1, 3}) {
        ServerCore core(MakeStore(sharded).backend, threads);
        std::vector<std::string> out = TakeWithoutWaiting(&core, seed, 3, 60);
        if (threads == 0) {
          serial = std::move(out);
          continue;
        }
        for (size_t c = 0; c < serial.size(); ++c) {
          EXPECT_TRUE(out[c] == serial[c])
              << (sharded ? "sharded" : "single tree") << " seed " << seed
              << " threads " << threads << " client " << c;
        }
      }
    }
  }
}

TEST(ServerCoreTest, RunInFlightMissesLaterWritesAndPrecedesTheirNotices) {
  const Box2 watched(Point2(0.0, 0.0), Point2(0.5, 0.5));
  for (bool sharded : {false, true}) {
    std::string want_a;
    std::string want_b;
    for (size_t threads : {0, 1, 3}) {
      SCOPED_TRACE(testing::Message()
                   << (sharded ? "sharded" : "single tree") << ", "
                   << threads << " read threads");
      Gate gate;
      if (threads == 0) gate.Open();  // inline reads must not wait
      TestStore store = MakeStore(sharded);
      ServerCore core(
          std::make_unique<GatedBackend>(std::move(store.backend), &gate),
          threads);
      const uint64_t a = core.OpenClient();
      const uint64_t b = core.OpenClient();
      Pcg32 rng(23);
      std::string preload;
      for (int i = 0; i < 100; ++i) {
        preload += Frame(Insert(rng.NextDouble(), rng.NextDouble()));
      }
      ASSERT_TRUE(core.ConsumeBytes(b, preload).ok());
      std::string out_b = core.TakeOutput(b);
      const uint64_t pinned_at = core.sequence();
      Request subscribe;
      subscribe.type = MsgType::kSubscribe;
      subscribe.box = watched;
      std::string run = Frame(subscribe);
      std::vector<Box2> boxes;
      for (int i = 0; i < 32; ++i) {
        const double x = rng.NextDouble(0.0, 0.4);
        const double y = rng.NextDouble(0.0, 0.4);
        boxes.emplace_back(Point2(x, y), Point2(x + 0.1, y + 0.1));
        run += Frame(Range(boxes.back()));
      }
      // No ASSERT until the gate opens: an early return would leave the
      // core's workers waiting on it in the core's destructor.
      EXPECT_TRUE(core.ConsumeBytes(a, run).ok());
      std::string out_a = core.TakeOutput(a);
      // B's writes land inside A's boxes while A's run is in flight.
      const uint64_t splits = sharded ? store.router->splits() : 0;
      std::vector<Point2> later;
      std::string writes;
      for (int i = 0; i < 64; ++i) {
        later.emplace_back(rng.NextDouble(0.0, 0.5), rng.NextDouble(0.0, 0.5));
        writes += Frame(Insert(later.back().x(), later.back().y()));
      }
      EXPECT_TRUE(core.ConsumeBytes(b, writes).ok());
      out_b += core.TakeOutput(b);
      if (threads > 0) {
        // A's answers, and its notices behind them, are held back.
        const std::vector<uint64_t> ready = core.ClientsWithOutput();
        EXPECT_EQ(std::find(ready.begin(), ready.end(), a), ready.end());
        EXPECT_TRUE(core.TakeOutput(a).empty());
      }
      if (sharded) {
        EXPECT_GT(store.router->splits(), splits);
      }
      gate.Open();
      core.WaitForReads();
      out_a += core.TakeOutput(a);

      size_t offset = 0;
      std::string_view payload;
      Status error;
      std::vector<std::string_view> frames;
      while (NextFrame(out_a, &offset, &payload, &error)) {
        frames.push_back(payload);
      }
      ASSERT_EQ(frames.size(), 1u + 32u + 64u);
      size_t hidden = 0;  // later points inside a box of the run
      for (size_t i = 1; i <= 32; ++i) {
        const Response answer = ValueOrDie(DecodeResponsePayload(frames[i]));
        EXPECT_EQ(answer.status, 0);
        for (const Point2& p : later) {
          if (!boxes[i - 1].Contains(p)) continue;
          ++hidden;
          EXPECT_EQ(std::find(answer.points.begin(), answer.points.end(), p),
                    answer.points.end());
        }
      }
      EXPECT_GT(hidden, 0u);
      for (size_t i = 33; i < frames.size(); ++i) {
        EXPECT_GT(ValueOrDie(DecodeNotificationPayload(frames[i])).sequence,
                  pinned_at);
      }
      if (threads == 0) {
        want_a = out_a;
        want_b = out_b;
        continue;
      }
      EXPECT_TRUE(out_a == want_a);
      EXPECT_TRUE(out_b == want_b);
    }
  }
}

TEST(ServerCoreTest, MoreRunsInFlightThanReaderSlotsAreAllAnswered) {
  constexpr size_t kClients = 100;
  static_assert(kClients > spatial::EpochManager::kMaxReaders);
  for (bool sharded : {false, true}) {
    for (size_t threads : {1, 3}) {
      SCOPED_TRACE(testing::Message()
                   << (sharded ? "sharded" : "single tree") << ", "
                   << threads << " read threads");
      Gate gate;
      auto gated =
          std::make_unique<GatedBackend>(MakeStore(sharded).backend, &gate);
      const GatedBackend* backend = gated.get();
      ServerCore core(std::move(gated), threads);
      Pcg32 rng(29);
      Request batch;
      batch.type = MsgType::kInsertBatch;
      for (int i = 0; i < 200; ++i) batch.batch.push_back(RandomPoint(&rng));
      const uint64_t loader = core.OpenClient();
      ASSERT_TRUE(core.ConsumeBytes(loader, Frame(batch)).ok());
      (void)DrainFrames(&core, loader);
      // Every run holds its pin until the gate opens, which the first pin
      // that finds no slot free does.
      std::vector<uint64_t> ids;
      for (size_t c = 0; c < kClients; ++c) {
        ids.push_back(core.OpenClient());
        Request census;
        census.type = MsgType::kCensus;
        std::string run = Frame(census);
        for (int i = 0; i < 3; ++i) run += Frame(Range(RandomBox(&rng, 0.3)));
        EXPECT_TRUE(core.ConsumeBytes(ids.back(), run).ok());
      }
      EXPECT_GT(backend->pin_failures(), 0u);
      gate.Open();
      for (uint64_t id : ids) {
        std::vector<OutFrame> frames = DrainFrames(&core, id);
        ASSERT_EQ(frames.size(), 4u);
        for (const OutFrame& frame : frames) {
          EXPECT_EQ(frame.response.status, 0) << frame.response.message;
        }
      }
    }
  }
}

TEST(ServerCoreTest, ClosingAClientWithARunInFlightReleasesItsPin) {
  for (bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "single tree");
    Gate gate;
    ServerCore core(
        std::make_unique<GatedBackend>(MakeStore(sharded).backend, &gate), 3);
    const uint64_t client = core.OpenClient();
    ASSERT_TRUE(core.ConsumeBytes(client, Frame(Insert(0.25, 0.25)) +
                                              Frame(Insert(0.75, 0.75)))
                    .ok());
    (void)DrainFrames(&core, client);
    std::string run;
    for (int i = 0; i < 8; ++i) run += Frame(Range(UnitDomain()));
    EXPECT_TRUE(core.ConsumeBytes(client, run).ok());
    EXPECT_TRUE(core.CloseClient(client).ok());
    EXPECT_TRUE(core.TakeOutput(client).empty());
    gate.Open();
    core.WaitForReads();
    std::vector<std::unique_ptr<const ReadView>> held;
    for (size_t i = 0; i < spatial::EpochManager::kMaxReaders; ++i) {
      StatusOr<std::unique_ptr<const ReadView>> pinned = Pin(core);
      ASSERT_TRUE(pinned.ok()) << "pin " << i << ": "
                               << pinned.status().ToString();
      held.push_back(std::move(pinned).value());
    }
    held.clear();
    // The core serves on.
    const uint64_t other = core.OpenClient();
    EXPECT_EQ(Ask(&core, other, Range(UnitDomain())).points.size(), 2u);
  }
}

// --- Write runs ----------------------------------------------------------

/// Client outputs and WAL bytes of one seeded RunBursts drive.
struct Transcript {
  std::vector<std::string> out;
  std::string wal;
};

Transcript DriveWithWal(uint64_t seed, size_t threads, bool frame_per_call) {
  std::ostringstream log;
  spatial::WalWriter wal(&log, UnitDomain(), SmallTree());
  Transcript transcript;
  {
    ServerCore core(
        std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree(), &wal),
        threads);
    transcript.out = RunBursts(&core, seed, 3, 60, frame_per_call);
  }
  transcript.wal = log.str();
  return transcript;
}

TEST(ServerCoreTest, WriteRunsMatchPerFrameBytes) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    // One frame per call: every write is a run of one.
    const Transcript per_frame = DriveWithWal(seed, 0, true);
    spatial::WalRecovery replayed =
        ValueOrDie(spatial::ReplayWal(per_frame.wal));
    EXPECT_FALSE(replayed.truncated_tail) << replayed.truncation_reason;
    EXPECT_GT(replayed.records_applied, 100u) << "seed " << seed;
    for (size_t threads : {0, 1, 3}) {
      for (bool frame_per_call : {false, true}) {
        if (threads == 0 && frame_per_call) continue;
        const Transcript got = DriveWithWal(seed, threads, frame_per_call);
        EXPECT_TRUE(got.wal == per_frame.wal)
            << "seed " << seed << " threads " << threads;
        for (size_t c = 0; c < per_frame.out.size(); ++c) {
          EXPECT_TRUE(got.out[c] == per_frame.out[c])
              << "seed " << seed << " threads " << threads << " client " << c
              << (frame_per_call ? " frame per call" : " bursts");
        }
      }
    }
  }
}

/// Every file under `dir`, by name.
std::map<std::string, std::string> FilesIn(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  return files;
}

TEST(ServerCoreTest, ShardedWriteRunsMatchPerFrameBytes) {
  shard::RouterOptions options;
  options.tree = SmallTree();
  options.rebalance.enabled = true;
  options.rebalance.split_cost = 3.0;
  options.rebalance.merge_cost = 1.0;
  options.rebalance.min_split_points = 16;
  options.rebalance.check_interval = 8;
  options.rebalance.max_shards = 16;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    std::vector<std::string> want_out;
    std::map<std::string, std::string> want_files;
    for (size_t threads : {0, 3}) {
      for (bool frame_per_call : {true, false}) {
        const std::string dir = ::testing::TempDir() + "/popan_write_runs_" +
                                std::to_string(seed) + "_" +
                                std::to_string(threads) +
                                (frame_per_call ? "_frames" : "_bursts");
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        std::vector<std::string> out;
        {
          std::unique_ptr<shard::ShardRouter> router =
              ValueOrDie(shard::ShardRouter::Open(dir, UnitDomain(), options));
          shard::ShardRouter* raw = router.get();
          ServerCore core(
              std::make_unique<ShardStoreBackend>(std::move(router)), threads);
          out = RunBursts(&core, seed, 3, 60, frame_per_call);
          EXPECT_GT(raw->splits(), 0u) << "seed " << seed;
        }
        std::map<std::string, std::string> files = FilesIn(dir);
        std::filesystem::remove_all(dir);
        if (want_out.empty()) {
          want_out = std::move(out);
          want_files = std::move(files);
          continue;
        }
        EXPECT_TRUE(out == want_out) << "seed " << seed << " threads "
                                     << threads;
        EXPECT_TRUE(files == want_files) << "seed " << seed << " threads "
                                         << threads;
      }
    }
  }
}

TEST(ServerCoreTest, WriteRunPublishesOncePerRun) {
  // ingest_wal's shape: calls of 32 writes, 33.5% inserts, 1% 32-point
  // batches and 65.5% erases of live points.
  auto backend = std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree());
  const spatial::EpochManager& epochs = backend->tree().epochs();
  ServerCore core(std::move(backend));
  uint64_t client = core.OpenClient();
  Pcg32 rng(19);
  std::vector<Point2> live;
  Request preload;
  preload.type = MsgType::kInsertBatch;
  for (int i = 0; i < 4096; ++i) {
    preload.batch.push_back(RandomPoint(&rng));
    live.push_back(preload.batch.back());
  }
  ASSERT_TRUE(core.ConsumeBytes(client, Frame(preload)).ok());
  (void)DrainFrames(&core, client);
  const uint64_t versions = epochs.epochs_advanced();
  size_t writes = 0;
  for (int call = 0; call < 200; ++call) {
    std::string burst;
    for (int i = 0; i < 32; ++i, ++writes) {
      const uint32_t roll = rng.NextBounded(1000);
      Request r;
      if (roll < 10) {
        r.type = MsgType::kInsertBatch;
        for (int k = 0; k < 32; ++k) {
          r.batch.push_back(RandomPoint(&rng));
          live.push_back(r.batch.back());
        }
      } else if (roll < 345 || live.empty()) {
        r = Insert(rng.NextDouble(), rng.NextDouble());
        live.push_back(r.point);
      } else {
        const size_t victim =
            rng.NextBounded(static_cast<uint32_t>(live.size()));
        r.type = MsgType::kErase;
        r.point = live[victim];
        live[victim] = live.back();
        live.pop_back();
      }
      burst += Frame(r);
    }
    ASSERT_TRUE(core.ConsumeBytes(client, burst).ok());
    for (const OutFrame& frame : DrainFrames(&core, client)) {
      EXPECT_EQ(frame.response.status, 0);
    }
  }
  EXPECT_EQ(core.size(), live.size());
  EXPECT_LE((epochs.epochs_advanced() - versions) * 8, writes);
}

TEST(ServerCoreDeathTest, FailedWalWriteStopsTheServer) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Per op: the record's own flush fails.
  EXPECT_DEATH(
      {
        RejectingStreambuf buf;
        std::ostream out(&buf);
        spatial::WalWriter wal(&out, UnitDomain(), SmallTree());
        CowTreeBackend backend(UnitDomain(), SmallTree(), &wal);
        (void)backend.ApplyInsert(Point2(0.1, 0.1));
        buf.rejecting = true;
        (void)backend.ApplyInsert(Point2(0.2, 0.2));
      },
      "WAL append failed");
  // In a run: the records wait in the buffer and the run's flush fails,
  // before ConsumeBytes returns with the acks.
  EXPECT_DEATH(
      {
        RejectingStreambuf buf;
        std::ostream out(&buf);
        spatial::WalWriter wal(&out, UnitDomain(), SmallTree());
        ServerCore core(
            std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree(), &wal));
        uint64_t client = core.OpenClient();
        (void)core.ConsumeBytes(client, Frame(Insert(0.1, 0.1)));
        buf.rejecting = true;
        (void)core.ConsumeBytes(
            client, Frame(Insert(0.2, 0.2)) + Frame(Insert(0.3, 0.3)));
      },
      "WAL flush failed");
}

}  // namespace
}  // namespace popan::server
