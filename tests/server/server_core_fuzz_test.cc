// ServerCore fuzz: seeded, structure-aware mutations of pipelined
// request streams, fed through ConsumeBytes (the server's one way in) at
// random cut points. Every complete frame before a poisoned length prefix
// must get exactly one response, in order, whatever its bytes; the output
// must not depend on the read-thread count; and the store must stay
// consistent with itself and with its log.

#include <algorithm>
#include <cstddef>
#include <cstdint>
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
#include "spatial/knn_heap.h"
#include "spatial/pr_tree.h"
#include "spatial/wal.h"
#include "testing/statusor_testing.h"
#include "util/random.h"
#include "util/status.h"

namespace popan::server {
namespace {

using geo::Box2;
using geo::Point2;
using popan::ValueOrDie;

constexpr uint64_t kSeeds = 400;
constexpr uint32_t kMaxFrames = 64;

Box2 UnitDomain() { return Box2(Point2(0.0, 0.0), Point2(1.0, 1.0)); }

spatial::PrTreeOptions SmallTree() {
  spatial::PrTreeOptions options;
  options.capacity = 2;
  options.max_depth = 12;
  return options;
}

/// A point on a coarse grid, so inserts collide and erases hit; one in
/// sixteen lies outside the domain.
Point2 GridPoint(Pcg32* rng) {
  Point2 p((rng->NextBounded(32) + 0.5) / 32.0,
           (rng->NextBounded(32) + 0.5) / 32.0);
  if (rng->NextBounded(16) == 0) p[0] += 1.0;
  return p;
}

Box2 RandomBox(Pcg32* rng) {
  const Point2 lo(rng->NextDouble(), rng->NextDouble());
  return Box2(lo, Point2(std::min(1.0, lo.x() + 0.5 * rng->NextDouble()),
                         std::min(1.0, lo.y() + 0.5 * rng->NextDouble())));
}

/// One well-formed request frame of a uniformly drawn kind.
std::string RandomRequestFrame(Pcg32* rng) {
  Request r;
  r.type = static_cast<MsgType>(1 + rng->NextBounded(10));
  switch (r.type) {
    case MsgType::kInsert:
    case MsgType::kErase:
      r.point = GridPoint(rng);
      break;
    case MsgType::kInsertBatch:
      for (uint32_t n = 1 + rng->NextBounded(8); n > 0; --n) {
        r.batch.push_back(GridPoint(rng));
      }
      break;
    case MsgType::kRange:
    case MsgType::kSubscribe:
      r.box = RandomBox(rng);
      break;
    case MsgType::kPartialMatch:
      r.axis = static_cast<uint8_t>(rng->NextBounded(2));
      r.value = (rng->NextBounded(32) + 0.5) / 32.0;
      break;
    case MsgType::kNearestK:
      r.point = GridPoint(rng);
      r.k = 1 + rng->NextBounded(12);
      break;
    case MsgType::kUnsubscribe:
      r.sub_id = rng->NextBounded(8);
      break;
    default:  // census, ping: no body
      break;
  }
  return EncodeRequestFrame(r);
}

/// Byte values worth writing over a type byte or a length prefix.
constexpr uint8_t kInteresting[] = {0x00, 0x01, 0x0a, 0x0b, 0x40,
                                    0x7f, 0x80, 0xc0, 0xff};

/// A stream of up to kMaxFrames request frames, then up to four
/// mutations: a bit flip, a byte overwrite (often of a type byte or a
/// length prefix), a splice of bytes from elsewhere in the stream, a
/// truncation, or a duplicated frame.
std::string MutatedStream(Pcg32* rng) {
  std::vector<std::string> frames;
  for (uint32_t n = 1 + rng->NextBounded(kMaxFrames); n > 0; --n) {
    frames.push_back(RandomRequestFrame(rng));
  }
  std::vector<uint32_t> kinds(rng->NextBounded(5));
  for (uint32_t& kind : kinds) kind = rng->NextBounded(5);
  // Duplicates copy whole frames, before the frames are joined.
  for (uint32_t kind : kinds) {
    if (kind != 4) continue;
    const size_t i = rng->NextBounded(static_cast<uint32_t>(frames.size()));
    frames.insert(frames.begin() + static_cast<ptrdiff_t>(i), frames[i]);
  }
  std::vector<size_t> starts;
  std::string stream;
  for (const std::string& frame : frames) {
    starts.push_back(stream.size());
    stream += frame;
  }
  for (uint32_t kind : kinds) {
    if (stream.empty()) break;
    const uint32_t size = static_cast<uint32_t>(stream.size());
    const size_t frame =
        starts[rng->NextBounded(static_cast<uint32_t>(starts.size()))];
    switch (kind) {
      case 0:
        stream[rng->NextBounded(size)] ^=
            static_cast<char>(1u << rng->NextBounded(8));
        break;
      case 1: {
        // A frame's type byte (3 in 8), one of its four length bytes, or
        // anywhere.
        const uint32_t where = rng->NextBounded(8);
        const size_t pos = where < 3   ? frame + 4
                           : where < 7 ? frame + (where - 3)
                                       : rng->NextBounded(size);
        if (pos < stream.size()) {
          stream[pos] = static_cast<char>(
              rng->NextBounded(2) == 0
                  ? kInteresting[rng->NextBounded(sizeof(kInteresting))]
                  : rng->NextBounded(256));
        }
        break;
      }
      case 2: {
        const size_t from = rng->NextBounded(size);
        const size_t len = rng->NextBounded(static_cast<uint32_t>(
            std::min<size_t>(64, stream.size() - from) + 1));
        const std::string piece = stream.substr(from, len);
        stream.insert(rng->NextBounded(size + 1), piece);
        break;
      }
      case 3:
        stream.resize(rng->NextBounded(size + 1));
        break;
      default:  // duplicated above
        break;
    }
  }
  return stream;
}

/// The response type a request payload must be answered with.
uint8_t ExpectedResponseType(std::string_view payload) {
  const uint8_t t = payload.empty() ? 0 : static_cast<uint8_t>(payload[0]);
  return t >= 0x01 && t <= 0x0a ? static_cast<uint8_t>(t | 0x80) : 0x80;
}

/// What one session returned: the status of each ConsumeBytes call and
/// every byte the client received.
struct Session {
  std::vector<StatusCode> codes;
  std::string out;
  bool operator==(const Session&) const = default;
};

/// Feeds `stream` to a fresh client of `core`, cut at `cuts`; stops after
/// the first failed call, as a transport drops the connection.
Session Feed(ServerCore* core, const std::string& stream,
             const std::vector<size_t>& cuts) {
  const uint64_t client = core->OpenClient();
  Session session;
  size_t from = 0;
  for (size_t to : cuts) {
    const Status status = core->ConsumeBytes(
        client, std::string_view(stream).substr(from, to - from));
    session.codes.push_back(status.code());
    session.out += core->TakeOutput(client);
    from = to;
    if (!status.ok()) break;
  }
  core->WaitForReads();
  session.out += core->TakeOutput(client);
  return session;
}

/// Checks `session` against a model of `stream` built from NextFrame
/// alone: the calls fail exactly where an oversized length prefix first
/// lies fully inside the fed bytes, and the output is one response per
/// complete frame before that point, typed after its request, in order,
/// with only notifications between them.
void ExpectAnsweredOncePerFrame(const std::string& stream,
                                const std::vector<size_t>& cuts,
                                const Session& session) {
  std::vector<std::string_view> requests;
  size_t offset = 0;
  std::string_view payload;
  Status error;
  while (NextFrame(stream, &offset, &payload, &error)) {
    requests.push_back(payload);
  }
  const size_t poison_end = error.ok() ? stream.size() + 1 : offset + 4;
  for (size_t i = 0; i < session.codes.size(); ++i) {
    EXPECT_EQ(session.codes[i] == StatusCode::kOk, cuts[i] < poison_end)
        << "call " << i << " ending at byte " << cuts[i];
  }
  size_t answered = 0;
  offset = 0;
  while (NextFrame(session.out, &offset, &payload, &error)) {
    ASSERT_FALSE(payload.empty());
    if (static_cast<uint8_t>(payload[0]) ==
        static_cast<uint8_t>(MsgType::kNotification)) {
      EXPECT_TRUE(DecodeNotificationPayload(payload).ok());
      continue;
    }
    StatusOr<Response> response = DecodeResponsePayload(payload);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_LT(answered, requests.size()) << "more answers than requests";
    EXPECT_EQ(response.value().type, ExpectedResponseType(requests[answered]))
        << "answer " << answered;
    ++answered;
  }
  EXPECT_TRUE(error.ok());
  EXPECT_EQ(offset, session.out.size());
  EXPECT_EQ(answered, requests.size());
}

/// Up to four sorted cut points; the last is the stream's end.
std::vector<size_t> RandomCuts(Pcg32* rng, size_t size) {
  std::vector<size_t> cuts;
  for (uint32_t n = rng->NextBounded(5); n > 0; --n) {
    cuts.push_back(rng->NextBounded(static_cast<uint32_t>(size + 1)));
  }
  cuts.push_back(size);
  std::sort(cuts.begin(), cuts.end());
  return cuts;
}

std::vector<Point2> Sorted(std::vector<Point2> points) {
  std::sort(points.begin(), points.end(), spatial::PointTieLess());
  return points;
}

TEST(ServerCoreFuzzTest, SingleTreeWithWalAnswersEveryFrameOnce) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Pcg32 rng(seed);
    const std::string stream = MutatedStream(&rng);
    const std::vector<size_t> cuts = RandomCuts(&rng, stream.size());
    std::vector<Session> sessions;
    std::vector<std::string> logs;
    for (size_t threads : {0, 3}) {
      std::ostringstream log;
      spatial::WalWriter wal(&log, UnitDomain(), SmallTree());
      auto backend =
          std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree(), &wal);
      const CowTreeBackend* store = backend.get();
      ServerCore core(std::move(backend), threads);
      sessions.push_back(Feed(&core, stream, cuts));
      ExpectAnsweredOncePerFrame(stream, cuts, sessions.back());
      EXPECT_TRUE(store->tree().CheckInvariants().ok());
      logs.push_back(log.str());
      spatial::WalRecovery replayed =
          ValueOrDie(spatial::ReplayWal(logs.back()));
      EXPECT_FALSE(replayed.truncated_tail) << replayed.truncation_reason;
      EXPECT_EQ(replayed.last_sequence, core.sequence());
      EXPECT_EQ(Sorted(replayed.tree.AllPoints()),
                Sorted(store->tree().Snapshot().AllPoints()));
    }
    EXPECT_TRUE(sessions[0] == sessions[1]);
    EXPECT_TRUE(logs[0] == logs[1]);
  }
}

TEST(ServerCoreFuzzTest, SplittingShardedStoreAnswersEveryFrameOnce) {
  shard::RouterOptions options;
  options.tree = SmallTree();
  options.rebalance.enabled = true;
  options.rebalance.split_cost = 2.0;
  options.rebalance.merge_cost = 1.0;
  options.rebalance.min_split_points = 4;
  options.rebalance.check_interval = 4;
  options.rebalance.max_shards = 16;
  uint64_t splits = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Pcg32 rng(seed ^ 0x5eed);
    const std::string stream = MutatedStream(&rng);
    const std::vector<size_t> cuts = RandomCuts(&rng, stream.size());
    std::vector<Session> sessions;
    for (size_t threads : {0, 3}) {
      auto router = std::make_unique<shard::ShardRouter>(UnitDomain(), options);
      const shard::ShardRouter* raw = router.get();
      ServerCore core(std::make_unique<ShardStoreBackend>(std::move(router)),
                      threads);
      sessions.push_back(Feed(&core, stream, cuts));
      ExpectAnsweredOncePerFrame(stream, cuts, sessions.back());
      const shard::MultiSnapshot pinned = raw->Snapshot();
      for (const shard::MultiSnapshot::Entry& entry : pinned.entries()) {
        EXPECT_TRUE(entry.view.CheckInvariants().ok());
      }
      EXPECT_EQ(pinned.size(), core.size());
      if (threads == 0) splits += raw->splits();
    }
    EXPECT_TRUE(sessions[0] == sessions[1]);
  }
  EXPECT_GT(splits, 0u);
}

}  // namespace
}  // namespace popan::server
