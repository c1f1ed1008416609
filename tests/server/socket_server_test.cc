// End-to-end loopback test: real sockets, real poll loop, two clients,
// cross-connection notification delivery, clean shutdown, read runs that
// complete off the poll thread behind a real socket, and the popan_server
// binary itself (flag checking, stop on SIGTERM/SIGINT).

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "geometry/point.h"
#include "server/cow_store.h"
#include "server/protocol.h"
#include "server/server_core.h"
#include "server/socket_server.h"
#include "sim/thread_pool.h"
#include "spatial/pr_tree.h"
#include "spatial/wal.h"
#include "testing/server_testing.h"
#include "testing/statusor_testing.h"
#include "util/random.h"
#include "util/status.h"

extern char** environ;

namespace popan::server {
namespace {

using geo::Box2;
using geo::Point2;
using popan::ValueOrDie;

/// Minimal blocking client for the test: connect, send frames, read
/// payloads one at a time.
class TestClient {
 public:
  bool Connect(uint16_t port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    if (rcvbuf_bytes > 0) {
      // Shrink the receive window (before connect, so the handshake
      // advertises it): a non-draining peer then backs the server up into
      // its userspace pending_out queue within a few kilobytes.
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof(rcvbuf_bytes));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  /// Makes a blocked read give up after `seconds`, so a reply that never
  /// comes fails the test instead of hanging it.
  void SetReceiveTimeout(int seconds) {
    timeval timeout{seconds, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }

  /// Close with SO_LINGER zero: the kernel sends RST instead of FIN, so
  /// the server's next send() hits a hard-dead socket.
  void HardClose() {
    struct linger hard {1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    Close();
  }

  ~TestClient() { Close(); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::write(fd_, bytes.data() + sent, bytes.size() - sent);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReceivePayload(std::string* payload) {
    for (;;) {
      size_t offset = 0;
      std::string_view view;
      Status error;
      if (NextFrame(buffer_, &offset, &view, &error)) {
        *payload = std::string(view);
        buffer_.erase(0, offset);
        return true;
      }
      if (!error.ok()) return false;
      char chunk[4096];
      ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  Response ReceiveResponse() {
    std::string payload;
    EXPECT_TRUE(ReceivePayload(&payload));
    return ValueOrDie(DecodeResponsePayload(payload));
  }

  Notification ReceiveNotification() {
    std::string payload;
    EXPECT_TRUE(ReceivePayload(&payload));
    return ValueOrDie(DecodeNotificationPayload(payload));
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

TEST(SocketServerTest, EndToEndWithNotificationsAndShutdown) {
  spatial::PrTreeOptions options;
  options.capacity = 4;
  options.max_depth = 12;
  ServerCore core(std::make_unique<CowTreeBackend>(
      Box2(Point2(0.0, 0.0), Point2(1.0, 1.0)), options));
  SocketServer server(&core);
  uint16_t port = ValueOrDie(server.Listen(0));
  ASSERT_GT(port, 0);
  // The transport needs a real dedicated thread: Serve() blocks in poll()
  // until RequestStop(), which a pooled task must never do.
  // popan-lint: allow(raw-thread-spawn)
  std::thread serve_thread([&server] {
    Status status = server.Serve();
    EXPECT_TRUE(status.ok()) << status.ToString();
  });

  TestClient watcher;
  TestClient writer;
  ASSERT_TRUE(watcher.Connect(port));
  ASSERT_TRUE(writer.Connect(port));

  // Watcher subscribes to the lower-left quadrant.
  Request subscribe;
  subscribe.type = MsgType::kSubscribe;
  subscribe.box = Box2(Point2(0.0, 0.0), Point2(0.5, 0.5));
  ASSERT_TRUE(watcher.Send(EncodeRequestFrame(subscribe)));
  Response sub_response = watcher.ReceiveResponse();
  ASSERT_EQ(sub_response.status, 0);
  uint64_t sub_id = sub_response.sub_id;

  // Writer pipelines two inserts in a single send: one inside the
  // watched box, one outside.
  Request in_box;
  in_box.type = MsgType::kInsert;
  in_box.point = Point2(0.25, 0.25);
  Request out_of_box;
  out_of_box.type = MsgType::kInsert;
  out_of_box.point = Point2(0.75, 0.75);
  ASSERT_TRUE(writer.Send(EncodeRequestFrame(in_box) +
                          EncodeRequestFrame(out_of_box)));
  EXPECT_EQ(writer.ReceiveResponse().sequence, 1u);
  EXPECT_EQ(writer.ReceiveResponse().sequence, 2u);

  // The notification crosses connections without the watcher sending
  // anything.
  Notification notification = watcher.ReceiveNotification();
  EXPECT_EQ(notification.sub_id, sub_id);
  EXPECT_EQ(notification.op, 'I');
  EXPECT_EQ(notification.point.x(), 0.25);
  EXPECT_EQ(notification.sequence, 1u);

  // The watcher's own queries work over the new state.
  Request range;
  range.type = MsgType::kRange;
  range.box = Box2(Point2(0.0, 0.0), Point2(1.0, 1.0));
  ASSERT_TRUE(watcher.Send(EncodeRequestFrame(range)));
  EXPECT_EQ(watcher.ReceiveResponse().points.size(), 2u);

  // A client that disconnects takes its subscription with it.
  watcher.Close();
  ASSERT_TRUE(writer.Send(EncodeRequestFrame(in_box)));  // duplicate
  EXPECT_EQ(writer.ReceiveResponse().status,
            static_cast<uint8_t>(StatusCode::kAlreadyExists));

  server.RequestStop();
  serve_thread.join();
  EXPECT_EQ(core.notifications_sent(), 1u);
}

TEST(SocketServerTest, PoisonedStreamClosesOnlyThatConnection) {
  spatial::PrTreeOptions options;
  options.capacity = 4;
  ServerCore core(std::make_unique<CowTreeBackend>(
      Box2(Point2(0.0, 0.0), Point2(1.0, 1.0)), options));
  SocketServer server(&core);
  uint16_t port = ValueOrDie(server.Listen(0));
  // Dedicated transport thread (blocks in poll; see above).
  // popan-lint: allow(raw-thread-spawn)
  std::thread serve_thread([&server] { (void)server.Serve(); });

  TestClient good;
  TestClient evil;
  ASSERT_TRUE(good.Connect(port));
  ASSERT_TRUE(evil.Connect(port));

  // The evil client sends an oversized length prefix; the server must
  // hang up on it.
  std::string poison;
  AppendU32(&poison, kMaxPayloadBytes + 1);
  ASSERT_TRUE(evil.Send(poison));
  std::string dead;
  EXPECT_FALSE(evil.ReceivePayload(&dead));  // EOF from the server

  // The good client is unaffected.
  Request ping;
  ping.type = MsgType::kPing;
  ASSERT_TRUE(good.Send(EncodeRequestFrame(ping)));
  EXPECT_EQ(good.ReceiveResponse().type, ResponseTypeFor(MsgType::kPing));

  server.RequestStop();
  serve_thread.join();
}

/// Pipelines `count` inserts on distinct points and drains the
/// responses, leaving `count` points in the tree for fat range replies.
void InsertGrid(TestClient* writer, int count) {
  std::string batch;
  for (int i = 0; i < count; ++i) {
    Request insert;
    insert.type = MsgType::kInsert;
    insert.point = Point2(0.001 + (i % 30) * 0.033,
                          0.001 + (i / 30) * 0.033);
    batch += EncodeRequestFrame(insert);
  }
  ASSERT_TRUE(writer->Send(batch));
  for (int i = 0; i < count; ++i) {
    EXPECT_EQ(writer->ReceiveResponse().status, 0) << i;
  }
}

TEST(SocketServerTest, DeadPeerWithQueuedOutputIsDroppedNotFatal) {
  spatial::PrTreeOptions options;
  options.capacity = 4;
  ServerCore core(std::make_unique<CowTreeBackend>(
      Box2(Point2(0.0, 0.0), Point2(1.0, 1.0)), options));
  SocketServer server(&core);
  uint16_t port = ValueOrDie(server.Listen(0));
  // Dedicated transport thread (blocks in poll; see above).
  // popan-lint: allow(raw-thread-spawn)
  std::thread serve_thread([&server] {
    Status status = server.Serve();
    EXPECT_TRUE(status.ok()) << status.ToString();
  });

  TestClient good;
  TestClient writer;
  ASSERT_TRUE(good.Connect(port));
  ASSERT_TRUE(writer.Connect(port));
  InsertGrid(&writer, 300);

  // A hog with a tiny receive window pipelines 200 whole-box range
  // queries (~1 MB of replies) and never reads: the kernel absorbs a few
  // dozen KB, the rest parks in the server's pending_out for this
  // connection.
  TestClient hog;
  ASSERT_TRUE(hog.Connect(port, /*rcvbuf_bytes=*/4096));
  Request range;
  range.type = MsgType::kRange;
  range.box = Box2(Point2(0.0, 0.0), Point2(1.0, 1.0));
  std::string burst;
  for (int i = 0; i < 200; ++i) burst += EncodeRequestFrame(range);
  ASSERT_TRUE(hog.Send(burst));

  // Two round trips on another connection guarantee the server has been
  // through its poll loop and consumed the hog's burst.
  Request ping;
  ping.type = MsgType::kPing;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(good.Send(EncodeRequestFrame(ping)));
    EXPECT_EQ(good.ReceiveResponse().type, ResponseTypeFor(MsgType::kPing));
  }

  // The hog dies hard (RST) with output still queued. The server's next
  // flush send()s into the dead socket; without MSG_NOSIGNAL that raises
  // SIGPIPE and kills the whole process instead of one connection.
  hog.HardClose();

  // The server survives, drops only the hog, and keeps serving others.
  ASSERT_TRUE(good.Send(EncodeRequestFrame(ping)));
  EXPECT_EQ(good.ReceiveResponse().type, ResponseTypeFor(MsgType::kPing));
  ASSERT_TRUE(writer.Send(EncodeRequestFrame(range)));
  EXPECT_EQ(writer.ReceiveResponse().points.size(), 300u);

  server.RequestStop();
  serve_thread.join();
}

TEST(SocketServerTest, PendingOutputCapDropsNonDrainingConsumer) {
  spatial::PrTreeOptions options;
  options.capacity = 4;
  ServerCore core(std::make_unique<CowTreeBackend>(
      Box2(Point2(0.0, 0.0), Point2(1.0, 1.0)), options));
  // A deliberately small cap so the test backs it up in milliseconds.
  SocketServer server(&core, /*max_pending_out=*/32 * 1024);
  uint16_t port = ValueOrDie(server.Listen(0));
  // Dedicated transport thread (blocks in poll; see above).
  // popan-lint: allow(raw-thread-spawn)
  std::thread serve_thread([&server] { (void)server.Serve(); });

  TestClient good;
  TestClient writer;
  ASSERT_TRUE(good.Connect(port));
  ASSERT_TRUE(writer.Connect(port));
  InsertGrid(&writer, 300);

  // ~1 MB of replies against a 32 KB cap: far more than the cap plus
  // anything the kernel can buffer on a 4 KB receive window.
  TestClient hog;
  ASSERT_TRUE(hog.Connect(port, /*rcvbuf_bytes=*/4096));
  Request range;
  range.type = MsgType::kRange;
  range.box = Box2(Point2(0.0, 0.0), Point2(1.0, 1.0));
  std::string burst;
  for (int i = 0; i < 200; ++i) burst += EncodeRequestFrame(range);
  ASSERT_TRUE(hog.Send(burst));

  // The server must hang up on the hog rather than queue the megabyte:
  // the hog's read stream ends (EOF or reset) long before 200 replies.
  std::string payload;
  int received = 0;
  while (received < 200 && hog.ReceivePayload(&payload)) ++received;
  EXPECT_LT(received, 200);

  // Everyone else is unaffected.
  Request ping;
  ping.type = MsgType::kPing;
  ASSERT_TRUE(good.Send(EncodeRequestFrame(ping)));
  EXPECT_EQ(good.ReceiveResponse().type, ResponseTypeFor(MsgType::kPing));

  server.RequestStop();
  serve_thread.join();
}

TEST(SocketServerTest, StopSendsQueuedOutputFirst) {
  spatial::PrTreeOptions options;
  options.capacity = 4;
  ServerCore core(std::make_unique<CowTreeBackend>(
      Box2(Point2(0.0, 0.0), Point2(1.0, 1.0)), options));
  // A cap well above the replies below, so none of them is refused.
  SocketServer server(&core, /*max_pending_out=*/64 * 1024 * 1024);
  uint16_t port = ValueOrDie(server.Listen(0));
  // Dedicated transport thread (blocks in poll; see above).
  // popan-lint: allow(raw-thread-spawn)
  std::thread serve_thread([&server] {
    Status status = server.Serve();
    EXPECT_TRUE(status.ok()) << status.ToString();
  });

  TestClient good;
  ASSERT_TRUE(good.Connect(port));
  Request grid;
  grid.type = MsgType::kInsertBatch;
  for (int i = 0; i < 64 * 64; ++i) {
    grid.batch.push_back(
        Point2(0.005 + (i % 64) / 64.0, 0.005 + (i / 64) / 64.0));
  }
  ASSERT_TRUE(good.Send(EncodeRequestFrame(grid)));
  ASSERT_EQ(good.ReceiveResponse().inserted, 4096u);

  // ~16 MB of replies behind an 8 KB receive window: more than the
  // kernel's largest send buffer (4 MB), so most of it is still queued in
  // the server when the stop arrives.
  TestClient reader;
  ASSERT_TRUE(reader.Connect(port, /*rcvbuf_bytes=*/4096));
  Request range;
  range.type = MsgType::kRange;
  range.box = Box2(Point2(0.0, 0.0), Point2(1.0, 1.0));
  std::string burst;
  for (int i = 0; i < 256; ++i) burst += EncodeRequestFrame(range);
  ASSERT_TRUE(reader.Send(burst));
  // Two round trips on another connection guarantee the server has been
  // through its poll loop and consumed the reader's burst.
  Request ping;
  ping.type = MsgType::kPing;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(good.Send(EncodeRequestFrame(ping)));
    EXPECT_EQ(good.ReceiveResponse().type, ResponseTypeFor(MsgType::kPing));
  }

  server.RequestStop();
  reader.SetReceiveTimeout(10);
  int received = 0;
  std::string payload;
  while (received < 256 && reader.ReceivePayload(&payload)) ++received;
  serve_thread.join();
  EXPECT_EQ(received, 256);
}

/// 64 seeded frames: inserts first, then every read kind in runs of up to
/// eight, broken by inserts, 8-point batches, erases, a subscription
/// (the client's own writes then notify it), pings and a malformed read.
std::string MixedBurst(uint64_t seed) {
  Pcg32 rng(seed);
  auto point = [&rng] { return Point2(rng.NextDouble(), rng.NextDouble()); };
  std::vector<Point2> written;
  std::string burst;
  Request subscribe;
  subscribe.type = MsgType::kSubscribe;
  subscribe.box = Box2(Point2(0.0, 0.0), Point2(0.5, 0.5));
  burst += EncodeRequestFrame(subscribe);
  for (int frames = 1; frames < 64;) {
    Request r;
    uint32_t roll = frames < 12 ? 0 : rng.NextBounded(10);
    if (roll < 2) {
      r.type = MsgType::kInsert;
      r.point = point();
      written.push_back(r.point);
    } else if (roll == 2) {
      r.type = MsgType::kInsertBatch;
      for (int i = 0; i < 8; ++i) r.batch.push_back(point());
    } else if (roll == 3) {
      r.type = MsgType::kErase;
      r.point = written[rng.NextBounded(
          static_cast<uint32_t>(written.size()))];
    } else if (roll == 4) {
      r.type = MsgType::kPing;
    } else if (roll == 5) {
      std::string payload;
      AppendU8(&payload, static_cast<uint8_t>(MsgType::kNearestK));
      AppendU32(&burst, static_cast<uint32_t>(payload.size()));
      burst += payload;
      ++frames;
      continue;
    } else {
      for (uint32_t n = 1 + rng.NextBounded(8); n > 0 && frames < 64;
           --n, ++frames) {
        Request read;
        switch (rng.NextBounded(4)) {
          case 0:
            read.type = MsgType::kRange;
            read.box = Box2(point(), Point2(1.0, 1.0));
            break;
          case 1:
            read.type = MsgType::kNearestK;
            read.point = point();
            read.k = 1 + rng.NextBounded(8);
            break;
          case 2:
            read.type = MsgType::kPartialMatch;
            read.axis = static_cast<uint8_t>(rng.NextBounded(2));
            read.value = rng.NextDouble();
            break;
          default:
            read.type = MsgType::kCensus;
            break;
        }
        burst += EncodeRequestFrame(read);
      }
      continue;
    }
    burst += EncodeRequestFrame(r);
    ++frames;
  }
  return burst;
}

/// Serves `burst` from one client write through a real loopback
/// SocketServer over a core with `read_threads`, and returns every frame
/// the client receives up to the 64th response.
std::string ServeBurst(size_t read_threads, const std::string& burst) {
  spatial::PrTreeOptions options;
  options.capacity = 2;
  options.max_depth = 12;
  ServerCore core(std::make_unique<CowTreeBackend>(
                      Box2(Point2(0.0, 0.0), Point2(1.0, 1.0)), options),
                  read_threads);
  SocketServer server(&core);
  uint16_t port = ValueOrDie(server.Listen(0));
  // Dedicated transport thread (blocks in poll; see above).
  // popan-lint: allow(raw-thread-spawn)
  std::thread serve_thread([&server] { (void)server.Serve(); });
  TestClient client;
  std::string received;
  int responses = 0;
  if (client.Connect(port) && client.Send(burst)) {
    std::string payload;
    while (responses < 64 && client.ReceivePayload(&payload)) {
      if (static_cast<uint8_t>(payload[0]) !=
          static_cast<uint8_t>(MsgType::kNotification)) {
        ++responses;
      }
      AppendU32(&received, static_cast<uint32_t>(payload.size()));
      received += payload;
    }
  }
  EXPECT_EQ(responses, 64) << read_threads << " read threads";
  server.RequestStop();
  serve_thread.join();
  return received;
}

TEST(SocketServerTest, ParallelReadRunsMatchSerialServerBytes) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    std::string burst = MixedBurst(seed);
    std::string serial = ServeBurst(0, burst);
    std::string parallel = ServeBurst(3, burst);
    EXPECT_TRUE(parallel == serial) << "seed " << seed;
  }
}

/// One read of a loopback client's stream: a small range box, or one
/// time in twenty a partial match, the slow kind.
Request WindowRead(Pcg32* rng) {
  Request read;
  if (rng->NextBounded(20) == 0) {
    read.type = MsgType::kPartialMatch;
    read.axis = static_cast<uint8_t>(rng->NextBounded(2));
    read.value = rng->NextDouble();
    return read;
  }
  const double x = rng->NextDouble(0.0, 0.95);
  const double y = rng->NextDouble(0.0, 0.95);
  read.type = MsgType::kRange;
  read.box = Box2(Point2(x, y), Point2(x + 0.05, y + 0.05));
  return read;
}

/// Serves a read-only 4096-point store through a loopback SocketServer
/// over a core with `read_threads`. Three clients, one pool worker each,
/// keep up to 16 reads in flight: each sends a burst of random size into
/// its open window, then takes back a random number of answers, until it
/// has `answers`. A read that waits 10 s for its answer fails the test.
/// Returns every frame each client received.
std::vector<std::string> ServeReadWindows(size_t read_threads,
                                          size_t answers) {
  constexpr size_t kClients = 3;
  constexpr size_t kWindow = 16;
  spatial::PrTreeOptions options;
  options.capacity = 4;
  options.max_depth = 16;
  ServerCore core(std::make_unique<CowTreeBackend>(
                      Box2(Point2(0.0, 0.0), Point2(1.0, 1.0)), options),
                  read_threads);
  Pcg32 rng(31);
  Request preload;
  preload.type = MsgType::kInsertBatch;
  for (int i = 0; i < 4096; ++i) {
    preload.batch.push_back(Point2(rng.NextDouble(), rng.NextDouble()));
  }
  const uint64_t loader = core.OpenClient();
  EXPECT_TRUE(core.ConsumeBytes(loader, EncodeRequestFrame(preload)).ok());
  EXPECT_FALSE(core.TakeOutput(loader).empty());
  SocketServer server(&core);
  uint16_t port = ValueOrDie(server.Listen(0));
  // Dedicated transport thread (blocks in poll; see above).
  // popan-lint: allow(raw-thread-spawn)
  std::thread serve_thread([&server] { (void)server.Serve(); });
  std::vector<std::string> received(kClients);
  {
    sim::ThreadPool clients(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      clients.Submit([port, answers, c, &received] {
        TestClient client;
        ASSERT_TRUE(client.Connect(port));
        client.SetReceiveTimeout(10);
        Pcg32 stream(100 + c);
        size_t sent = 0;
        size_t answered = 0;
        while (answered < answers) {
          std::string burst;
          const size_t room =
              std::min(kWindow - (sent - answered), answers - sent);
          if (room > 0) {
            for (uint32_t n = 1 + stream.NextBounded(
                                      static_cast<uint32_t>(room));
                 n > 0; --n, ++sent) {
              burst += EncodeRequestFrame(WindowRead(&stream));
            }
            ASSERT_TRUE(client.Send(burst));
          }
          for (uint32_t n = 1 + stream.NextBounded(
                                    static_cast<uint32_t>(sent - answered));
               n > 0; --n, ++answered) {
            std::string payload;
            ASSERT_TRUE(client.ReceivePayload(&payload))
                << "client " << c << " stalled after " << answered
                << " answers";
            AppendU32(&received[c], static_cast<uint32_t>(payload.size()));
            received[c] += payload;
          }
        }
      });
    }
    clients.Wait();
  }
  server.RequestStop();
  serve_thread.join();
  return received;
}

TEST(SocketServerTest, ReadWindowsGetEveryAnswerAsASerialServerSendsIt) {
  // A lost completion wake needs a run to finish inside a narrow window
  // of the poll loop; at 60k answers per client a loop that loses one
  // stalled in every trial, at 20k in about half.
  constexpr size_t kAnswers = 60000;
  const std::vector<std::string> serial = ServeReadWindows(0, kAnswers);
  for (size_t read_threads : {1, 3}) {
    const std::vector<std::string> got =
        ServeReadWindows(read_threads, kAnswers);
    for (size_t c = 0; c < serial.size(); ++c) {
      EXPECT_TRUE(got[c] == serial[c])
          << read_threads << " read threads, client " << c;
    }
  }
}

TEST(SocketServerTest, StopWithRunsInFlightSendsTheirAnswersFirst) {
  spatial::PrTreeOptions options;
  options.capacity = 4;
  Gate gate;
  ServerCore core(std::make_unique<GatedBackend>(
                      std::make_unique<CowTreeBackend>(
                          Box2(Point2(0.0, 0.0), Point2(1.0, 1.0)), options),
                      &gate),
                  3);
  SocketServer server(&core);
  uint16_t port = ValueOrDie(server.Listen(0));
  std::atomic<bool> served{false};
  // Dedicated transport thread (blocks in poll; see above).
  // popan-lint: allow(raw-thread-spawn)
  std::thread serve_thread([&server, &served] {
    Status status = server.Serve();
    EXPECT_TRUE(status.ok()) << status.ToString();
    served.store(true, std::memory_order_release);
  });

  TestClient good;
  TestClient reader;
  ASSERT_TRUE(good.Connect(port));
  ASSERT_TRUE(reader.Connect(port));
  InsertGrid(&good, 100);
  // Two runs with a ping between them: the ping's answer and the second
  // run queue behind the first run, which the gate holds in flight.
  Request range;
  range.type = MsgType::kRange;
  range.box = Box2(Point2(0.0, 0.0), Point2(0.2, 0.2));
  Request ping;
  ping.type = MsgType::kPing;
  std::string burst;
  for (int i = 0; i < 16; ++i) burst += EncodeRequestFrame(range);
  burst += EncodeRequestFrame(ping);
  for (int i = 0; i < 16; ++i) burst += EncodeRequestFrame(range);
  // No ASSERT until the gate opens: an early return would leave the
  // server's destructor waiting on reads that wait on the gate.
  EXPECT_TRUE(reader.Send(burst));
  // Two round trips on another connection guarantee the server has been
  // through its poll loop and consumed the reader's burst.
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(good.Send(EncodeRequestFrame(ping)));
    EXPECT_EQ(good.ReceiveResponse().type, ResponseTypeFor(MsgType::kPing));
  }

  server.RequestStop();
  // Serve cannot return while the runs wait on the gate.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(served.load(std::memory_order_acquire));
  gate.Open();
  serve_thread.join();
  // Every answer was sent before Serve returned.
  reader.SetReceiveTimeout(10);
  for (int i = 0; i < 33; ++i) {
    Response response = reader.ReceiveResponse();
    EXPECT_EQ(response.status, 0) << i;
    EXPECT_EQ(response.type, ResponseTypeFor(i == 16 ? MsgType::kPing
                                                     : MsgType::kRange))
        << i;
  }
}

// --- The popan_server binary ---------------------------------------------

/// The popan_server binary as a child process. Standard output is piped
/// back for the "listening on" line; standard error is discarded. The
/// destructor kills a child that is still running.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  bool Start(const std::vector<std::string>& flags) {
    int out[2];
    if (::pipe(out) != 0) return false;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    // The child starts with no signal blocked, whatever this runner has.
    posix_spawnattr_t attr;
    posix_spawnattr_init(&attr);
    sigset_t none;
    sigemptyset(&none);
    posix_spawnattr_setsigmask(&attr, &none);
    posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETSIGMASK);
    std::vector<std::string> args = {POPAN_SERVER_BINARY};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    int spawned = ::posix_spawn(&pid_, argv[0], &actions, &attr,
                                argv.data(), environ);
    posix_spawnattr_destroy(&attr);
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    out_fd_ = out[0];
    if (spawned != 0) pid_ = -1;
    return spawned == 0;
  }

  /// Reads the port from "popan_server listening on 127.0.0.1:<port>";
  /// 0 when the child exits first.
  uint16_t WaitForPort() {
    std::string line;
    char c = 0;
    while (::read(out_fd_, &c, 1) == 1 && c != '\n') line.push_back(c);
    size_t colon = line.rfind(':');
    if (colon == std::string::npos) return 0;
    return static_cast<uint16_t>(std::stoul(line.substr(colon + 1)));
  }

  /// Waits up to ~10 s for the child to exit; returns its exit code, or
  /// -1 when it was killed by a signal or had to be killed.
  int WaitForExit() {
    int status = 0;
    for (int tries = 0; tries < 1000; ++tries) {
      pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      ::usleep(10 * 1000);
    }
    return -1;  // the destructor kills it
  }

  void Signal(int sig) { ::kill(pid_, sig); }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

TEST(ServerBinaryTest, MalformedNumericFlagsExitTwo) {
  const std::vector<std::vector<std::string>> cases = {
      {"--port", "70000"},       {"--port", "abc"},
      {"--port", "-1"},          {"--port", "80x"},
      {"--port", ""},            {"--max-depth", "-1"},
      {"--max-depth", "65"},     {"--capacity", "0"},
      {"--capacity", "4.5"},     {"--side", "nan"},
      {"--side", "-1"},          {"--side", "0"},
      {"--split-cost", "inf"},   {"--shards", "99999999999999999999"},
      {"--shards", "4", "--split-cost", "24"},
      {"--port"},
  };
  for (const std::vector<std::string>& flags : cases) {
    ServerProcess server;
    ASSERT_TRUE(server.Start(flags));
    EXPECT_EQ(server.WaitForExit(), 2) << flags[0] << " " << flags.back();
  }
}

TEST(ServerBinaryTest, StopSignalExitsZeroWithAckedWritesInTheWal) {
  for (int sig : {SIGTERM, SIGINT}) {
    std::string wal = ::testing::TempDir() + "popan_stop_" +
                      std::to_string(::getpid()) + "_" +
                      std::to_string(sig) + ".wal";
    std::remove(wal.c_str());
    ServerProcess server;
    ASSERT_TRUE(server.Start({"--port", "0", "--wal", wal}));
    uint16_t port = server.WaitForPort();
    ASSERT_GT(port, 0);
    TestClient client;
    ASSERT_TRUE(client.Connect(port));
    // 40 pipelined inserts, an erase of the first, and a read run; every
    // write is acknowledged before the signal.
    std::string burst;
    for (int i = 0; i < 40; ++i) {
      Request insert;
      insert.type = MsgType::kInsert;
      insert.point = Point2(0.01 + 0.024 * i, 0.99 - 0.024 * i);
      burst += EncodeRequestFrame(insert);
    }
    Request erase;
    erase.type = MsgType::kErase;
    erase.point = Point2(0.01, 0.99);
    Request census;
    census.type = MsgType::kCensus;
    burst += EncodeRequestFrame(erase) + EncodeRequestFrame(census) +
             EncodeRequestFrame(census);
    ASSERT_TRUE(client.Send(burst));
    for (uint64_t seq = 1; seq <= 41; ++seq) {
      EXPECT_EQ(client.ReceiveResponse().sequence, seq);
    }
    for (int i = 0; i < 2; ++i) {
      Response response = client.ReceiveResponse();
      EXPECT_EQ(response.size, 39u);
      EXPECT_EQ(response.sequence, 41u);
    }

    server.Signal(sig);
    EXPECT_EQ(server.WaitForExit(), 0) << "signal " << sig;
    std::ifstream in(wal, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    spatial::WalRecovery recovery =
        ValueOrDie(spatial::ReplayWal(text.str()));
    EXPECT_EQ(recovery.last_sequence, 41u);
    EXPECT_EQ(recovery.tree.size(), 39u);
    EXPECT_FALSE(recovery.truncated_tail);
    EXPECT_FALSE(recovery.tree.Contains(Point2(0.01, 0.99)));
    std::remove(wal.c_str());
  }
}

TEST(ServerBinaryTest, StopSignalWithReadRunsInFlightSendsEveryAnswer) {
  ServerProcess server;
  ASSERT_TRUE(server.Start({"--port", "0"}));
  uint16_t port = server.WaitForPort();
  ASSERT_GT(port, 0);
  TestClient good;
  TestClient reader;
  ASSERT_TRUE(good.Connect(port));
  ASSERT_TRUE(reader.Connect(port));
  Request grid;
  grid.type = MsgType::kInsertBatch;
  for (int i = 0; i < 32 * 32; ++i) {
    grid.batch.push_back(
        Point2(0.01 + (i % 32) / 32.0, 0.01 + (i / 32) / 32.0));
  }
  ASSERT_TRUE(good.Send(EncodeRequestFrame(grid)));
  ASSERT_EQ(good.ReceiveResponse().inserted, 1024u);
  // Eight runs of 16 whole-domain reads, a ping after each: ~2 MB of
  // answers, under the server's 4 MB per-connection cap.
  Request range;
  range.type = MsgType::kRange;
  range.box = Box2(Point2(0.0, 0.0), Point2(1.0, 1.0));
  Request ping;
  ping.type = MsgType::kPing;
  std::string burst;
  for (int run = 0; run < 8; ++run) {
    for (int i = 0; i < 16; ++i) burst += EncodeRequestFrame(range);
    burst += EncodeRequestFrame(ping);
  }
  ASSERT_TRUE(reader.Send(burst));
  // Two round trips on another connection guarantee the server has been
  // through its poll loop and consumed the reader's burst.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(good.Send(EncodeRequestFrame(ping)));
    EXPECT_EQ(good.ReceiveResponse().type, ResponseTypeFor(MsgType::kPing));
  }

  server.Signal(SIGTERM);
  reader.SetReceiveTimeout(10);
  for (int run = 0; run < 8; ++run) {
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(reader.ReceiveResponse().points.size(), 1024u)
          << "run " << run << " read " << i;
    }
    EXPECT_EQ(reader.ReceiveResponse().type, ResponseTypeFor(MsgType::kPing));
  }
  EXPECT_EQ(server.WaitForExit(), 0);
}

}  // namespace
}  // namespace popan::server
