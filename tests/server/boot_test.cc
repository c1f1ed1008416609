// BootWithWal: the durable server's startup matrix. The regression that
// motivated the extraction: booting with --wal pointed at an EMPTY file
// (the first-boot crash window — the process died after creating the
// log but before the header flushed) used to feed zero bytes to
// ReplayWal, fail with "unusable header", and brick the store forever.

#include "server/boot.h"

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "geometry/point.h"
#include "server/cow_store.h"
#include "server/server_core.h"
#include "spatial/pr_tree.h"
#include "testing/server_testing.h"
#include "testing/statusor_testing.h"
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

std::string WalPath(const std::string& name) {
  std::string path = testing::TempDir() + "/popan_boot_" + name + ".wal";
  std::remove(path.c_str());
  return path;
}

TEST(BootTest, MissingFileIsCreatedAsFreshBoot) {
  std::string path = WalPath("missing");
  BootResult boot = ValueOrDie(BootWithWal(path, UnitDomain(), SmallTree()));
  EXPECT_TRUE(boot.fresh);
  EXPECT_EQ(boot.initial_sequence, 0u);
  EXPECT_TRUE(boot.seed_points.empty());
  ASSERT_TRUE(boot.wal.has_value());
  EXPECT_EQ(boot.wal->next_sequence(), 1u);
  // The header is on disk once flushed: a reboot resumes, not re-creates.
  ASSERT_TRUE(ValueOrDie(boot.wal->LogInsert(Point2(0.5, 0.5))) == 1u);
  boot.wal_stream->flush();
  BootResult again =
      ValueOrDie(BootWithWal(path, UnitDomain(), SmallTree()));
  EXPECT_FALSE(again.fresh);
  EXPECT_EQ(again.initial_sequence, 1u);
  EXPECT_EQ(again.seed_points.size(), 1u);
}

TEST(BootTest, EmptyFileIsFreshBootNotCorruption) {
  // THE regression: an existing zero-byte log must boot, not brick.
  std::string path = WalPath("empty");
  { std::ofstream touch(path, std::ios::binary); }
  StatusOr<BootResult> booted = BootWithWal(path, UnitDomain(), SmallTree());
  ASSERT_TRUE(booted.ok()) << booted.status().ToString();
  BootResult boot = std::move(booted).value();
  EXPECT_TRUE(boot.fresh);
  EXPECT_EQ(boot.initial_sequence, 0u);
  // And the fresh log is genuinely usable end to end: serve a write
  // through ServerCore, then recover it on the next boot.
  {
    ServerCore core(std::make_unique<CowTreeBackend>(UnitDomain(),
                                                     SmallTree(), &*boot.wal));
    uint64_t client = core.OpenClient();
    Request insert;
    insert.type = MsgType::kInsert;
    insert.point = Point2(0.25, 0.75);
    EXPECT_EQ(Ask(&core, client, insert).status, 0);
    EXPECT_EQ(core.sequence(), 1u);
    boot.wal_stream->flush();
  }
  BootResult recovered =
      ValueOrDie(BootWithWal(path, UnitDomain(), SmallTree()));
  EXPECT_FALSE(recovered.fresh);
  EXPECT_EQ(recovered.initial_sequence, 1u);
  ASSERT_EQ(recovered.seed_points.size(), 1u);
  EXPECT_EQ(recovered.seed_points[0], Point2(0.25, 0.75));
}

TEST(BootTest, TornTailIsTruncatedAndResumed) {
  std::string path = WalPath("torn");
  BootResult boot = ValueOrDie(BootWithWal(path, UnitDomain(), SmallTree()));
  ASSERT_TRUE(ValueOrDie(boot.wal->LogInsert(Point2(0.1, 0.1))) == 1u);
  ASSERT_TRUE(ValueOrDie(boot.wal->LogInsert(Point2(0.9, 0.9))) == 2u);
  boot.wal_stream->flush();
  {
    std::ofstream append(path, std::ios::binary | std::ios::app);
    append << "3 I 0.5";  // torn mid-record, no checksum, no newline
  }
  BootResult recovered =
      ValueOrDie(BootWithWal(path, UnitDomain(), SmallTree()));
  EXPECT_FALSE(recovered.fresh);
  EXPECT_TRUE(recovered.truncated_tail);
  EXPECT_EQ(recovered.seed_points.size(), 2u);
  EXPECT_EQ(recovered.initial_sequence, 2u);
  // The resumed writer lands on a record boundary with the next
  // sequence; a third boot must see all three records intact.
  ASSERT_TRUE(ValueOrDie(recovered.wal->LogInsert(Point2(0.5, 0.5))) == 3u);
  recovered.wal_stream->flush();
  BootResult third = ValueOrDie(BootWithWal(path, UnitDomain(), SmallTree()));
  EXPECT_FALSE(third.truncated_tail);
  EXPECT_EQ(third.seed_points.size(), 3u);
  EXPECT_EQ(third.initial_sequence, 3u);
}

TEST(BootTest, GeometryMismatchIsFailedPrecondition) {
  std::string path = WalPath("mismatch");
  BootResult boot = ValueOrDie(BootWithWal(path, UnitDomain(), SmallTree()));
  ASSERT_TRUE(ValueOrDie(boot.wal->LogInsert(Point2(0.5, 0.5))) == 1u);
  boot.wal_stream->flush();
  spatial::PrTreeOptions other = SmallTree();
  other.capacity = 7;
  StatusOr<BootResult> rebooted = BootWithWal(path, UnitDomain(), other);
  ASSERT_FALSE(rebooted.ok());
  EXPECT_EQ(rebooted.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace popan::server
