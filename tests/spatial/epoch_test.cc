#include "spatial/epoch.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace popan::spatial {
namespace {

/// Counts deletions through the raw Retire interface so tests can observe
/// exactly when the manager frees things.
std::atomic<int> g_freed{0};

int* NewTracked() { return new int(0); }

void TrackedDeleter(void* p, void* /*context*/) {
  delete static_cast<int*>(p);
  g_freed.fetch_add(1, std::memory_order_relaxed);
}

class EpochTest : public ::testing::Test {
 protected:
  void SetUp() override { g_freed.store(0, std::memory_order_relaxed); }
};

TEST_F(EpochTest, RetireAtCurrentEpochIsNotFreedUntilAdvance) {
  EpochManager epochs;
  epochs.Retire(NewTracked(), TrackedDeleter);
  // The tag equals the current epoch, and the free condition is strict:
  // nothing may be freed in the epoch it was retired in.
  EXPECT_EQ(epochs.Reclaim(), 0u);
  EXPECT_EQ(epochs.limbo_size(), 1u);
  epochs.AdvanceEpoch();
  EXPECT_EQ(epochs.Reclaim(), 1u);
  EXPECT_EQ(g_freed.load(std::memory_order_relaxed), 1);
  EXPECT_EQ(epochs.limbo_size(), 0u);
}

TEST_F(EpochTest, PinnedReaderBlocksReclamation) {
  EpochManager epochs;
  EpochManager::Pin pin = epochs.PinReader();
  epochs.Retire(NewTracked(), TrackedDeleter);
  epochs.AdvanceEpoch();
  // The pin settled at or before the retire epoch, so the object must
  // survive as long as the pin is held.
  EXPECT_EQ(epochs.Reclaim(), 0u);
  EXPECT_EQ(g_freed.load(std::memory_order_relaxed), 0);
  pin.Release();
  EXPECT_EQ(epochs.Reclaim(), 1u);
  EXPECT_EQ(g_freed.load(std::memory_order_relaxed), 1);
}

TEST_F(EpochTest, LateReaderDoesNotBlockEarlierRetirements) {
  EpochManager epochs;
  epochs.Retire(NewTracked(), TrackedDeleter);
  epochs.AdvanceEpoch();
  // This pin settles at the advanced epoch; the earlier retirement is
  // tagged strictly below it and may be freed under the pin.
  EpochManager::Pin pin = epochs.PinReader();
  EXPECT_EQ(epochs.Reclaim(), 1u);
  EXPECT_EQ(g_freed.load(std::memory_order_relaxed), 1);
}

TEST_F(EpochTest, MinPinnedEpochTracksOldestPin) {
  EpochManager epochs;
  EXPECT_EQ(epochs.MinPinnedEpoch(42), 42u);
  EpochManager::Pin first = epochs.PinReader();
  uint64_t e1 = first.epoch();
  epochs.AdvanceEpoch();
  epochs.AdvanceEpoch();
  EpochManager::Pin second = epochs.PinReader();
  EXPECT_GT(second.epoch(), e1);
  EXPECT_EQ(epochs.MinPinnedEpoch(~uint64_t{0}), e1);
  first.Release();
  EXPECT_EQ(epochs.MinPinnedEpoch(~uint64_t{0}), second.epoch());
}

TEST_F(EpochTest, MovedPinReleasesExactlyOnce) {
  EpochManager epochs;
  EpochManager::Pin outer;
  EXPECT_FALSE(outer.active());
  {
    EpochManager::Pin inner = epochs.PinReader();
    EXPECT_TRUE(inner.active());
    outer = std::move(inner);
    EXPECT_FALSE(inner.active());
  }
  EXPECT_TRUE(outer.active());
  epochs.Retire(NewTracked(), TrackedDeleter);
  epochs.AdvanceEpoch();
  EXPECT_EQ(epochs.Reclaim(), 0u);
  outer.Release();
  EXPECT_EQ(epochs.Reclaim(), 1u);
}

TEST_F(EpochTest, CountersAccount) {
  EpochManager epochs;
  EXPECT_EQ(epochs.current_epoch(), 1u);
  for (int i = 0; i < 5; ++i) {
    epochs.Retire(NewTracked(), TrackedDeleter);
    epochs.AdvanceEpoch();
  }
  EXPECT_EQ(epochs.epochs_advanced(), 5u);
  EXPECT_EQ(epochs.objects_retired(), 5u);
  EXPECT_EQ(epochs.Reclaim(), 5u);
  EXPECT_EQ(epochs.objects_reclaimed(), 5u);
}

TEST_F(EpochTest, DestructorDrainsLimbo) {
  {
    EpochManager epochs;
    epochs.Retire(NewTracked(), TrackedDeleter);
    epochs.Retire(NewTracked(), TrackedDeleter);
  }
  EXPECT_EQ(g_freed.load(std::memory_order_relaxed), 2);
}

TEST_F(EpochTest, RetireCarriesItsContextToTheDeleter) {
  // The snapshot tree retires pooled nodes with the pool as context; the
  // deleter must see that context, entry by entry, in retire order, on
  // both the Reclaim and the ReclaimAll path.
  struct Sink {
    std::vector<int> released;
  };
  const auto release = [](void* p, void* context) {
    static_cast<Sink*>(context)->released.push_back(*static_cast<int*>(p));
    delete static_cast<int*>(p);
  };
  Sink first;
  Sink second;
  {
    EpochManager epochs;
    epochs.Retire(new int(1), release, &first);
    epochs.Retire(new int(2), release, &second);
    epochs.Retire(new int(3), release, &first);
    EpochManager::Pin pin = epochs.PinReader();
    epochs.AdvanceEpoch();
    epochs.Retire(new int(4), release, &second);
    EXPECT_EQ(epochs.Reclaim(), 0u);  // the pin holds epoch 1
    pin.Release();
    epochs.AdvanceEpoch();
    EXPECT_EQ(epochs.Reclaim(), 4u);
    epochs.Retire(new int(5), release, &first);
    EXPECT_EQ(epochs.objects_reclaimed(), 4u);
  }  // the destructor's ReclaimAll releases 5
  EXPECT_EQ(first.released, (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(second.released, (std::vector<int>{2, 4}));
}

// The TSan smoke for the manager itself: readers pin/unpin in a tight
// loop while the writer retires, advances, and reclaims. Nothing may be
// freed while any pin from an epoch at or below its tag is live — a
// use-after-free here is exactly what TSan + ASan storms are gating.
TEST_F(EpochTest, ConcurrentPinUnpinWhileWriterReclaims) {
  EpochManager epochs;
  std::atomic<bool> stop{false};
  constexpr int kReaders = 8;
  // The point of this test is unpooled readers hammering pin/unpin
  // against a live writer; ThreadPool's join barrier would serialize it.
  // popan-lint: allow(raw-thread-spawn)
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&epochs, &stop]() {
      while (!stop.load(std::memory_order_relaxed)) {
        EpochManager::Pin pin = epochs.PinReader();
        // A real reader would traverse here; the pin lifetime is the test.
      }
    });
  }
  constexpr int kOps = 20000;
  for (int i = 0; i < kOps; ++i) {
    epochs.Retire(NewTracked(), TrackedDeleter);
    epochs.AdvanceEpoch();
    epochs.Reclaim();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  epochs.AdvanceEpoch();
  epochs.Reclaim();
  EXPECT_EQ(epochs.objects_retired(), static_cast<uint64_t>(kOps));
  EXPECT_EQ(epochs.objects_reclaimed(), static_cast<uint64_t>(kOps));
  EXPECT_EQ(g_freed.load(std::memory_order_relaxed), kOps);
}

}  // namespace
}  // namespace popan::spatial
