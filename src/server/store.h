#ifndef POPAN_SERVER_STORE_H_
#define POPAN_SERVER_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "geometry/box.h"
#include "geometry/point.h"
#include "server/protocol.h"
#include "util/statusor.h"

namespace popan::server {

/// A pinned, immutable view of the store at one sequence point.
/// Produced serially by StoreBackend::PrepareRead on the command thread;
/// Complete() is pure and safe on any thread — the response is a
/// function of (view, request) only, so results are bit-identical at any
/// thread count and writes after the pin stay invisible to it. ServerCore
/// pins one view per run of reads. With read threads it calls Complete on
/// that ONE view from several threads at once, so Complete must not write
/// shared state, and a pooled run's view may still be completing while
/// the command thread applies later writes to the backend: the view must
/// keep its version alive and readable on its own. The worker that
/// completes a run's last read destroys the view, so releasing the pin
/// must be safe on any thread.
class ReadView {
 public:
  virtual ~ReadView() = default;

  /// Builds the response for one read-kind request (range /
  /// partial-match / k-NN / census) against this pinned view.
  virtual Response Complete(const Request& request) const = 0;

  /// The store's op clock at pin time.
  virtual uint64_t sequence() const = 0;
};

/// The storage engine behind ServerCore. Two implementations: a single
/// copy-on-write PR quadtree (CowTreeBackend, cow_store.h) and a
/// Morton-range sharded map (ShardStoreBackend, shard_store.h). The
/// protocol layer cannot tell them apart: both merge query answers
/// through the canonical ordering layer, so response POINTS are bitwise
/// identical for the same point set regardless of backend.
///
/// Threading contract: every method runs on ServerCore's single command
/// thread; only the ReadViews handed out by PrepareRead may leave it.
/// ServerCore expresses this by guarding its backend pointer with the
/// command-role capability.
class StoreBackend {
 public:
  virtual ~StoreBackend() = default;

  virtual const geo::Box2& bounds() const = 0;

  /// Logical op clock: successful writes since construction, plus the
  /// recovered prefix after a restart.
  virtual uint64_t sequence() const = 0;
  virtual size_t size() const = 0;

  /// Applies one write and returns the sequence it was stamped with.
  /// Typed failures (AlreadyExists, NotFound, OutOfRange, ...) pass
  /// through from the structure; a failed write burns no sequence.
  /// Callers validate coordinates are finite BEFORE applying — the
  /// backend's durability log must never see a record that could fail
  /// after the structure changed.
  [[nodiscard]] virtual StatusOr<uint64_t> ApplyInsert(
      const geo::Point2& p) = 0;
  [[nodiscard]] virtual StatusOr<uint64_t> ApplyErase(
      const geo::Point2& p) = 0;

  /// Bracket a write run: writes ServerCore applies back to back, with no
  /// read or other request between them. Inside a run the backend may
  /// share work across the writes (path copies, one published version,
  /// one log flush); each write still returns its own sequence and
  /// status. EndWriteRun leaves every write of the run visible to the
  /// next PrepareRead and flushed to the OS, as a lone write is. The
  /// defaults do nothing, so a backend that ignores them applies each
  /// write alone.
  virtual void BeginWriteRun() {}
  virtual void EndWriteRun() {}

  /// Pins a read view. ResourceExhausted when all epoch reader slots
  /// are taken — the caller sheds load with an error response instead
  /// of crashing.
  [[nodiscard]] virtual StatusOr<std::unique_ptr<const ReadView>>
  PrepareRead() const = 0;
};

}  // namespace popan::server

#endif  // POPAN_SERVER_STORE_H_
