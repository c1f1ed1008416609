#ifndef POPAN_TESTS_TESTING_SERVER_TESTING_H_
#define POPAN_TESTS_TESTING_SERVER_TESTING_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "geometry/point.h"
#include "server/protocol.h"
#include "server/server_core.h"
#include "server/store.h"
#include "testing/statusor_testing.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace popan::server {

/// A decoded outbox entry: exactly one of response / notification.
struct OutFrame {
  bool is_notification = false;
  Response response;
  Notification notification;
};

inline std::string Frame(const Request& request) {
  return EncodeRequestFrame(request);
}

/// Waits for the core's read runs in flight, takes everything queued for
/// `client_id` and decodes it frame by frame; a frame that decodes as
/// neither a response nor a notification, or a torn tail, fails the test.
inline std::vector<OutFrame> DrainFrames(ServerCore* core,
                                         uint64_t client_id) {
  core->WaitForReads();
  std::string bytes = core->TakeOutput(client_id);
  std::vector<OutFrame> frames;
  size_t offset = 0;
  std::string_view payload;
  Status error;
  while (NextFrame(bytes, &offset, &payload, &error)) {
    OutFrame frame;
    if (!payload.empty() &&
        static_cast<uint8_t>(payload[0]) ==
            static_cast<uint8_t>(MsgType::kNotification)) {
      frame.is_notification = true;
      frame.notification = ValueOrDie(DecodeNotificationPayload(payload));
    } else {
      frame.response = ValueOrDie(DecodeResponsePayload(payload));
    }
    frames.push_back(std::move(frame));
  }
  EXPECT_TRUE(error.ok());
  EXPECT_EQ(offset, bytes.size());
  return frames;
}

/// Pins a read view of `core`'s store, as ConsumeBytes does for a run of
/// reads. The view keeps answering from this point while later writes
/// land.
[[nodiscard]] inline StatusOr<std::unique_ptr<const ReadView>> Pin(
    const ServerCore& core) {
  return core.store().PrepareRead();
}

/// One round trip: sends `request` from `client_id` as a frame and
/// returns its one response. Notifications queued for the client are
/// dropped.
inline Response Ask(ServerCore* core, uint64_t client_id,
                    const Request& request) {
  EXPECT_TRUE(core->ConsumeBytes(client_id, Frame(request)).ok());
  std::vector<Response> responses;
  for (OutFrame& frame : DrainFrames(core, client_id)) {
    if (!frame.is_notification) {
      responses.push_back(std::move(frame.response));
    }
  }
  EXPECT_EQ(responses.size(), 1u);
  return responses.empty() ? Response() : std::move(responses.front());
}

/// A latch: Pass blocks until Open has been called, from any thread.
class Gate {
 public:
  void Open() {
    {
      popan::MutexLock lock(mu_);
      open_ = true;
    }
    opened_.NotifyAll();
  }

  void Pass() {
    popan::MutexLock lock(mu_);
    while (!open_) opened_.Wait(lock);
  }

 private:
  popan::Mutex mu_;
  popan::CondVar opened_;
  bool open_ GUARDED_BY(mu_) = false;
};

/// A view that answers as `inner` does, once `gate` is open.
class GatedView final : public ReadView {
 public:
  GatedView(std::unique_ptr<const ReadView> inner, Gate* gate)
      : inner_(std::move(inner)), gate_(gate) {}

  Response Complete(const Request& request) const override {
    gate_->Pass();
    return inner_->Complete(request);
  }
  uint64_t sequence() const override { return inner_->sequence(); }

 private:
  std::unique_ptr<const ReadView> inner_;
  Gate* gate_;
};

/// Serves `inner` with reads that wait on `gate`, so a test can hold a
/// core's read runs in flight while it goes on. A PrepareRead that finds
/// no reader slot free opens the gate (the runs holding the slots can
/// then finish) and is counted.
class GatedBackend final : public StoreBackend {
 public:
  GatedBackend(std::unique_ptr<StoreBackend> inner, Gate* gate)
      : inner_(std::move(inner)), gate_(gate) {}

  const geo::Box2& bounds() const override { return inner_->bounds(); }
  uint64_t sequence() const override { return inner_->sequence(); }
  size_t size() const override { return inner_->size(); }
  [[nodiscard]] StatusOr<uint64_t> ApplyInsert(
      const geo::Point2& p) override {
    return inner_->ApplyInsert(p);
  }
  [[nodiscard]] StatusOr<uint64_t> ApplyErase(
      const geo::Point2& p) override {
    return inner_->ApplyErase(p);
  }
  void BeginWriteRun() override { inner_->BeginWriteRun(); }
  void EndWriteRun() override { inner_->EndWriteRun(); }
  [[nodiscard]] StatusOr<std::unique_ptr<const ReadView>> PrepareRead()
      const override {
    StatusOr<std::unique_ptr<const ReadView>> view = inner_->PrepareRead();
    if (!view.ok()) {
      ++pin_failures_;
      gate_->Open();
      return view;
    }
    return std::unique_ptr<const ReadView>(
        std::make_unique<GatedView>(std::move(view).value(), gate_));
  }

  /// PrepareRead calls that found no reader slot free.
  size_t pin_failures() const { return pin_failures_; }

 private:
  std::unique_ptr<StoreBackend> inner_;
  Gate* gate_;
  mutable size_t pin_failures_ = 0;
};

}  // namespace popan::server

#endif  // POPAN_TESTS_TESTING_SERVER_TESTING_H_
