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

#include "server/protocol.h"
#include "server/server_core.h"
#include "server/store.h"
#include "testing/statusor_testing.h"
#include "util/status.h"
#include "util/statusor.h"

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

/// Takes everything queued for `client_id` and decodes it frame by frame;
/// a frame that decodes as neither a response nor a notification, or a
/// torn tail, fails the test.
inline std::vector<OutFrame> DrainFrames(ServerCore* core,
                                         uint64_t client_id) {
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

}  // namespace popan::server

#endif  // POPAN_TESTS_TESTING_SERVER_TESTING_H_
