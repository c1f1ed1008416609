#ifndef POPAN_SERVER_PROTOCOL_H_
#define POPAN_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "spatial/query_cost.h"
#include "util/statusor.h"

namespace popan::server {

/// The popan query-server wire protocol: binary, length-prefixed,
/// little-endian, pipelined.
///
/// Every message is a frame:
///
///   u32  payload length (bytes that follow; excludes these 4)
///   u8   message type (first payload byte)
///   ...  type-specific body
///
/// A client may write any number of request frames back-to-back before
/// reading (pipelining); the server answers each request with exactly one
/// response frame, in request order, and interleaves notification frames
/// (type kNotification) for the client's region subscriptions. Response
/// types are the request type with the high bit set.
///
/// All integers are little-endian; doubles are IEEE-754 bit patterns in
/// little-endian u64s. Frame payloads are capped at kMaxPayloadBytes —
/// a length prefix beyond the cap is a protocol error, not an allocation.
inline constexpr uint32_t kMaxPayloadBytes = 1u << 24;

/// Caps on client-chosen result sizes, so one request cannot demand an
/// absurd allocation: batch inserts and k-NN k share the same ceiling.
inline constexpr uint32_t kMaxBatchPoints = 1u << 20;
inline constexpr uint32_t kMaxKnnK = 1u << 20;

enum class MsgType : uint8_t {
  kInsert = 0x01,       ///< x f64, y f64
  kErase = 0x02,        ///< x f64, y f64
  kInsertBatch = 0x03,  ///< u32 n, then n x (x f64, y f64)
  kRange = 0x04,        ///< lox, loy, hix, hiy f64
  kPartialMatch = 0x05, ///< u8 axis, f64 value
  kNearestK = 0x06,     ///< x f64, y f64, u32 k
  kCensus = 0x07,       ///< (empty)
  kSubscribe = 0x08,    ///< lox, loy, hix, hiy f64
  kUnsubscribe = 0x09,  ///< u64 subscription id
  kPing = 0x0a,         ///< (empty)
  kNotification = 0xc0, ///< server->client only; never a request
};

/// Response type for a request type (high bit set).
inline constexpr uint8_t ResponseTypeFor(MsgType t) {
  return static_cast<uint8_t>(t) | 0x80u;
}

/// True for the requests answered from a pinned snapshot without
/// changing server state: range, partial match, k-NN and census.
inline constexpr bool IsReadKind(MsgType t) {
  return t == MsgType::kRange || t == MsgType::kPartialMatch ||
         t == MsgType::kNearestK || t == MsgType::kCensus;
}

/// Request types that change the store.
inline constexpr bool IsWriteKind(MsgType t) {
  return t == MsgType::kInsert || t == MsgType::kErase ||
         t == MsgType::kInsertBatch;
}

/// A decoded request. Exactly the fields named by `type` are meaningful.
struct Request {
  MsgType type = MsgType::kPing;
  geo::Point2 point;               ///< insert / erase / k-NN target
  std::vector<geo::Point2> batch;  ///< insert-batch
  geo::Box2 box;                   ///< range / subscribe
  uint8_t axis = 0;                ///< partial-match
  double value = 0.0;              ///< partial-match
  uint32_t k = 1;                  ///< k-NN
  uint64_t sub_id = 0;             ///< unsubscribe
};

/// A decoded response.
///
/// Body layouts after the (type, status) prefix — present only when
/// status is 0 (OK); an error response instead carries u32 length + that
/// many message bytes:
///
///   insert/erase     u64 sequence
///   insert-batch     u32 inserted, u32 duplicates, u32 rejected,
///                    u64 last_sequence
///   range / partial  cost (4 x u64), f64 predicted_nodes,
///     / k-NN         u32 n, then n x (x f64, y f64)
///   census           u64 sequence, u64 size, u64 leaf_count,
///                    u32 max_depth, f64 average_occupancy
///   subscribe        u64 subscription id
///   unsubscribe/ping (empty)
struct Response {
  uint8_t type = 0;        ///< ResponseTypeFor(request type)
  uint8_t status = 0;      ///< StatusCode as u8; 0 = OK
  std::string message;     ///< error text when status != 0
  uint64_t sequence = 0;
  uint32_t inserted = 0;
  uint32_t duplicates = 0;
  uint32_t rejected = 0;
  spatial::QueryCost cost;
  double predicted_nodes = 0.0;
  std::vector<geo::Point2> points;
  uint64_t size = 0;
  uint64_t leaf_count = 0;
  uint32_t max_depth = 0;
  double average_occupancy = 0.0;
  uint64_t sub_id = 0;
};

/// A region-subscription notification: the write at `sequence` touched
/// subscription `sub_id`'s box with `op` ('I' or 'E') at `point`.
struct Notification {
  uint64_t sub_id = 0;
  char op = 'I';
  geo::Point2 point;
  uint64_t sequence = 0;
};

/// Little-endian primitive appenders, shared by both sides of the wire.
void AppendU8(std::string* out, uint8_t v);
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
void AppendF64(std::string* out, double v);

/// A bounds-checked little-endian reader over a payload.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : data_(payload) {}

  [[nodiscard]] StatusOr<uint8_t> ReadU8();
  [[nodiscard]] StatusOr<uint32_t> ReadU32();
  [[nodiscard]] StatusOr<uint64_t> ReadU64();
  [[nodiscard]] StatusOr<double> ReadF64();

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// Encodes a request as a complete frame (length prefix included).
std::string EncodeRequestFrame(const Request& request);

/// Decodes one request payload (no length prefix). Malformed payloads —
/// unknown type, short body, trailing bytes, non-finite coordinates, an
/// inverted box — are InvalidArgument; the connection can answer with an
/// error response and keep the stream (framing is still intact).
[[nodiscard]] StatusOr<Request> DecodeRequestPayload(
    std::string_view payload);

/// Encodes a response / notification as a complete frame.
std::string EncodeResponseFrame(const Response& response);
std::string EncodeNotificationFrame(const Notification& notification);

/// Decodes a response or notification payload (client side).
[[nodiscard]] StatusOr<Response> DecodeResponsePayload(
    std::string_view payload);
[[nodiscard]] StatusOr<Notification> DecodeNotificationPayload(
    std::string_view payload);

/// Frame splitter for a streaming buffer. Starting at `*offset` in
/// `buffer`: returns true and advances `*offset` past the frame when a
/// complete frame is available, filling `*payload` with a view into
/// `buffer`. Returns false when more bytes are needed. A length prefix
/// over kMaxPayloadBytes poisons the stream: the Status out-param is set
/// and the connection must be dropped (resynchronization is impossible).
bool NextFrame(std::string_view buffer, size_t* offset,
               std::string_view* payload, Status* error);

}  // namespace popan::server

#endif  // POPAN_SERVER_PROTOCOL_H_
