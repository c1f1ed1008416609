#include "server/server_core.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/thread_pool.h"
#include "util/check.h"

namespace popan::server {

namespace {

Response ErrorResponse(MsgType type, const Status& status) {
  Response response;
  response.type = ResponseTypeFor(type);
  response.status = static_cast<uint8_t>(status.code());
  response.message = status.message();
  return response;
}

/// The request type an undecodable payload is answered for: its own type
/// byte when that names a request, else 0, whose response type 0x80 every
/// client reads as a response. Setting the high bit of any byte would
/// answer 0x40 and 0xC0 with 0xC0, the notification type.
MsgType TypeOfUndecodable(std::string_view payload) {
  const uint8_t t = payload.empty() ? 0 : static_cast<uint8_t>(payload[0]);
  const bool is_request = t >= static_cast<uint8_t>(MsgType::kInsert) &&
                          t <= static_cast<uint8_t>(MsgType::kPing);
  return static_cast<MsgType>(is_request ? t : 0);
}

bool FinitePoint(const geo::Point2& p) {
  // Box::Contains is comparison-based, so a NaN coordinate slips through
  // every bound check; reject it explicitly before it reaches the tree.
  return std::isfinite(p.x()) && std::isfinite(p.y());
}

}  // namespace

ServerCore::ServerCore(std::unique_ptr<StoreBackend> store,
                       size_t read_threads)
    : store_(std::move(store)),
      subs_(store_->bounds()),
      read_threads_(read_threads) {
  POPAN_CHECK(store_ != nullptr);
}

ServerCore::~ServerCore() = default;

uint64_t ServerCore::OpenClient() {
  popan::AssumeRole command(command_role_);
  uint64_t id = next_client_id_++;
  clients_.emplace(id, ClientState{});
  return id;
}

Status ServerCore::CloseClient(uint64_t client_id) {
  popan::AssumeRole command(command_role_);
  auto it = clients_.find(client_id);
  if (it == clients_.end()) {
    return Status::NotFound("unknown client " + std::to_string(client_id));
  }
  for (uint64_t sub_id : it->second.sub_ids) {
    Status dropped = subs_.Unsubscribe(sub_id);
    POPAN_CHECK(dropped.ok()) << dropped.ToString();
    sub_owner_.erase(sub_id);
  }
  clients_.erase(it);
  return Status::OK();
}

Status ServerCore::ConsumeBytes(uint64_t client_id, std::string_view bytes) {
  popan::AssumeRole command(command_role_);
  auto it = clients_.find(client_id);
  if (it == clients_.end()) {
    return Status::NotFound("unknown client " + std::to_string(client_id));
  }
  ClientState* client = &it->second;
  client->inbox.append(bytes.data(), bytes.size());
  size_t offset = 0;
  Status frame_error;
  std::string_view payload;
  // Drain every complete frame already buffered — this is what makes
  // pipelining work: a burst of N requests is answered with N responses
  // from one ConsumeBytes call, no transport round-trips in between.
  // Read-kind requests are held back as a run; any other frame answers
  // the run first, so responses stay in request order. Consecutive
  // writes are applied inside one store write run; any other frame ends
  // it first, so a later read sees every write before it.
  while (NextFrame(client->inbox, &offset, &payload, &frame_error)) {
    StatusOr<Request> request = DecodeRequestPayload(payload);
    if (request.ok() && IsReadKind(request.value().type)) {
      EndWriteRun();
      read_run_.push_back(std::move(request).value());
      continue;
    }
    FlushReadRun(client);
    if (request.ok() && IsWriteKind(request.value().type)) {
      if (!write_run_open_) {
        store_->BeginWriteRun();
        write_run_open_ = true;
      }
      Answer(client, HandleWrite(request.value()));
      continue;
    }
    EndWriteRun();
    // Framing is intact even when the payload is not: answer and carry on.
    Answer(client, request.ok()
                       ? HandleControl(client_id, request.value())
                       : ErrorResponse(TypeOfUndecodable(payload),
                                       request.status()));
  }
  // The run's WAL records reach the OS here, before the caller can send
  // any of its acks.
  EndWriteRun();
  FlushReadRun(client);
  client->inbox.erase(0, offset);
  return frame_error;
}

void ServerCore::EndWriteRun() {
  if (!write_run_open_) return;
  store_->EndWriteRun();
  write_run_open_ = false;
}

void ServerCore::Answer(ClientState* client, const Response& response) {
  Out(client) += EncodeResponseFrame(response);
}

void ServerCore::FlushReadRun(ClientState* client) {
  if (read_run_.empty()) return;
  // One pin serves the whole run: every frame of it was decoded by this
  // ConsumeBytes call, so no write can have landed in between.
  StatusOr<std::unique_ptr<const ReadView>> view = store_->PrepareRead();
  if (!view.ok() && read_pool_ != nullptr) {
    // This core's own runs may hold every reader slot; each releases its
    // pin as it completes.
    read_pool_->Wait();
    view = store_->PrepareRead();
  }
  CollectRuns(client);
  if (!view.ok()) {
    // No reader slot free: shed each read with the error.
    for (const Request& request : read_run_) {
      Answer(client, ErrorResponse(request.type, view.status()));
    }
  } else if (read_threads_ > 0 &&
             (read_run_.size() >= 2 || !client->runs.empty())) {
    StartRun(client, std::move(view).value());
  } else {
    for (const Request& request : read_run_) {
      Answer(client, view.value()->Complete(request));
    }
  }
  read_run_.clear();
}

void ServerCore::StartRun(ClientState* client,
                          std::unique_ptr<const ReadView> view) {
  if (read_pool_ == nullptr) {
    read_pool_ = std::make_unique<sim::ThreadPool>(read_threads_);
  }
  auto run = std::make_shared<PooledRun>();
  run->view = std::move(view);
  run->requests.swap(read_run_);
  run->frames.resize(run->requests.size());
  run->reads_left.store(run->requests.size(), std::memory_order_relaxed);
  client->runs.push_back(run);
  for (size_t i = 0; i < run->requests.size(); ++i) {
    read_pool_->Submit([this, run, i] { CompleteRead(run.get(), i); });
  }
}

void ServerCore::CompleteRead(PooledRun* run, size_t i) {
  run->frames[i] = EncodeResponseFrame(run->view->Complete(run->requests[i]));
  if (run->reads_left.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  size_t total = 0;
  for (const std::string& frame : run->frames) total += frame.size();
  run->bytes.reserve(total);
  for (const std::string& frame : run->frames) run->bytes += frame;
  run->frames = {};
  run->view.reset();  // the pin goes with the run's last read
  run->done.store(true, std::memory_order_release);
  if (reads_done_) reads_done_();
}

void ServerCore::CollectRuns(ClientState* client) {
  while (!client->runs.empty() &&
         client->runs.front()->done.load(std::memory_order_acquire)) {
    PooledRun& head = *client->runs.front();
    for (std::string* bytes : {&head.bytes, &head.after}) {
      if (client->outbox.empty()) {
        client->outbox.swap(*bytes);
      } else {
        client->outbox += *bytes;
      }
    }
    client->runs.pop_front();
  }
}

std::string ServerCore::TakeOutput(uint64_t client_id) {
  popan::AssumeRole command(command_role_);
  auto it = clients_.find(client_id);
  if (it == clients_.end()) return std::string();
  CollectRuns(&it->second);
  return std::exchange(it->second.outbox, std::string());
}

std::vector<uint64_t> ServerCore::ClientsWithOutput() const {
  popan::AssumeRole command(command_role_);
  std::vector<uint64_t> ids;
  for (const auto& [id, state] : clients_) {
    if (!state.outbox.empty() ||
        (!state.runs.empty() &&
         state.runs.front()->done.load(std::memory_order_acquire))) {
      ids.push_back(id);
    }
  }
  return ids;
}

void ServerCore::WaitForReads() {
  popan::AssumeRole command(command_role_);
  if (read_pool_ != nullptr) read_pool_->Wait();
}

void ServerCore::SetReadsDoneCallback(std::function<void()> callback) {
  popan::AssumeRole command(command_role_);
  if (read_pool_ != nullptr) read_pool_->Wait();
  reads_done_ = std::move(callback);
}

Response ServerCore::HandleWrite(const Request& request) {
  Response response;
  response.type = ResponseTypeFor(request.type);
  if (request.type == MsgType::kInsertBatch) {
    for (const geo::Point2& p : request.batch) {
      if (!FinitePoint(p)) {
        ++response.rejected;
        continue;
      }
      StatusOr<uint64_t> applied = store_->ApplyInsert(p);
      if (applied.ok()) {
        NotifyWrite('I', p, applied.value());
        ++response.inserted;
      } else if (applied.status().code() == StatusCode::kAlreadyExists) {
        ++response.duplicates;
      } else {
        ++response.rejected;
      }
    }
    response.sequence = store_->sequence();
    return response;
  }
  const geo::Point2& p = request.point;
  if (!FinitePoint(p)) {
    return ErrorResponse(request.type, Status::InvalidArgument(
                                           "non-finite coordinate"));
  }
  StatusOr<uint64_t> applied = request.type == MsgType::kInsert
                                   ? store_->ApplyInsert(p)
                                   : store_->ApplyErase(p);
  if (!applied.ok()) {
    return ErrorResponse(request.type, applied.status());
  }
  char op = request.type == MsgType::kInsert ? 'I' : 'E';
  NotifyWrite(op, p, applied.value());
  response.sequence = applied.value();
  return response;
}

Response ServerCore::HandleControl(uint64_t client_id,
                                   const Request& request) {
  Response response;
  response.type = ResponseTypeFor(request.type);
  std::vector<uint64_t>& owned = clients_.find(client_id)->second.sub_ids;
  if (request.type == MsgType::kSubscribe) {
    StatusOr<uint64_t> sub_id = subs_.Subscribe(request.box);
    if (!sub_id.ok()) return ErrorResponse(request.type, sub_id.status());
    sub_owner_.emplace(sub_id.value(), client_id);
    owned.push_back(sub_id.value());
    response.sub_id = sub_id.value();
  } else if (request.type == MsgType::kUnsubscribe) {
    auto owner = sub_owner_.find(request.sub_id);
    if (owner == sub_owner_.end() || owner->second != client_id) {
      // A client can only drop its own subscriptions; an id owned by
      // another connection is indistinguishable from a dead one.
      return ErrorResponse(
          request.type,
          Status::NotFound("subscription " + std::to_string(request.sub_id) +
                           " is not registered to this client"));
    }
    Status dropped = subs_.Unsubscribe(request.sub_id);
    POPAN_CHECK(dropped.ok()) << dropped.ToString();
    sub_owner_.erase(owner);
    owned.erase(std::find(owned.begin(), owned.end(), request.sub_id));
  }
  return response;  // a ping's answer is the bare response
}

void ServerCore::NotifyWrite(char op, const geo::Point2& p,
                             uint64_t sequence) {
  match_scratch_.clear();
  subs_.Match(p, &match_scratch_);
  for (uint64_t sub_id : match_scratch_) {
    auto owner = sub_owner_.find(sub_id);
    POPAN_CHECK(owner != sub_owner_.end());
    auto client = clients_.find(owner->second);
    if (client == clients_.end()) continue;
    Notification notification;
    notification.sub_id = sub_id;
    notification.op = op;
    notification.point = p;
    notification.sequence = sequence;
    Out(&client->second) += EncodeNotificationFrame(notification);
    ++notifications_sent_;
  }
}

}  // namespace popan::server
