// popan_server: serves the spatial store over TCP (see
// server/protocol.h for the wire format, DESIGN.md sections 7-8 for the
// architecture). Two storage engines behind the same wire protocol:
//
//   default        one copy-on-write PR quadtree; with --wal the store
//                  is durable (boot.h: existing logs are replayed,
//                  truncated to the intact prefix, and resumed; a
//                  missing or empty log file is a fresh boot).
//   --shards N     Morton-range sharded store with the census-predicted
//                  load balancer capped at N shards; --shard-dir makes
//                  it durable (per-shard WALs + manifest in DIR, which
//                  must exist).
//
//   popan_server [--port N] [--side S] [--capacity C] [--max-depth D]
//                [--wal PATH]
//                [--shards N] [--shard-dir DIR]
//                [--split-cost X] [--merge-cost X]
//
// Every numeric flag must parse whole and lie in range (port 0-65535,
// side finite and > 0, capacity >= 1, max depth 0-64, costs finite and
// >= 0, merge cost below split cost); anything else exits 2. SIGTERM or
// SIGINT stops the server cleanly: queued replies are sent, the core and
// its read threads are torn down, the WAL stream is flushed, and the
// process exits 0.

#include <atomic>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "server/boot.h"
#include "server/cow_store.h"
#include "server/server_core.h"
#include "server/shard_store.h"
#include "server/socket_server.h"
#include "shard/router.h"
#include "util/status.h"

namespace {

struct Flags {
  uint16_t port = 0;
  double side = 1.0;
  size_t capacity = 4;
  size_t max_depth = 16;
  std::string wal_path;
  size_t shards = 0;  ///< 0 = single-tree backend
  std::string shard_dir;
  double split_cost = 0.0;  ///< 0 = RebalanceConfig default
  double merge_cost = 0.0;
};

/// Parses all of `text` as a T in [lo, hi]. Trailing bytes, a sign an
/// unsigned T cannot hold, overflow, NaN and out-of-range values fail.
template <typename T>
bool ParseNumber(std::string_view text, T lo, T hi, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  constexpr double kMaxDouble = std::numeric_limits<double>::max();
  constexpr size_t kMaxSize = std::numeric_limits<size_t>::max();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "unknown or incomplete flag: " << arg << "\n";
      return false;
    }
    std::string_view value = argv[++i];
    bool parsed = true;
    if (arg == "--port") {
      uint32_t port = 0;
      parsed = ParseNumber<uint32_t>(value, 0, 65535, &port);
      flags->port = static_cast<uint16_t>(port);
    } else if (arg == "--side") {
      parsed = ParseNumber(value, std::numeric_limits<double>::denorm_min(),
                           kMaxDouble, &flags->side);
    } else if (arg == "--capacity") {
      parsed = ParseNumber<size_t>(value, 1, kMaxSize, &flags->capacity);
    } else if (arg == "--max-depth") {
      parsed = ParseNumber<size_t>(value, 0, 64, &flags->max_depth);
    } else if (arg == "--wal") {
      flags->wal_path = value;
    } else if (arg == "--shards") {
      parsed = ParseNumber<size_t>(value, 0, kMaxSize, &flags->shards);
    } else if (arg == "--shard-dir") {
      flags->shard_dir = value;
    } else if (arg == "--split-cost") {
      parsed = ParseNumber(value, 0.0, kMaxDouble, &flags->split_cost);
    } else if (arg == "--merge-cost") {
      parsed = ParseNumber(value, 0.0, kMaxDouble, &flags->merge_cost);
    } else {
      std::cerr << "unknown or incomplete flag: " << arg << "\n";
      return false;
    }
    if (!parsed) {
      std::cerr << "invalid value for " << arg << ": '" << value << "'\n";
      return false;
    }
  }
  if (!flags->wal_path.empty() &&
      (flags->shards > 0 || !flags->shard_dir.empty())) {
    std::cerr << "--wal is the single-tree log; a sharded store logs "
                 "per shard under --shard-dir\n";
    return false;
  }
  return true;
}

/// The transport a stop signal stops; set once it is listening. A
/// signal handler may only touch lock-free atomics.
std::atomic<popan::server::SocketServer*> g_transport{nullptr};
static_assert(
    std::atomic<popan::server::SocketServer*>::is_always_lock_free);

void OnStopSignal(int) {
  int saved_errno = errno;  // RequestStop's pipe write may clobber it
  popan::server::SocketServer* transport =
      g_transport.load(std::memory_order_acquire);
  if (transport != nullptr) transport->RequestStop();
  errno = saved_errno;
}

}  // namespace

int main(int argc, char** argv) {
  using popan::Status;
  using popan::StatusOr;
  namespace geo = popan::geo;
  namespace server = popan::server;
  namespace shard = popan::shard;
  namespace spatial = popan::spatial;

  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  geo::Box2 bounds = geo::Box2::UnitCube(flags.side);
  spatial::PrTreeOptions options;
  options.capacity = flags.capacity;
  options.max_depth = flags.max_depth;

  // Pool workers that help the poll thread complete pipelined read runs.
  unsigned cpus = std::thread::hardware_concurrency();
  size_t read_threads = cpus > 1 ? cpus - 1 : 1;

  // Boot state kept alive for the server's whole life (the WAL writer
  // holds a pointer into its stream), so it is declared before the core.
  server::BootResult boot;
  std::unique_ptr<server::ServerCore> core;

  if (flags.shards > 0 || !flags.shard_dir.empty()) {
    shard::RouterOptions router_options;
    router_options.tree = options;
    router_options.rebalance.enabled = true;
    if (flags.shards > 0) {
      router_options.rebalance.max_shards = flags.shards;
    }
    if (flags.split_cost > 0.0) {
      router_options.rebalance.split_cost = flags.split_cost;
    }
    if (flags.merge_cost > 0.0) {
      router_options.rebalance.merge_cost = flags.merge_cost;
    }
    if (router_options.rebalance.merge_cost >=
        router_options.rebalance.split_cost) {
      std::cerr << "merge cost " << router_options.rebalance.merge_cost
                << " must be below split cost "
                << router_options.rebalance.split_cost << "\n";
      return 2;
    }
    std::unique_ptr<shard::ShardRouter> router;
    if (!flags.shard_dir.empty()) {
      StatusOr<std::unique_ptr<shard::ShardRouter>> opened =
          shard::ShardRouter::Open(flags.shard_dir, bounds, router_options);
      if (!opened.ok()) {
        std::cerr << "cannot open shard store: "
                  << opened.status().ToString() << "\n";
        return 1;
      }
      router = std::move(opened).value();
      std::cerr << "recovered " << router->size() << " points across "
                << router->shard_count() << " shards at sequence "
                << router->sequence() << "\n";
    } else {
      router =
          std::make_unique<shard::ShardRouter>(bounds, router_options);
    }
    core = std::make_unique<server::ServerCore>(
        std::make_unique<server::ShardStoreBackend>(std::move(router)),
        read_threads);
  } else {
    if (!flags.wal_path.empty()) {
      StatusOr<server::BootResult> booted =
          server::BootWithWal(flags.wal_path, bounds, options);
      if (!booted.ok()) {
        std::cerr << "WAL boot failed: " << booted.status().ToString()
                  << "\n";
        return 1;
      }
      boot = std::move(booted).value();
      if (boot.truncated_tail) {
        std::cerr << "note: discarded torn WAL tail ("
                  << boot.truncation_reason << ")\n";
      }
      if (!boot.fresh) {
        std::cerr << "recovered " << boot.seed_points.size()
                  << " points at WAL sequence " << boot.initial_sequence
                  << "\n";
      }
    }
    core = std::make_unique<server::ServerCore>(
        std::make_unique<server::CowTreeBackend>(
            bounds, options, boot.wal.has_value() ? &*boot.wal : nullptr,
            boot.initial_sequence, boot.seed_points),
        read_threads);
  }

  Status served;
  {
    server::SocketServer transport(core.get());
    StatusOr<uint16_t> port = transport.Listen(flags.port);
    if (!port.ok()) {
      std::cerr << "listen failed: " << port.status().ToString() << "\n";
      return 1;
    }
    g_transport.store(&transport, std::memory_order_release);
    struct sigaction stop = {};
    stop.sa_handler = OnStopSignal;
    sigemptyset(&stop.sa_mask);
    sigaction(SIGTERM, &stop, nullptr);
    sigaction(SIGINT, &stop, nullptr);
    std::cout << "popan_server listening on 127.0.0.1:" << port.value()
              << std::endl;
    served = transport.Serve();
    // Back to the default action before the transport goes away: a
    // second signal now ends the process instead of touching it.
    stop.sa_handler = SIG_DFL;
    sigaction(SIGTERM, &stop, nullptr);
    sigaction(SIGINT, &stop, nullptr);
    g_transport.store(nullptr, std::memory_order_release);
  }
  if (!served.ok()) {
    std::cerr << "serve failed: " << served.ToString() << "\n";
    return 1;
  }
  core.reset();  // joins the read threads
  if (boot.wal_stream != nullptr && !boot.wal_stream->flush()) {
    std::cerr << "WAL flush failed\n";
    return 1;
  }
  return 0;
}
