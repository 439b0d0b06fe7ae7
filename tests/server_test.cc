// Server-level tests: the worker pool, per-connection sessions, reset,
// shutdown behaviour and protocol hygiene over real loopback sockets.
// These carry the `server` ctest label so they can be singled out for
// a TSAN run (cmake -DHM_SANITIZE=thread, then ctest -L server).

#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include <chrono>

#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/backends/remote_store.h"
#include "telemetry/metrics.h"
#include "util/failpoint.h"

namespace hm {
namespace {

using backends::MemStore;
using backends::RemoteModeName;
using backends::RemoteStore;

std::unique_ptr<server::Server> StartMemServer(
    server::ServerOptions options = {}) {
  options.host = "127.0.0.1";
  options.port = 0;
  auto srv = server::Server::Start(options, std::make_unique<MemStore>());
  EXPECT_TRUE(srv.ok()) << srv.status().ToString();
  return srv.ok() ? std::move(*srv) : nullptr;
}

std::unique_ptr<RemoteStore> ConnectTo(
    const server::Server& srv,
    backends::RemoteMode mode = backends::RemoteMode::kPushdown) {
  backends::RemoteOptions options;
  options.host = srv.host();
  options.port = srv.port();
  options.mode = mode;
  auto store = RemoteStore::Connect(options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return store.ok() ? std::move(*store) : nullptr;
}

server::ServerOptions WithMemResetFactory(server::ServerOptions options = {}) {
  options.reset_factory = []() -> util::Result<std::unique_ptr<HyperStore>> {
    return std::unique_ptr<HyperStore>(std::make_unique<MemStore>());
  };
  return options;
}

NodeAttrs MakeAttrs(int64_t uid) {
  NodeAttrs attrs;
  attrs.unique_id = uid;
  attrs.ten = uid % 10 + 1;
  attrs.hundred = uid % 100 + 1;
  attrs.thousand = uid % 1000 + 1;
  attrs.million = uid % 1000000 + 1;
  return attrs;
}

TEST(ServerTest, StartsOnEphemeralPortAndStops) {
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  EXPECT_GT(srv->port(), 0);
  srv->Stop();
  srv->Stop();  // idempotent
}

TEST(ServerTest, HandshakeReportsBackendAndVersion) {
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->name(), "remote");
  EXPECT_EQ(client->server_backend(), "mem");
}

TEST(ServerTest, ServesBasicOperations) {
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(client->Begin().ok());
  auto node = client->CreateNode(MakeAttrs(7), kInvalidNode);
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  ASSERT_TRUE(client->Commit().ok());

  EXPECT_EQ(*client->GetAttr(*node, Attr::kUniqueId), 7);
  EXPECT_EQ(*client->LookupUnique(7), *node);
  EXPECT_TRUE(client->LookupUnique(9999).status().IsNotFound());
  EXPECT_GE(srv->requests_served(), 6u);
}

TEST(ServerTest, ServesConcurrentClients) {
  server::ServerOptions options;
  options.workers = 4;
  auto srv = StartMemServer(options);
  ASSERT_NE(srv, nullptr);

  // Each thread drives its own connection over a disjoint uid range;
  // the server serializes backend access, so all creates must land.
  constexpr int kClients = 4;
  constexpr int kNodesPerClient = 50;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = ConnectTo(*srv);
      ASSERT_NE(client, nullptr);
      ASSERT_TRUE(client->Begin().ok());
      for (int i = 0; i < kNodesPerClient; ++i) {
        int64_t uid = c * kNodesPerClient + i + 1;
        auto node = client->CreateNode(MakeAttrs(uid), kInvalidNode);
        ASSERT_TRUE(node.ok()) << node.status().ToString();
      }
      ASSERT_TRUE(client->Commit().ok());
    });
  }
  for (std::thread& t : threads) t.join();

  auto checker = ConnectTo(*srv);
  ASSERT_NE(checker, nullptr);
  for (int64_t uid = 1; uid <= kClients * kNodesPerClient; ++uid) {
    EXPECT_TRUE(checker->LookupUnique(uid).ok()) << "uid " << uid;
  }
  EXPECT_EQ(srv->connections_accepted(), kClients + 1u);
}

TEST(ServerTest, MoreClientsThanWorkers) {
  // With a single worker, connections are served one after another;
  // clients queue at the door instead of failing.
  server::ServerOptions options;
  options.workers = 1;
  auto srv = StartMemServer(options);
  ASSERT_NE(srv, nullptr);

  std::vector<std::thread> threads;
  for (int c = 0; c < 6; ++c) {
    threads.emplace_back([&, c] {
      auto client = ConnectTo(*srv);
      ASSERT_NE(client, nullptr);
      auto node = client->CreateNode(MakeAttrs(c + 1), kInvalidNode);
      EXPECT_TRUE(node.ok()) << node.status().ToString();
      // Client destructor closes the connection, freeing the worker.
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(srv->connections_rejected(), 0u);
}

TEST(ServerTest, ResetRecreatesBackend) {
  auto srv = StartMemServer(WithMemResetFactory());
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->CreateNode(MakeAttrs(1), kInvalidNode).ok());
  ASSERT_TRUE(client->Commit().ok());
  ASSERT_TRUE(client->LookupUnique(1).ok());

  ASSERT_TRUE(client->ResetServer().ok());
  EXPECT_TRUE(client->LookupUnique(1).status().IsNotFound());
  // The uid is free again — a second benchmark run can rebuild.
  ASSERT_TRUE(client->Begin().ok());
  EXPECT_TRUE(client->CreateNode(MakeAttrs(1), kInvalidNode).ok());
  ASSERT_TRUE(client->Commit().ok());
}

TEST(ServerTest, ResetRebuildsPersistentStoreInItsOwnDirectory) {
  // The `hmbench serve` shape: the factory wipes and reopens the one
  // directory the served store lives in. The old store must be gone
  // before the factory runs, or the new one trips over its WAL files.
  const std::string dir =
      ::testing::TempDir() + "/hm_server_reset_oodb";
  std::filesystem::remove_all(dir);
  auto open_fresh = [dir]() -> util::Result<std::unique_ptr<HyperStore>> {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    backends::OodbOptions options;
    options.cache_pages = 64;
    options.sync_commits = false;
    auto store = backends::OodbStore::Open(options, dir);
    if (!store.ok()) return store.status();
    return std::unique_ptr<HyperStore>(std::move(*store));
  };
  auto first = open_fresh();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  server::ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  options.reset_factory = open_fresh;
  auto srv = server::Server::Start(options, std::move(*first));
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  auto client = ConnectTo(**srv);
  ASSERT_NE(client, nullptr);

  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    ASSERT_TRUE(client->Begin().ok());
    ASSERT_TRUE(client->CreateNode(MakeAttrs(1), kInvalidNode).ok());
    ASSERT_TRUE(client->Commit().ok());
    util::Status reset = client->ResetServer();
    ASSERT_TRUE(reset.ok()) << reset.ToString();
    util::Status reopened = client->CloseReopen();
    ASSERT_TRUE(reopened.ok()) << reopened.ToString();
    EXPECT_TRUE(client->LookupUnique(1).status().IsNotFound());
  }
  client.reset();
  (*srv)->Stop();
  srv->reset();
  std::filesystem::remove_all(dir);
}

TEST(ServerTest, FailedResetLeavesNoDatabaseUntilNextReset) {
  int calls = 0;
  server::ServerOptions options;
  options.reset_factory =
      [&calls]() -> util::Result<std::unique_ptr<HyperStore>> {
    if (++calls == 1) return util::Status::IoError("disk full");
    return std::unique_ptr<HyperStore>(std::make_unique<MemStore>());
  };
  auto srv = StartMemServer(options);
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->CreateNode(MakeAttrs(1), kInvalidNode).ok());

  EXPECT_EQ(client->ResetServer().code(), util::StatusCode::kIoError);
  // The old store is gone: data ops are refused with a typed error,
  // while a new session can still connect and retry the Reset.
  EXPECT_TRUE(client->LookupUnique(1).status().IsUnavailable());
  auto second = ConnectTo(*srv);
  ASSERT_NE(second, nullptr);
  ASSERT_TRUE(second->ResetServer().ok());
  EXPECT_TRUE(second->LookupUnique(1).status().IsNotFound());
  EXPECT_TRUE(second->CreateNode(MakeAttrs(1), kInvalidNode).ok());
  EXPECT_EQ(calls, 2);
}

TEST(ServerTest, ResetWithoutFactoryIsNotSupportedOnceDirty) {
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);
  // While the database is untouched, Reset is an idempotent no-op
  // even without a factory — and can be repeated freely.
  EXPECT_TRUE(client->ResetServer().ok());
  EXPECT_TRUE(client->ResetServer().ok());
  // Once something mutated, an actual rebuild is needed, and there is
  // nothing to rebuild with.
  ASSERT_TRUE(client->CreateNode(MakeAttrs(1), kInvalidNode).ok());
  util::Status status = client->ResetServer();
  EXPECT_EQ(status.code(), util::StatusCode::kNotSupported);
}

TEST(ServerTest, ResetOnOpenIsIdempotentAcrossSessions) {
  // The benchmark harness resets on every open; two harness processes
  // opening a clean server back to back must not invalidate each
  // other's sessions (no epoch bump on a no-op reset).
  auto srv = StartMemServer(WithMemResetFactory());
  ASSERT_NE(srv, nullptr);
  auto first = ConnectTo(*srv);
  auto second = ConnectTo(*srv);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_TRUE(first->ResetServer().ok());
  EXPECT_TRUE(second->ResetServer().ok());
  // Both sessions still work: the database was never rebuilt.
  EXPECT_TRUE(first->StorageBytes().ok());
  EXPECT_TRUE(second->StorageBytes().ok());
}

TEST(ServerTest, ResetByAnotherSessionYieldsCleanConflict) {
  // Regression: one client resets a dirty database while another holds
  // refs into it. The bystander must get a clean kConflict — its refs
  // point into a discarded store — not a crash or stale data.
  auto srv = StartMemServer(WithMemResetFactory());
  ASSERT_NE(srv, nullptr);
  auto builder = ConnectTo(*srv);
  auto bystander = ConnectTo(*srv);
  ASSERT_NE(builder, nullptr);
  ASSERT_NE(bystander, nullptr);

  ASSERT_TRUE(builder->Begin().ok());
  auto node = builder->CreateNode(MakeAttrs(1), kInvalidNode);
  ASSERT_TRUE(node.ok());
  ASSERT_TRUE(builder->Commit().ok());
  // The bystander observes the dirty store before the reset.
  EXPECT_TRUE(bystander->LookupUnique(1).ok());

  ASSERT_TRUE(builder->ResetServer().ok());
  // The resetting session keeps working against the fresh store...
  EXPECT_TRUE(builder->LookupUnique(1).status().IsNotFound());
  // ...while the bystander's stale session gets kConflict on any op.
  util::Status status = bystander->GetAttr(*node, Attr::kUniqueId).status();
  EXPECT_EQ(status.code(), util::StatusCode::kConflict)
      << status.ToString();
  // A brand-new session adopts the fresh store cleanly.
  auto late = ConnectTo(*srv);
  ASSERT_NE(late, nullptr);
  EXPECT_TRUE(late->LookupUnique(1).status().IsNotFound());
}

std::string VersionBody(uint64_t version) {
  std::string body;
  util::PutVarint64(&body, version);
  return body;
}

std::string HelloPayload(std::string_view body) {
  std::string payload(1, static_cast<char>(server::OpCode::kHello));
  payload.append(body);
  return payload;
}

/// A plain socket to `port` on loopback, bypassing RemoteStore so a
/// test can send payloads the client would never encode.
int RawConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// Frames `payload`, sends it on `fd` and returns the response payload.
std::string RawRoundTrip(int fd, std::string_view payload) {
  std::string frame;
  server::AppendFrame(&frame, payload);
  EXPECT_TRUE(server::WriteAll(fd, frame));
  std::string rx;
  char buf[4096];
  for (;;) {
    std::string_view response;
    size_t frame_len = 0;
    server::FrameResult decoded =
        server::DecodeFrame(rx, &response, &frame_len);
    if (decoded == server::FrameResult::kOk) return std::string(response);
    EXPECT_EQ(decoded, server::FrameResult::kIncomplete);
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    EXPECT_GT(n, 0);
    if (n <= 0) return std::string();
    rx.append(buf, static_cast<size_t>(n));
  }
}

TEST(ServerTest, MismatchedHelloIsRefused) {
  // Peers must speak exactly kWireVersion. An empty Hello body (the v1
  // spelling), an older and a newer version are each refused with
  // InvalidArgument naming both versions.
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);

  const std::string server_version =
      "server " + std::to_string(server::kWireVersion);
  const std::vector<std::pair<std::string, uint64_t>> mismatches = {
      {"", 1},
      {VersionBody(server::kWireVersion - 1), server::kWireVersion - 1},
      {VersionBody(server::kWireVersion + 1), server::kWireVersion + 1},
  };
  for (const auto& [body, client_version] : mismatches) {
    int fd = RawConnect(srv->port());
    std::string response = RawRoundTrip(fd, HelloPayload(body));
    ::close(fd);
    util::Status status;
    std::string_view result;
    ASSERT_TRUE(server::SplitResponse(response, &status, &result));
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find("client " +
                                    std::to_string(client_version)),
              std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find(server_version), std::string::npos)
        << status.ToString();
  }

  // The exact version on a fresh connection is accepted.
  int fd = RawConnect(srv->port());
  std::string hello =
      RawRoundTrip(fd, HelloPayload(VersionBody(server::kWireVersion)));
  ::close(fd);
  ASSERT_GE(hello.size(), 2u);
  EXPECT_EQ(hello[0], 0);  // StatusCode::kOk
  EXPECT_EQ(hello[1], static_cast<char>(server::kWireVersion));
}

TEST(ServerTest, RangeKeyedAnswersInCanonicalOrder) {
  // kRangeKeyed returns every hit with its value and uniqueId, sorted
  // by (value, uniqueId). The nodes tie on `hundred` and are created
  // out of uid order, and uid 40 moves into the band after uid 50, so
  // neither insertion order nor uid order alone is the answer.
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Begin().ok());
  std::map<int64_t, NodeRef> by_uid;
  for (auto [uid, hundred] : std::vector<std::pair<int64_t, int64_t>>{
           {30, 5}, {10, 5}, {50, 4}, {20, 5}, {40, 9}, {60, 6}}) {
    NodeAttrs attrs = MakeAttrs(uid);
    attrs.hundred = hundred;
    auto node = client->CreateNode(attrs, kInvalidNode);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    by_uid[uid] = *node;
  }
  ASSERT_TRUE(client->SetAttr(by_uid[40], Attr::kHundred, 4).ok());
  ASSERT_TRUE(client->Commit().ok());

  std::vector<KeyedRef> hits;
  ASSERT_TRUE(client->RangeKeyed(Attr::kHundred, 4, 5, &hits).ok());
  const std::vector<std::pair<int64_t, int64_t>> want = {
      {4, 40}, {4, 50}, {5, 10}, {5, 20}, {5, 30}};
  ASSERT_EQ(hits.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(hits[i].value, want[i].first) << i;
    EXPECT_EQ(hits[i].unique_id, want[i].second) << i;
    EXPECT_EQ(hits[i].node, by_uid[want[i].second]) << i;
  }
  // kRangeHundred keeps the backend's own order (mem: insertion order
  // within a value).
  std::vector<NodeRef> plain;
  ASSERT_TRUE(client->RangeHundred(4, 5, &plain).ok());
  EXPECT_EQ(plain, (std::vector<NodeRef>{by_uid[50], by_uid[40], by_uid[30],
                                         by_uid[10], by_uid[20]}));
  // The million index answers the same way.
  hits.clear();
  ASSERT_TRUE(client->RangeKeyed(Attr::kMillion, 1, 1000000, &hits).ok());
  ASSERT_EQ(hits.size(), by_uid.size());
  EXPECT_TRUE(std::is_sorted(hits.begin(), hits.end(), KeyedRefLess));

  // Only the two indexed attributes can be scanned. The attr is
  // checked as sent: 258 must not wrap to hundred (2).
  EXPECT_EQ(client->RangeKeyed(Attr::kTen, 1, 10, &hits).code(),
            util::StatusCode::kInvalidArgument);
  auto keyed_payload = [](uint64_t attr, bool truncated) {
    std::string payload(1, static_cast<char>(server::OpCode::kRangeKeyed));
    util::PutVarint64(&payload, attr);
    util::PutVarSigned64(&payload, 1);
    if (!truncated) util::PutVarSigned64(&payload, 100);
    return payload;
  };
  int fd = RawConnect(srv->port());
  for (auto [attr, truncated, needle] :
       std::vector<std::tuple<uint64_t, bool, std::string>>{
           {258, false, "not attr 258"},
           {static_cast<uint64_t>(Attr::kHundred), true, "malformed"}}) {
    util::Status status;
    std::string_view result;
    std::string response = RawRoundTrip(fd, keyed_payload(attr, truncated));
    ASSERT_TRUE(server::SplitResponse(response, &status, &result));
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find(needle), std::string::npos)
        << status.ToString();
  }
  // The connection survives both refusals.
  std::string ok = RawRoundTrip(fd, keyed_payload(2, false));
  ::close(fd);
  ASSERT_FALSE(ok.empty());
  EXPECT_EQ(ok[0], 0);  // StatusCode::kOk
}

TEST(ServerTest, ClientRefusesServerOfAnotherVersion) {
  // A one-shot raw listener answers Hello as a server one version
  // behind would; Connect must fail with the typed mismatch error.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);

  const uint8_t old_version = server::kWireVersion - 1;
  std::thread responder([&] {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    std::string rx;
    char buf[256];
    std::string_view request;
    size_t frame_len = 0;
    while (server::DecodeFrame(rx, &request, &frame_len) ==
           server::FrameResult::kIncomplete) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      rx.append(buf, static_cast<size_t>(n));
    }
    std::string reply;
    server::PutStatus(&reply, util::Status::Ok());
    reply.push_back(static_cast<char>(old_version));
    util::PutLengthPrefixed(&reply, "mem");
    std::string frame;
    server::AppendFrame(&frame, reply);
    server::WriteAll(fd, frame);
    ::close(fd);
  });

  backends::RemoteOptions options;
  options.host = "127.0.0.1";
  options.port = ntohs(addr.sin_port);
  options.max_retries = 0;
  auto store = RemoteStore::Connect(options);
  responder.join();
  ::close(listener);

  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), util::StatusCode::kInvalidArgument)
      << store.status().ToString();
  const std::string& message = store.status().message();
  EXPECT_NE(message.find("client " + std::to_string(server::kWireVersion)),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("server " + std::to_string(old_version)),
            std::string::npos)
      << message;
}

TEST(ServerTest, ClientRejectsInflatedListCounts) {
  // A raw listener answers Hello properly, then every other request
  // with Ok and a list count of 2^40 backed by one byte. Children and
  // RefsTo must report Corruption — no throw, no reservation sized by
  // the count.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);

  std::thread responder([&] {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    std::string rx;
    char buf[256];
    for (;;) {
      std::string_view request;
      size_t frame_len = 0;
      server::FrameResult decoded =
          server::DecodeFrame(rx, &request, &frame_len);
      if (decoded == server::FrameResult::kIncomplete) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        rx.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (decoded != server::FrameResult::kOk || request.empty()) break;
      std::string reply;
      server::PutStatus(&reply, util::Status::Ok());
      if (static_cast<server::OpCode>(request[0]) == server::OpCode::kHello) {
        reply.push_back(static_cast<char>(server::kWireVersion));
        util::PutLengthPrefixed(&reply, "mem");
      } else {
        util::PutVarint64(&reply, uint64_t{1} << 40);
        reply.push_back('\x01');
      }
      rx.erase(0, frame_len);
      std::string frame;
      server::AppendFrame(&frame, reply);
      if (!server::WriteAll(fd, frame)) break;
    }
    ::close(fd);
  });

  backends::RemoteOptions options;
  options.host = "127.0.0.1";
  options.port = ntohs(addr.sin_port);
  options.max_retries = 0;
  options.deadline_ms = 2000;
  auto store = RemoteStore::Connect(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::vector<NodeRef> refs;
  util::Status children = (*store)->Children(1, &refs);
  EXPECT_EQ(children.code(), util::StatusCode::kCorruption)
      << children.ToString();
  std::vector<RefEdge> edges;
  util::Status refs_to = (*store)->RefsTo(1, &edges);
  EXPECT_EQ(refs_to.code(), util::StatusCode::kCorruption)
      << refs_to.ToString();
  store->reset();
  responder.join();
  ::close(listener);
}

TEST(ServerTest, ConcurrentReadersRunUnderSharedLock) {
  // >= 4 reader clients traversing simultaneously: the mem backend
  // declares concurrent-read support, so read-only dispatches take the
  // shared side of the backend lock. (Under TSAN this is the test that
  // proves the shared-lock dispatch is race-free.)
  server::ServerOptions options;
  options.workers = 4;
  auto srv = StartMemServer(options);
  ASSERT_NE(srv, nullptr);

  // Build a small tree: root with 3 children, each with 3 children.
  auto builder = ConnectTo(*srv);
  ASSERT_NE(builder, nullptr);
  ASSERT_TRUE(builder->Begin().ok());
  auto root = builder->CreateNode(MakeAttrs(1), kInvalidNode);
  ASSERT_TRUE(root.ok());
  int64_t uid = 2;
  std::vector<NodeRef> mid;
  for (int i = 0; i < 3; ++i) {
    auto node = builder->CreateNode(MakeAttrs(uid++), kInvalidNode);
    ASSERT_TRUE(node.ok());
    ASSERT_TRUE(builder->AddChild(*root, *node).ok());
    mid.push_back(*node);
  }
  for (NodeRef parent : mid) {
    for (int i = 0; i < 3; ++i) {
      auto node = builder->CreateNode(MakeAttrs(uid++), kInvalidNode);
      ASSERT_TRUE(node.ok());
      ASSERT_TRUE(builder->AddChild(parent, *node).ok());
    }
  }
  ASSERT_TRUE(builder->Commit().ok());

  constexpr int kReaders = 4;
  constexpr int kOpsPerReader = 50;
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      // Alternate modes so pushdown, fused and pipelined reads all
      // travel the shared-lock path.
      auto reader = ConnectTo(*srv, r % 2 == 0
                                        ? backends::RemoteMode::kPushdown
                                        : backends::RemoteMode::kBatched);
      ASSERT_NE(reader, nullptr);
      for (int i = 0; i < kOpsPerReader; ++i) {
        std::vector<NodeRef> out;
        ASSERT_TRUE(reader->TravClosure1N(*root, &out).ok());
        ASSERT_EQ(out.size(), 13u);
        uint64_t visited = 0;
        auto sum = reader->TravClosure1NAttSum(*root, &visited);
        ASSERT_TRUE(sum.ok());
        ASSERT_EQ(visited, 13u);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(srv->shared_reads_served(), 0u);
}

TEST(ServerTest, AllRemoteModesAgreeOnTraversals) {
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);

  auto builder = ConnectTo(*srv);
  ASSERT_NE(builder, nullptr);
  ASSERT_TRUE(builder->Begin().ok());
  auto root = builder->CreateNode(MakeAttrs(1), kInvalidNode);
  ASSERT_TRUE(root.ok());
  std::vector<NodeRef> nodes{*root};
  for (int64_t uid = 2; uid <= 10; ++uid) {
    auto node = builder->CreateNode(MakeAttrs(uid), kInvalidNode);
    ASSERT_TRUE(node.ok());
    // Attach to a deterministic parent to get a bushy tree, plus a
    // parts edge and a weighted ref edge for the M-N walks.
    ASSERT_TRUE(
        builder->AddChild(nodes[static_cast<size_t>(uid / 3)], *node).ok());
    ASSERT_TRUE(builder->AddPart(nodes.back(), *node).ok());
    ASSERT_TRUE(builder->AddRef(nodes.back(), *node, uid, uid * 2).ok());
    nodes.push_back(*node);
  }
  ASSERT_TRUE(builder->Commit().ok());

  auto percall = ConnectTo(*srv, backends::RemoteMode::kPerCall);
  auto batched = ConnectTo(*srv, backends::RemoteMode::kBatched);
  auto pushdown = ConnectTo(*srv, backends::RemoteMode::kPushdown);
  ASSERT_NE(percall, nullptr);
  ASSERT_NE(batched, nullptr);
  ASSERT_NE(pushdown, nullptr);
  std::vector<RemoteStore*> clients{percall.get(), batched.get(),
                                    pushdown.get()};

  std::vector<NodeRef> expected_1n;
  ASSERT_TRUE(percall->TravClosure1N(*root, &expected_1n).ok());
  std::vector<NodeRef> expected_mn;
  ASSERT_TRUE(percall->TravClosureMN(*root, &expected_mn).ok());
  std::vector<NodeRef> expected_mnatt;
  ASSERT_TRUE(percall->TravClosureMNAtt(*root, 5, &expected_mnatt).ok());
  std::vector<NodeDistance> expected_link;
  ASSERT_TRUE(
      percall->TravClosureMNAttLinkSum(*root, 5, &expected_link).ok());
  std::vector<NodeRef> expected_pred;
  ASSERT_TRUE(
      percall->TravClosure1NPred(*root, 0, 1000000, &expected_pred).ok());

  for (RemoteStore* client : clients) {
    std::vector<NodeRef> refs;
    ASSERT_TRUE(client->TravClosure1N(*root, &refs).ok());
    EXPECT_EQ(refs, expected_1n) << RemoteModeName(client->mode());
    ASSERT_TRUE(client->TravClosureMN(*root, &refs).ok());
    EXPECT_EQ(refs, expected_mn) << RemoteModeName(client->mode());
    ASSERT_TRUE(client->TravClosureMNAtt(*root, 5, &refs).ok());
    EXPECT_EQ(refs, expected_mnatt) << RemoteModeName(client->mode());
    ASSERT_TRUE(client->TravClosure1NPred(*root, 0, 1000000, &refs).ok());
    EXPECT_EQ(refs, expected_pred) << RemoteModeName(client->mode());
    std::vector<NodeDistance> dists;
    ASSERT_TRUE(client->TravClosureMNAttLinkSum(*root, 5, &dists).ok());
    ASSERT_EQ(dists.size(), expected_link.size())
        << RemoteModeName(client->mode());
    for (size_t i = 0; i < dists.size(); ++i) {
      EXPECT_EQ(dists[i].node, expected_link[i].node);
      EXPECT_EQ(dists[i].distance, expected_link[i].distance);
    }
    uint64_t visited = 0;
    auto sum = client->TravClosure1NAttSum(*root, &visited);
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(visited, expected_1n.size());
  }

  // The mutating kernel: run it twice per client; two applications of
  // hundred := 99 - hundred are the identity, so each client leaves
  // the store as it found it and all agree on the count.
  for (RemoteStore* client : clients) {
    auto first = client->TravClosure1NAttSet(*root);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(*first, expected_1n.size());
    auto second = client->TravClosure1NAttSet(*root);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(*second, expected_1n.size());
  }

  // Fused navigation agrees with per-call too.
  std::vector<std::vector<NodeRef>> expected_children;
  ASSERT_TRUE(percall->ChildrenMulti(nodes, &expected_children).ok());
  std::vector<int64_t> expected_values;
  ASSERT_TRUE(
      percall->GetAttrsMulti(nodes, Attr::kHundred, &expected_values).ok());
  for (RemoteStore* client : clients) {
    std::vector<std::vector<NodeRef>> children;
    ASSERT_TRUE(client->ChildrenMulti(nodes, &children).ok());
    EXPECT_EQ(children, expected_children) << RemoteModeName(client->mode());
    std::vector<int64_t> values;
    ASSERT_TRUE(
        client->GetAttrsMulti(nodes, Attr::kHundred, &values).ok());
    EXPECT_EQ(values, expected_values) << RemoteModeName(client->mode());
  }
}

TEST(ServerTest, StopUnblocksConnectedIdleClient) {
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);

  // Stop while the worker is blocked in recv() on this connection;
  // Stop() must not hang, and the client must see a clean error
  // rather than a wedged socket. Begin is not retry-safe, so the
  // fault-tolerant client surfaces the dead transport as a typed
  // kUnavailable instead of blindly re-sending it.
  srv->Stop();
  util::Status status = client->Begin();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable)
      << status.ToString();
}

TEST(ServerTest, GarbageFrameDropsConnectionOnly) {
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);

  // Hand-roll a client that sends a CRC-corrupted frame.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(srv->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::string frame;
  server::AppendFrame(&frame, "\x01");  // a Hello request...
  frame.back() ^= 0x40;                 // ...with a flipped payload bit
  ASSERT_TRUE(server::WriteAll(fd, frame));

  // The server hangs up on us without replying.
  char buf[16];
  ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  EXPECT_EQ(n, 0);
  ::close(fd);

  // And keeps serving well-formed clients.
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Begin().ok());
}

TEST(ServerTest, LoopbackStoreOwnsItsServer) {
  auto store = RemoteStore::Loopback(std::make_unique<MemStore>());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->Begin().ok());
  auto node = (*store)->CreateNode(MakeAttrs(11), kInvalidNode);
  ASSERT_TRUE(node.ok());
  ASSERT_TRUE((*store)->Commit().ok());
  EXPECT_EQ(*(*store)->GetAttr(*node, Attr::kUniqueId), 11);
  // Destruction tears down client then server without deadlock.
}

TEST(ServerTest, StatsOpcodeCountsScriptedSequence) {
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);

  // The registry is process-global and other tests in this binary have
  // already bumped it, so every assertion is over a snapshot *diff*
  // bracketing a known request sequence.
  telemetry::Snapshot before;
  ASSERT_TRUE(client->ServerStats(&before).ok());

  ASSERT_TRUE(client->Begin().ok());
  std::vector<NodeRef> nodes;
  for (int64_t uid = 1; uid <= 3; ++uid) {
    auto node = client->CreateNode(MakeAttrs(uid), kInvalidNode);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    nodes.push_back(*node);
  }
  ASSERT_TRUE(client->Commit().ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(client->GetAttr(nodes[0], Attr::kUniqueId).ok());
  }
  EXPECT_FALSE(client->GetAttr(NodeRef{999999}, Attr::kUniqueId).ok());
  EXPECT_TRUE(client->LookupUnique(2).ok());

  telemetry::Snapshot after;
  ASSERT_TRUE(client->ServerStats(&after).ok());
  telemetry::Snapshot diff = after.DiffSince(before);

  EXPECT_EQ(diff.counter("server.op.begin.count"), 1u);
  EXPECT_EQ(diff.counter("server.op.create_node.count"), 3u);
  EXPECT_EQ(diff.counter("server.op.commit.count"), 1u);
  EXPECT_EQ(diff.counter("server.op.get_attr.count"), 6u);
  EXPECT_EQ(diff.counter("server.op.get_attr.errors"), 1u);
  EXPECT_EQ(diff.counter("server.op.lookup_unique.count"), 1u);
  EXPECT_EQ(diff.counter("server.op.create_node.errors"), 0u);
  // The first kStats call's own bookkeeping lands after its snapshot
  // is taken, so exactly one stats request falls inside the bracket.
  EXPECT_EQ(diff.counter("server.op.stats.count"), 1u);

  // Latency histograms see one sample per request, and the socket
  // byte counters moved.
  ASSERT_TRUE(diff.histograms.contains("server.op.get_attr.latency_us"));
  EXPECT_EQ(diff.histograms.at("server.op.get_attr.latency_us").count, 6u);
  EXPECT_GT(diff.counter("server.net.bytes_in"), 0u);
  EXPECT_GT(diff.counter("server.net.bytes_out"), 0u);
}

// ---- Fault tolerance: deadlines, retries, shedding, draining ---------

class FaultToleranceTest : public ::testing::Test {
 protected:
  void TearDown() override { util::Failpoint::DisableAll(); }

  /// Tests that depend on an injected fault call this first; in builds
  /// without failpoint sites they skip instead of timing out.
  void RequireFailpoints() {
    if (!util::kFailpointsCompiled) {
      GTEST_SKIP() << "failpoints compiled out of this build";
    }
  }

  static std::unique_ptr<RemoteStore> ConnectWith(
      const server::Server& srv, backends::RemoteOptions options) {
    options.host = srv.host();
    options.port = srv.port();
    auto store = RemoteStore::Connect(options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return store.ok() ? std::move(*store) : nullptr;
  }

  static int RawConnect(uint16_t port) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  }

  static uint64_t Counter(const char* name) {
    return telemetry::Registry::Global().GetCounter(name)->value();
  }
};

// The regression the PR exists for: a server that dies (or wedges)
// mid-call must produce a typed error within the deadline, never a
// hang. The "server" here is a bare listening socket whose backlog
// completes our TCP connect but which never reads or replies.
TEST_F(FaultToleranceTest, CallAgainstDeadServerTimesOutTyped) {
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);

  backends::RemoteOptions options;
  options.host = "127.0.0.1";
  options.port = ntohs(addr.sin_port);
  options.deadline_ms = 250;
  options.max_retries = 0;  // surface the typed status, don't retry

  auto start = std::chrono::steady_clock::now();
  uint64_t deadline_counter_before = Counter("remote.deadline_exceeded");
  auto store = RemoteStore::Connect(options);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsDeadlineExceeded())
      << store.status().ToString();
  EXPECT_LT(elapsed.count(), 3000) << "deadline did not bound the call";
  EXPECT_GT(Counter("remote.deadline_exceeded"), deadline_counter_before);
  ::close(listener);
}

TEST_F(FaultToleranceTest, SlowDispatchHitsCallDeadline) {
  RequireFailpoints();
  if (IsSkipped()) return;
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  backends::RemoteOptions options;
  options.deadline_ms = 250;
  options.max_retries = 0;
  auto client = ConnectWith(*srv, options);
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(
      util::Failpoint::Enable("server/dispatch/delay", "delay=1500,times=1")
          .ok());
  auto start = std::chrono::steady_clock::now();
  util::Status status = client->StorageBytes().status();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_LT(elapsed.count(), 1300);
}

TEST_F(FaultToleranceTest, ReadRetriesTransparentlyAfterTransportError) {
  RequireFailpoints();
  if (IsSkipped()) return;
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Begin().ok());
  auto node = client->CreateNode(MakeAttrs(5), kInvalidNode);
  ASSERT_TRUE(node.ok());
  ASSERT_TRUE(client->Commit().ok());

  uint64_t retries_before = Counter("remote.retries");
  uint64_t reconnects_before = Counter("remote.reconnects");
  ASSERT_TRUE(
      util::Failpoint::Enable("remote/recv/error", "error,times=1").ok());
  // The first receive fails and poisons the connection; GetAttr is
  // read-only, so the client reconnects and re-sends invisibly.
  auto attr = client->GetAttr(*node, Attr::kUniqueId);
  ASSERT_TRUE(attr.ok()) << attr.status().ToString();
  EXPECT_EQ(*attr, 5);
  EXPECT_GT(Counter("remote.retries"), retries_before);
  EXPECT_GT(Counter("remote.reconnects"), reconnects_before);
}

TEST_F(FaultToleranceTest, WriteOpSurfacesUnavailableThenReconnects) {
  RequireFailpoints();
  if (IsSkipped()) return;
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(
      util::Failpoint::Enable("remote/send/error", "error,times=1").ok());
  // Begin is not idempotent, so the transport failure must surface as
  // a typed kUnavailable instead of a blind re-send.
  util::Status status = client->Begin();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();

  // The next call finds the poisoned connection and re-establishes it.
  EXPECT_TRUE(client->Begin().ok());
  auto node = client->CreateNode(MakeAttrs(6), kInvalidNode);
  ASSERT_TRUE(node.ok());
  EXPECT_TRUE(client->Commit().ok());
}

TEST_F(FaultToleranceTest, PingRoundTrips) {
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(FaultToleranceTest, InflightCeilingShedsExcessRequests) {
  RequireFailpoints();
  if (IsSkipped()) return;
  server::ServerOptions options;
  options.workers = 2;
  options.max_inflight = 1;
  auto srv = StartMemServer(options);
  ASSERT_NE(srv, nullptr);
  // Connect both clients before arming the failpoint so their Hello
  // dispatches are not the ones delayed or shed.
  auto slow = ConnectTo(*srv);
  auto shed = ConnectTo(*srv);
  ASSERT_NE(slow, nullptr);
  ASSERT_NE(shed, nullptr);

  uint64_t shed_before = Counter("server.shed_requests");
  ASSERT_TRUE(
      util::Failpoint::Enable("server/dispatch/delay", "delay=600,times=1")
          .ok());
  std::thread holder([&] {
    // Occupies the single in-flight slot for ~600ms; the request
    // itself still succeeds.
    EXPECT_TRUE(slow->StorageBytes().ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  util::Status status = shed->StorageBytes().status();
  holder.join();

  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsOverloaded()) << status.ToString();
  EXPECT_GE(srv->requests_shed(), 1u);
  EXPECT_GT(Counter("server.shed_requests"), shed_before);
}

TEST_F(FaultToleranceTest, ListenerQueueFullRepliesOverloaded) {
  server::ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  auto srv = StartMemServer(options);
  ASSERT_NE(srv, nullptr);

  // The only worker serves this connection for the rest of the test.
  auto busy = ConnectTo(*srv);
  ASSERT_NE(busy, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Fills the one queue slot.
  int queued = RawConnect(srv->port());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Over capacity: the listener answers with a framed kOverloaded
  // before hanging up, instead of a silent close.
  int refused = RawConnect(srv->port());
  std::string rx;
  char buf[256];
  std::string_view payload;
  size_t frame_len = 0;
  for (;;) {
    server::FrameResult decoded =
        server::DecodeFrame(rx, &payload, &frame_len);
    if (decoded == server::FrameResult::kOk) break;
    ASSERT_EQ(decoded, server::FrameResult::kIncomplete);
    ssize_t n = ::recv(refused, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "connection closed without an overload response";
    rx.append(buf, static_cast<size_t>(n));
  }
  ASSERT_FALSE(payload.empty());
  EXPECT_EQ(static_cast<util::StatusCode>(payload[0]),
            util::StatusCode::kOverloaded);
  // ...and then the connection is closed.
  EXPECT_EQ(::recv(refused, buf, sizeof(buf), 0), 0);
  ::close(refused);
  ::close(queued);
}

TEST_F(FaultToleranceTest, StopDrainsInflightRequests) {
  RequireFailpoints();
  if (IsSkipped()) return;
  server::ServerOptions options;
  options.drain_ms = 2000;
  auto srv = StartMemServer(options);
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(
      util::Failpoint::Enable("server/dispatch/delay", "delay=400,times=1")
          .ok());
  util::Status result = util::Status::Internal("never ran");
  std::thread in_flight(
      [&] { result = client->StorageBytes().status(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Stop() while the request sleeps inside dispatch: the drain must
  // let it finish and its response reach the client.
  srv->Stop();
  in_flight.join();
  EXPECT_TRUE(result.ok()) << result.ToString();
}

TEST(ServerTest, ManySequentialConnections) {
  // Connection churn: sockets are returned promptly and fd tracking
  // never shuts down a recycled descriptor.
  server::ServerOptions options;
  options.workers = 2;
  auto srv = StartMemServer(options);
  ASSERT_NE(srv, nullptr);
  for (int i = 0; i < 50; ++i) {
    auto client = ConnectTo(*srv);
    ASSERT_NE(client, nullptr);
    EXPECT_TRUE(client->StorageBytes().ok());
  }
  EXPECT_EQ(srv->connections_accepted(), 50u);
}

}  // namespace
}  // namespace hm
