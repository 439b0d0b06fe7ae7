#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "hypermodel/traversal.h"
#include "telemetry/metrics.h"
#include "util/bitmap.h"
#include "util/coding.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace hm::server {

namespace {

util::Status Errno(const std::string& what) {
  return util::Status::IoError(what + ": " + std::strerror(errno));
}

/// Per-opcode telemetry, resolved once for all 256 opcode bytes so the
/// dispatch fast path never touches the registry lock. Bytes outside
/// the OpCode enum share the "unknown" metrics.
struct OpMetrics {
  telemetry::Counter* count;
  telemetry::Counter* errors;
  telemetry::Histogram* latency_us;
};

const OpMetrics& MetricsFor(uint8_t op) {
  static const std::array<OpMetrics, 256>* table = [] {
    auto* t = new std::array<OpMetrics, 256>();
    auto& reg = telemetry::Registry::Global();
    for (size_t i = 0; i < t->size(); ++i) {
      std::string base = "server.op.";
      base += OpCodeName(static_cast<OpCode>(i));
      (*t)[i] = OpMetrics{reg.GetCounter(base + ".count"),
                          reg.GetCounter(base + ".errors"),
                          reg.GetHistogram(base + ".latency_us")};
    }
    return t;
  }();
  return (*table)[op];
}

/// False for the opcodes served without a database: session set-up,
/// Reset itself, introspection and the replication control plane.
bool TouchesBackend(OpCode op) {
  switch (op) {
    case OpCode::kHello:
    case OpCode::kReset:
    case OpCode::kStats:
    case OpCode::kPing:
    case OpCode::kShardInfo:
    case OpCode::kReplSubscribe:
    case OpCode::kReplSegment:
    case OpCode::kReplStatus:
    case OpCode::kReplPromote:
    case OpCode::kReplFence:
      return false;
    default:
      return true;
  }
}

/// Ceiling on a client-supplied BFS depth; anything above it is a
/// malformed (or hostile) count, not a legitimate traversal bound.
constexpr uint64_t kMaxTraversalDepth = 1u << 20;

/// Appends an OK header plus a varint-encoded node list.
void PutRefList(std::string* dst, const std::vector<NodeRef>& refs) {
  util::PutVarint64(dst, refs.size());
  for (NodeRef ref : refs) util::PutVarint64(dst, ref);
}

void PutEdgeList(std::string* dst, const std::vector<RefEdge>& edges) {
  util::PutVarint64(dst, edges.size());
  for (const RefEdge& edge : edges) {
    util::PutVarint64(dst, edge.node);
    util::PutVarSigned64(dst, edge.offset_from);
    util::PutVarSigned64(dst, edge.offset_to);
  }
}

/// kRangeKeyed's scan: the backend's own range lookup, each hit's sort
/// keys read in-process, then the hits in canonical (value, uniqueId)
/// order. On a fleet the backend is a ShardLocalStore, so proxies are
/// already dropped and refs already shard-qualified.
util::Status KeyedRange(HyperStore* store, Attr attr, int64_t lo, int64_t hi,
                        std::vector<KeyedRef>* out) {
  std::vector<NodeRef> refs;
  HM_RETURN_IF_ERROR(attr == Attr::kHundred
                         ? store->RangeHundred(lo, hi, &refs)
                         : store->RangeMillion(lo, hi, &refs));
  out->reserve(refs.size());
  for (NodeRef ref : refs) {
    HM_ASSIGN_OR_RETURN(int64_t value, store->GetAttr(ref, attr));
    HM_ASSIGN_OR_RETURN(int64_t uid, store->GetAttr(ref, Attr::kUniqueId));
    out->push_back({ref, value, uid});
  }
  // Keys are unique, so stability is moot; the merge sort is chosen
  // for speed: a value index yields nearly sorted hits, which it
  // orders in about half the time std::sort takes.
  std::stable_sort(out->begin(), out->end(), KeyedRefLess);
  return util::Status::Ok();
}

}  // namespace

bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

Server::Session::~Session() {
  if (fd >= 0) ::close(fd);
}

bool Server::SessionQueue::Push(std::unique_ptr<Session>& session) {
  util::MutexLock lock(mu_);
  if (closed_ || sessions_.size() >= capacity_) return false;
  sessions_.push_back(std::move(session));
  cv_.notify_one();
  return true;
}

std::unique_ptr<Server::Session> Server::SessionQueue::Pop() {
  util::MutexLock lock(mu_);
  while (!closed_ && sessions_.empty()) cv_.wait(lock);
  if (sessions_.empty()) return nullptr;  // closed and drained
  std::unique_ptr<Session> session = std::move(sessions_.front());
  sessions_.pop_front();
  return session;
}

void Server::SessionQueue::Close() {
  util::MutexLock lock(mu_);
  closed_ = true;
  sessions_.clear();  // unserved connections are simply closed
  cv_.notify_all();
}

util::Result<std::unique_ptr<Server>> Server::Start(
    const ServerOptions& options, std::unique_ptr<HyperStore> backend) {
  if (backend == nullptr) {
    return util::Status::InvalidArgument("server requires a backend");
  }
  if (options.workers <= 0) {
    return util::Status::InvalidArgument("server requires >= 1 worker");
  }
  std::unique_ptr<Server> server(
      new Server(options, std::move(backend)));
  server->concurrent_reads_ok_.store(
      server->backend_->SupportsConcurrentReads(), std::memory_order_relaxed);
  HM_RETURN_IF_ERROR(server->Listen());
  server->listener_ = std::thread([s = server.get()] { s->ListenLoop(); });
  for (int i = 0; i < options.workers; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  return server;
}

util::Status Server::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return util::Status::InvalidArgument("bad bind address: " +
                                         options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind " + options_.host + ":" +
                 std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 128) != 0) return Errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &len) != 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  return util::Status::Ok();
}

Server::~Server() { Stop(); }

void Server::Stop() {
  {
    util::MutexLock lock(stop_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  stopping_.store(true);
  // Unblock accept(); the listener exits its loop on the next return.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (listener_.joinable()) listener_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  queue_.Close();
  {
    // Drain phase: half-close the read side of every in-flight
    // connection. The worker's next recv() returns 0 (no further
    // requests) but the write side stays open, so responses to
    // requests already received are still delivered. See TrackFd()
    // for why this cannot hit a recycled descriptor.
    util::MutexLock lock(fds_mu_);
    for (int fd : active_fds_) ::shutdown(fd, SHUT_RD);
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_ms);
  for (;;) {
    {
      util::MutexLock lock(fds_mu_);
      if (active_fds_.empty()) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        // Grace period exhausted: sever both directions so workers
        // blocked writing to unresponsive peers unblock too.
        for (int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void Server::WithExclusiveBackend(
    const std::function<void(HyperStore*)>& fn) {
  util::MutexLock lock(backend_mu_);
  // The only caller is the replication replay path, which mutates the
  // store outside the dispatch loop — so the reset-idempotence word
  // must flip here, or a replica promoted after replaying history
  // would answer kReset with a clean-database no-op.
  MarkDirty();
  fn(backend_.get());
}

void Server::TrackFd(int fd) {
  util::MutexLock lock(fds_mu_);
  active_fds_.insert(fd);
}

void Server::UntrackFd(int fd) {
  util::MutexLock lock(fds_mu_);
  active_fds_.erase(fd);
}

void Server::Dispatch(Session* session, std::string_view request,
                      std::string* response) {
  if (request.empty()) {
    PutStatus(response,
              util::Status::InvalidArgument("empty request payload"));
    return;
  }
  const auto op = static_cast<OpCode>(request[0]);

  // Load shedding: beyond the in-flight ceiling, answer kOverloaded
  // immediately instead of queueing behind backend_mu_ — a loaded
  // server stays responsive (with refusals) rather than building an
  // unbounded convoy of waiters.
  struct InflightSlot {
    std::atomic<int>* count = nullptr;
    ~InflightSlot() {
      if (count != nullptr) count->fetch_sub(1, std::memory_order_acq_rel);
    }
  } slot;
  if (options_.max_inflight > 0) {
    if (inflight_.fetch_add(1, std::memory_order_acq_rel) >=
        options_.max_inflight) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      shed_.fetch_add(1);
      static telemetry::Counter* shed_counter =
          telemetry::Registry::Global().GetCounter("server.shed_requests");
      shed_counter->Add();
      PutStatus(response,
                util::Status::Overloaded(
                    "server overloaded: in-flight ceiling of " +
                    std::to_string(options_.max_inflight) + " reached"));
      return;
    }
    slot.count = &inflight_;
  }
  // Artificial dispatch latency for deadline/drain tests; inside the
  // in-flight slot so a delayed request occupies capacity like a
  // genuinely slow one.
  HM_FAILPOINT_HIT("server/dispatch/delay");

  // Replication data-plane ops (subscribe / segment fetch / status
  // ack) never touch the backend — the WAL, the shipper and the role
  // word are all internally synchronized — so they bypass backend_mu_
  // entirely. This is load-bearing, not an optimization: a semi-sync
  // kCommit blocks holding the exclusive side until a follower acks,
  // and that ack arrives as a kReplStatus which must not queue behind
  // the very lock the commit is holding.
  if (op == OpCode::kReplSubscribe || op == OpCode::kReplSegment ||
      op == OpCode::kReplStatus) {
    requests_.fetch_add(1);
    DispatchReplUnlocked(session, request, response);
    return;
  }

  // Batch contents are decoded before taking the lock so an all-read
  // batch can still ride the shared side.
  std::vector<std::string_view> subs;
  const bool is_batch = op == OpCode::kBatch;
  if (is_batch && !DecodeBatch(request.substr(1), &subs)) {
    PutStatus(response,
              util::Status::InvalidArgument("malformed or oversized batch"));
    return;
  }

  bool read_only = IsReadOnlyOp(op);
  if (is_batch) {
    read_only = std::all_of(subs.begin(), subs.end(), [](std::string_view s) {
      return !s.empty() && IsReadOnlyOp(static_cast<OpCode>(s[0]));
    });
  }
  const bool use_shared =
      read_only && concurrent_reads_ok_.load(std::memory_order_relaxed);

  if (use_shared) {
    shared_reads_.fetch_add(1);
    util::SharedMutexLock lock(backend_mu_);
    DispatchLocked(session, op, is_batch, subs, request, response);
  } else {
    util::MutexLock lock(backend_mu_);
    DispatchLocked(session, op, is_batch, subs, request, response);
  }
}

void Server::DispatchLocked(Session* session, OpCode op, bool is_batch,
                            const std::vector<std::string_view>& subs,
                            std::string_view request,
                            std::string* response) {
  requests_.fetch_add(is_batch ? subs.size() : 1);
  if (is_batch) {
    static telemetry::Histogram* batch_size =
        telemetry::Registry::Global().GetHistogram("server.batch.size");
    batch_size->Record(subs.size());
  }

  // A session adopts the server's reset epoch on first contact; a
  // mismatch later means another session rebuilt the database out from
  // under this one, and its NodeRefs point into a discarded store —
  // answer with a clean Conflict instead of serving garbage. Hello and
  // Reset re-synchronize the session. (Session state is only ever
  // touched by the one worker serving it.)
  if (!session->epoch_synced) {
    session->epoch = reset_epoch_;
    session->epoch_synced = true;
  }
  if (op != OpCode::kHello && op != OpCode::kReset &&
      session->epoch != reset_epoch_) {
    static telemetry::Counter* conflicts =
        telemetry::Registry::Global().GetCounter("server.conflicts");
    conflicts->Add();
    PutStatus(response,
              util::Status::Conflict(
                  "database was reset by another session; re-handshake "
                  "(Hello) to observe the new store"));
    return;
  }

  // After a failed rebuild there is no database: only the opcodes that
  // never touch one are served, so a client can still connect and
  // send the kReset that retries the factory.
  if (backend_ == nullptr && (is_batch || TouchesBackend(op))) {
    PutStatus(response,
              util::Status::Unavailable(
                  "server has no database after a failed reset; send "
                  "Reset to rebuild it"));
    return;
  }

  if (is_batch) {
    PutStatus(response, util::Status::Ok());
    util::PutVarint64(response, subs.size());
    std::string sub_response;
    for (std::string_view sub : subs) {
      sub_response.clear();
      if (!sub.empty() && static_cast<OpCode>(sub[0]) == OpCode::kBatch) {
        PutStatus(&sub_response,
                  util::Status::InvalidArgument("nested batch"));
      } else {
        DispatchOne(session, sub, &sub_response);
      }
      util::PutLengthPrefixed(response, sub_response);
    }
    return;
  }
  DispatchOne(session, request, response);
}

void Server::DispatchReplUnlocked(Session* session,
                                  std::string_view request,
                                  std::string* response) {
  DispatchOne(session, request, response);
}

void Server::DispatchOne(Session* session, std::string_view request,
                         std::string* response) {
  // `response` arrives empty (fresh sub_response for batch entries, an
  // untouched buffer for singles), so the first byte of what Impl
  // wrote is the status code.
  const OpMetrics& metrics =
      MetricsFor(request.empty() ? 0 : static_cast<uint8_t>(request[0]));
  util::Timer timer;
  DispatchOneImpl(session, request, response);
  metrics.count->Add();
  if (response->empty() ||
      response->front() != static_cast<char>(util::StatusCode::kOk)) {
    metrics.errors->Add();
  }
  metrics.latency_us->Record(static_cast<uint64_t>(timer.ElapsedMicros()));
}

void Server::DispatchOneImpl(Session* session, std::string_view request,
                             std::string* response) {
  if (request.empty()) {
    PutStatus(response,
              util::Status::InvalidArgument("empty request payload"));
    return;
  }
  const auto op = static_cast<OpCode>(request[0]);
  util::Decoder body(request.substr(1));

  // Decode helpers: on failure the request is answered with
  // InvalidArgument rather than dropping the connection — framing is
  // still intact, only this request was malformed.
  auto bad_request = [&] {
    response->clear();
    PutStatus(response,
              util::Status::InvalidArgument("malformed request body"));
  };
  // Appends `status` plus, when OK, the body built by `fill`.
  auto reply = [&](const util::Status& status, auto&& fill) {
    PutStatus(response, status);
    if (status.ok()) fill();
  };
  auto reply_status = [&](const util::Status& status) {
    PutStatus(response, status);
  };

  // Replication gate: with a role installed, every mutating opcode is
  // refused with a typed error before it can touch the backend — a
  // replica answers kReadOnly, a fenced old primary kFencedOff. The
  // kRepl* opcodes themselves are exempt: Promote and Fence ARE the
  // role transitions this gate exists to enforce.
  if (options_.replication != nullptr && !IsReadOnlyOp(op) &&
      op != OpCode::kReplPromote && op != OpCode::kReplFence) {
    util::Status gate = options_.replication->CheckMutation();
    if (!gate.ok()) {
      reply_status(gate);
      return;
    }
  }

  switch (op) {
    case OpCode::kHello: {
      // Exact match only: clients and servers are built from the same
      // source, so a different version is a mis-deployment, not a peer
      // to serve at a lower level. An empty body is the v1 spelling.
      uint64_t client_version = 1;
      if (!body.Empty() &&
          (!body.GetVarint64(&client_version) || !body.Empty())) {
        bad_request();
        return;
      }
      if (client_version != kWireVersion) {
        reply_status(util::Status::InvalidArgument(
            "wire version mismatch: client " +
            std::to_string(client_version) + ", server " +
            std::to_string(kWireVersion)));
        return;
      }
      session->epoch = reset_epoch_;  // re-handshake adopts the current DB
      std::string name = backend_ != nullptr ? backend_->name() : "none";
      reply(util::Status::Ok(), [&] {
        response->push_back(static_cast<char>(kWireVersion));
        util::PutLengthPrefixed(response, name);
      });
      return;
    }
    case OpCode::kReset: {
      if (!dirty_) {
        // Nothing mutated since the last rebuild (or startup): Reset
        // is an idempotent no-op, so concurrent clients that each
        // reset-on-open don't invalidate one another — and no factory
        // is needed to "rebuild" an untouched store.
        session->epoch = reset_epoch_;
        reply_status(util::Status::Ok());
        return;
      }
      if (!options_.reset_factory) {
        reply_status(util::Status::NotSupported(
            "server was started without a reset factory"));
        return;
      }
      util::Status rebuilt = RebuildBackendExclusive();
      session->epoch = reset_epoch_;
      reply_status(rebuilt);
      return;
    }
    case OpCode::kBegin:
      reply_status(backend_->Begin());
      return;
    case OpCode::kCommit: {
      util::Status committed = backend_->Commit();
      if (committed.ok() && options_.replication != nullptr) {
        // Semi-sync barrier: the commit is locally durable; hold the
        // acknowledgement until a follower has replayed it (bounded —
        // the handler degrades to async on timeout and counts it).
        committed = options_.replication->WaitCommitReplicated();
      }
      reply_status(committed);
      return;
    }
    case OpCode::kAbort:
      reply_status(backend_->Abort());
      return;
    case OpCode::kCloseReopen:
      reply_status(backend_->CloseReopen());
      return;
    case OpCode::kCreateNode: {
      NodeAttrs attrs;
      uint64_t near = 0;
      uint64_t kind = 0;
      if (!body.GetVarSigned64(&attrs.unique_id) ||
          !body.GetVarSigned64(&attrs.ten) ||
          !body.GetVarSigned64(&attrs.hundred) ||
          !body.GetVarSigned64(&attrs.thousand) ||
          !body.GetVarSigned64(&attrs.million) ||
          !body.GetVarint64(&kind) || kind > 3 ||
          !body.GetVarint64(&near)) {
        bad_request();
        return;
      }
      attrs.kind = static_cast<NodeKind>(kind);
      MarkDirty();
      auto ref = backend_->CreateNode(attrs, near);
      reply(ref.status(), [&] { util::PutVarint64(response, *ref); });
      return;
    }
    case OpCode::kSetText: {
      uint64_t node = 0;
      std::string_view text;
      if (!body.GetVarint64(&node) || !body.GetLengthPrefixed(&text)) {
        bad_request();
        return;
      }
      MarkDirty();
      reply_status(backend_->SetText(node, text));
      return;
    }
    case OpCode::kSetForm: {
      uint64_t node = 0;
      std::string_view serialized;
      if (!body.GetVarint64(&node) ||
          !body.GetLengthPrefixed(&serialized)) {
        bad_request();
        return;
      }
      auto form = util::Bitmap::Deserialize(serialized);
      if (!form.ok()) {
        reply_status(form.status());
        return;
      }
      MarkDirty();
      reply_status(backend_->SetForm(node, *form));
      return;
    }
    case OpCode::kAddChild: {
      uint64_t parent = 0, child = 0;
      if (!body.GetVarint64(&parent) || !body.GetVarint64(&child)) {
        bad_request();
        return;
      }
      MarkDirty();
      reply_status(backend_->AddChild(parent, child));
      return;
    }
    case OpCode::kAddPart: {
      uint64_t owner = 0, part = 0;
      if (!body.GetVarint64(&owner) || !body.GetVarint64(&part)) {
        bad_request();
        return;
      }
      MarkDirty();
      reply_status(backend_->AddPart(owner, part));
      return;
    }
    case OpCode::kAddRef: {
      uint64_t from = 0, to = 0;
      int64_t offset_from = 0, offset_to = 0;
      if (!body.GetVarint64(&from) || !body.GetVarint64(&to) ||
          !body.GetVarSigned64(&offset_from) ||
          !body.GetVarSigned64(&offset_to)) {
        bad_request();
        return;
      }
      MarkDirty();
      reply_status(backend_->AddRef(from, to, offset_from, offset_to));
      return;
    }
    case OpCode::kGetAttr:
    case OpCode::kSetAttr: {
      uint64_t node = 0;
      uint64_t attr = 0;
      if (!body.GetVarint64(&node) || !body.GetVarint64(&attr) ||
          attr > 4) {
        bad_request();
        return;
      }
      if (op == OpCode::kGetAttr) {
        auto value = backend_->GetAttr(node, static_cast<Attr>(attr));
        reply(value.status(),
              [&] { util::PutVarSigned64(response, *value); });
      } else {
        int64_t value = 0;
        if (!body.GetVarSigned64(&value)) {
          bad_request();
          return;
        }
        MarkDirty();
        reply_status(
            backend_->SetAttr(node, static_cast<Attr>(attr), value));
      }
      return;
    }
    case OpCode::kGetKind: {
      uint64_t node = 0;
      if (!body.GetVarint64(&node)) {
        bad_request();
        return;
      }
      auto kind = backend_->GetKind(node);
      reply(kind.status(), [&] {
        response->push_back(static_cast<char>(*kind));
      });
      return;
    }
    case OpCode::kGetText:
    case OpCode::kGetContents: {
      uint64_t node = 0;
      if (!body.GetVarint64(&node)) {
        bad_request();
        return;
      }
      auto text = op == OpCode::kGetText ? backend_->GetText(node)
                                         : backend_->GetContents(node);
      reply(text.status(),
            [&] { util::PutLengthPrefixed(response, *text); });
      return;
    }
    case OpCode::kGetForm: {
      uint64_t node = 0;
      if (!body.GetVarint64(&node)) {
        bad_request();
        return;
      }
      auto form = backend_->GetForm(node);
      reply(form.status(), [&] {
        util::PutLengthPrefixed(response, form->Serialize());
      });
      return;
    }
    case OpCode::kSetContents: {
      uint64_t node = 0;
      std::string_view data;
      if (!body.GetVarint64(&node) || !body.GetLengthPrefixed(&data)) {
        bad_request();
        return;
      }
      MarkDirty();
      reply_status(backend_->SetContents(node, data));
      return;
    }
    case OpCode::kLookupUnique: {
      int64_t unique_id = 0;
      if (!body.GetVarSigned64(&unique_id)) {
        bad_request();
        return;
      }
      auto ref = backend_->LookupUnique(unique_id);
      reply(ref.status(), [&] { util::PutVarint64(response, *ref); });
      return;
    }
    case OpCode::kRangeHundred:
    case OpCode::kRangeMillion: {
      int64_t lo = 0, hi = 0;
      if (!body.GetVarSigned64(&lo) || !body.GetVarSigned64(&hi)) {
        bad_request();
        return;
      }
      std::vector<NodeRef> refs;
      util::Status status =
          op == OpCode::kRangeHundred
              ? backend_->RangeHundred(lo, hi, &refs)
              : backend_->RangeMillion(lo, hi, &refs);
      reply(status, [&] { PutRefList(response, refs); });
      return;
    }
    case OpCode::kRangeKeyed: {
      uint64_t attr = 0;
      int64_t lo = 0, hi = 0;
      if (!body.GetVarint64(&attr) || !body.GetVarSigned64(&lo) ||
          !body.GetVarSigned64(&hi)) {
        bad_request();
        return;
      }
      if (attr != static_cast<uint64_t>(Attr::kHundred) &&
          attr != static_cast<uint64_t>(Attr::kMillion)) {
        reply_status(util::Status::InvalidArgument(
            "range_keyed scans hundred or million, not attr " +
            std::to_string(attr)));
        return;
      }
      std::vector<KeyedRef> hits;
      util::Status status = KeyedRange(
          backend_.get(), static_cast<Attr>(attr), lo, hi, &hits);
      reply(status, [&] {
        util::PutVarint64(response, hits.size());
        for (const KeyedRef& hit : hits) {
          util::PutVarint64(response, hit.node);
          util::PutVarSigned64(response, hit.value);
          util::PutVarSigned64(response, hit.unique_id);
        }
      });
      return;
    }
    case OpCode::kChildren:
    case OpCode::kParts:
    case OpCode::kPartOf: {
      uint64_t node = 0;
      if (!body.GetVarint64(&node)) {
        bad_request();
        return;
      }
      std::vector<NodeRef> refs;
      util::Status status =
          op == OpCode::kChildren ? backend_->Children(node, &refs)
          : op == OpCode::kParts  ? backend_->Parts(node, &refs)
                                  : backend_->PartOf(node, &refs);
      reply(status, [&] { PutRefList(response, refs); });
      return;
    }
    case OpCode::kParent: {
      uint64_t node = 0;
      if (!body.GetVarint64(&node)) {
        bad_request();
        return;
      }
      auto parent = backend_->Parent(node);
      reply(parent.status(),
            [&] { util::PutVarint64(response, *parent); });
      return;
    }
    case OpCode::kRefsTo:
    case OpCode::kRefsFrom: {
      uint64_t node = 0;
      if (!body.GetVarint64(&node)) {
        bad_request();
        return;
      }
      std::vector<RefEdge> edges;
      util::Status status = op == OpCode::kRefsTo
                                ? backend_->RefsTo(node, &edges)
                                : backend_->RefsFrom(node, &edges);
      reply(status, [&] { PutEdgeList(response, edges); });
      return;
    }
    case OpCode::kStorageBytes: {
      auto bytes = backend_->StorageBytes();
      reply(bytes.status(),
            [&] { util::PutVarint64(response, *bytes); });
      return;
    }
    case OpCode::kBatch:
      // Unpacked by Dispatch(); reaching here means nesting.
      reply_status(util::Status::InvalidArgument("nested batch"));
      return;
    case OpCode::kChildrenMulti: {
      uint64_t count = 0;
      if (!body.GetVarint64(&count) || count > kMaxBatchEntries) {
        bad_request();
        return;
      }
      std::vector<NodeRef> nodes(count);
      for (NodeRef& node : nodes) {
        if (!body.GetVarint64(&node)) {
          bad_request();
          return;
        }
      }
      std::string lists;
      util::Status status = util::Status::Ok();
      for (NodeRef node : nodes) {
        std::vector<NodeRef> refs;
        status = backend_->Children(node, &refs);
        if (!status.ok()) break;
        PutRefList(&lists, refs);
      }
      reply(status, [&] {
        util::PutVarint64(response, count);
        response->append(lists);
      });
      return;
    }
    case OpCode::kGetAttrsMulti: {
      uint64_t attr = 0;
      uint64_t count = 0;
      if (!body.GetVarint64(&attr) || attr > 4 ||
          !body.GetVarint64(&count) || count > kMaxBatchEntries) {
        bad_request();
        return;
      }
      std::vector<NodeRef> nodes(count);
      for (NodeRef& node : nodes) {
        if (!body.GetVarint64(&node)) {
          bad_request();
          return;
        }
      }
      std::string values;
      util::Status status = util::Status::Ok();
      for (NodeRef node : nodes) {
        auto value = backend_->GetAttr(node, static_cast<Attr>(attr));
        status = value.status();
        if (!status.ok()) break;
        util::PutVarSigned64(&values, *value);
      }
      reply(status, [&] {
        util::PutVarint64(response, count);
        response->append(values);
      });
      return;
    }
    case OpCode::kClosure1N:
    case OpCode::kClosureMN: {
      uint64_t start = 0;
      if (!body.GetVarint64(&start)) {
        bad_request();
        return;
      }
      std::vector<NodeRef> refs;
      util::Status status =
          op == OpCode::kClosure1N
              ? traversal::Closure1N(backend_.get(), start, &refs)
              : traversal::ClosureMN(backend_.get(), start, &refs);
      reply(status, [&] { PutRefList(response, refs); });
      return;
    }
    case OpCode::kClosureMNAtt: {
      uint64_t start = 0;
      uint64_t depth = 0;
      if (!body.GetVarint64(&start) || !body.GetVarint64(&depth) ||
          depth > kMaxTraversalDepth) {
        bad_request();
        return;
      }
      std::vector<NodeRef> refs;
      util::Status status = traversal::ClosureMNAtt(
          backend_.get(), start, static_cast<int>(depth), &refs);
      reply(status, [&] { PutRefList(response, refs); });
      return;
    }
    case OpCode::kClosure1NAttSum: {
      uint64_t start = 0;
      if (!body.GetVarint64(&start)) {
        bad_request();
        return;
      }
      uint64_t visited = 0;
      auto sum = traversal::Closure1NAttSum(backend_.get(), start, &visited);
      reply(sum.status(), [&] {
        util::PutVarint64(response, visited);
        util::PutVarSigned64(response, *sum);
      });
      return;
    }
    case OpCode::kClosure1NAttSet: {
      uint64_t start = 0;
      if (!body.GetVarint64(&start)) {
        bad_request();
        return;
      }
      MarkDirty();
      auto count = traversal::Closure1NAttSet(backend_.get(), start);
      reply(count.status(),
            [&] { util::PutVarint64(response, *count); });
      return;
    }
    case OpCode::kClosure1NPred: {
      uint64_t start = 0;
      int64_t lo = 0, hi = 0;
      if (!body.GetVarint64(&start) || !body.GetVarSigned64(&lo) ||
          !body.GetVarSigned64(&hi)) {
        bad_request();
        return;
      }
      std::vector<NodeRef> refs;
      util::Status status =
          traversal::Closure1NPred(backend_.get(), start, lo, hi, &refs);
      reply(status, [&] { PutRefList(response, refs); });
      return;
    }
    case OpCode::kClosureMNAttLinkSum: {
      uint64_t start = 0;
      uint64_t depth = 0;
      if (!body.GetVarint64(&start) || !body.GetVarint64(&depth) ||
          depth > kMaxTraversalDepth) {
        bad_request();
        return;
      }
      std::vector<NodeDistance> dists;
      util::Status status = traversal::ClosureMNAttLinkSum(
          backend_.get(), start, static_cast<int>(depth), &dists);
      reply(status, [&] {
        util::PutVarint64(response, dists.size());
        for (const NodeDistance& d : dists) {
          util::PutVarint64(response, d.node);
          util::PutVarSigned64(response, d.distance);
        }
      });
      return;
    }
    case OpCode::kStats: {
      if (!body.Empty()) {
        bad_request();
        return;
      }
      telemetry::Snapshot snapshot =
          telemetry::Registry::Global().TakeSnapshot();
      reply(util::Status::Ok(), [&] { snapshot.SerializeTo(response); });
      return;
    }

    case OpCode::kPing: {
      if (!body.Empty()) {
        bad_request();
        return;
      }
      // Liveness probe: proves the whole request/response path (frame,
      // dispatch, lock) without touching the backend's data.
      reply_status(util::Status::Ok());
      return;
    }

    case OpCode::kShardInfo: {
      if (!body.Empty()) {
        bad_request();
        return;
      }
      reply(util::Status::Ok(), [&] {
        util::PutVarint64(response, options_.shard_id);
        util::PutVarint64(response, options_.shard_count);
      });
      return;
    }

    case OpCode::kReplSubscribe:
    case OpCode::kReplSegment:
    case OpCode::kReplStatus:
    case OpCode::kReplPromote:
    case OpCode::kReplFence: {
      ReplicationHandler* repl = options_.replication;
      if (repl == nullptr) {
        reply_status(util::Status::NotSupported(
            "server has no replication role configured"));
        return;
      }
      const std::string_view repl_body = request.substr(1);
      std::string result;
      util::Status status;
      switch (op) {
        case OpCode::kReplSubscribe:
          status = repl->HandleSubscribe(repl_body, &result);
          break;
        case OpCode::kReplSegment:
          status = repl->HandleSegment(repl_body, &result);
          break;
        case OpCode::kReplStatus:
          status = repl->HandleStatus(repl_body, &result);
          break;
        case OpCode::kReplPromote:
          status = repl->HandlePromote(repl_body, &result);
          break;
        default:
          status = repl->HandleFence(repl_body, &result);
          break;
      }
      reply(status, [&] { response->append(result); });
      return;
    }
  }
  reply_status(util::Status::NotSupported(
      "unknown opcode " + std::to_string(request[0])));
}

}  // namespace hm::server
