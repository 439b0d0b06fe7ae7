#include "hypermodel/backends/sharded_store.h"

#include <algorithm>
#include <functional>
#include <unordered_set>
#include <utility>

#include "cluster/shard_local_store.h"
#include "cluster/shard_map.h"
#include "hypermodel/backends/mem_store.h"
#include "server/server.h"

namespace hm::backends {

namespace {

/// Fresh shard-k-of-n backend for the loopback fleet (also its
/// kReset rebuild path).
util::Result<std::unique_ptr<HyperStore>> MakeLoopbackShard(
    uint32_t shard_id, uint32_t shard_count) {
  auto wrapped = cluster::ShardLocalStore::Wrap(
      {shard_id, shard_count}, std::make_unique<MemStore>());
  if (!wrapped.ok()) return wrapped.status();
  return std::unique_ptr<HyperStore>(std::move(*wrapped));
}

}  // namespace

ShardedStore::ShardedStore(std::vector<std::unique_ptr<RemoteStore>> shards)
    : shards_(std::move(shards)) {
  auto& registry = telemetry::Registry::Global();
  rpcs_.reserve(shards_.size());
  for (size_t k = 0; k < shards_.size(); ++k) {
    rpcs_.push_back(registry.GetCounter("cluster.shard" +
                                        std::to_string(k) + ".rpcs"));
  }
  fanout_ = registry.GetHistogram("cluster.fanout");
  cross_edges_ = registry.GetCounter("cluster.cross_shard_edges");
}

util::Result<std::unique_ptr<ShardedStore>> ShardedStore::Connect(
    const std::string& addr_list, RemoteOptions base_options) {
  HM_ASSIGN_OR_RETURN(std::vector<std::string> addrs,
                      cluster::SplitShardAddrs(addr_list));
  std::vector<std::unique_ptr<RemoteStore>> shards;
  shards.reserve(addrs.size());
  for (size_t k = 0; k < addrs.size(); ++k) {
    HM_ASSIGN_OR_RETURN(RemoteOptions parsed, ParseRemoteAddr(addrs[k]));
    RemoteOptions options = base_options;
    options.host = parsed.host;
    options.port = parsed.port;
    // Name the member in every transport error this client surfaces,
    // so losing one shard reads "shard 2 at host:port ..." instead of
    // an anonymous "remote ...".
    options.peer_label = "shard " + std::to_string(k) + " at " + addrs[k];
    HM_ASSIGN_OR_RETURN(std::unique_ptr<RemoteStore> client,
                        RemoteStore::Connect(options));
    uint32_t id = 0;
    uint32_t count = 0;
    HM_RETURN_IF_ERROR(client->ShardInfo(&id, &count));
    if (id != k || count != addrs.size()) {
      return util::Status::InvalidArgument(
          "mis-wired fleet: " + addrs[k] + " claims shard " +
          std::to_string(id) + "/" + std::to_string(count) +
          ", expected " + std::to_string(k) + "/" +
          std::to_string(addrs.size()));
    }
    shards.push_back(std::move(client));
  }
  return std::unique_ptr<ShardedStore>(
      new ShardedStore(std::move(shards)));
}

util::Result<std::unique_ptr<ShardedStore>> ShardedStore::Loopback(
    uint32_t shard_count, RemoteMode mode, RemoteOptions client_options) {
  if (shard_count < 1 || shard_count > cluster::kMaxShards) {
    return util::Status::InvalidArgument("bad loopback shard count " +
                                         std::to_string(shard_count));
  }
  std::vector<std::unique_ptr<RemoteStore>> shards;
  shards.reserve(shard_count);
  for (uint32_t k = 0; k < shard_count; ++k) {
    HM_ASSIGN_OR_RETURN(std::unique_ptr<HyperStore> backend,
                        MakeLoopbackShard(k, shard_count));
    server::ServerOptions server_options;
    server_options.shard_id = k;
    server_options.shard_count = shard_count;
    server_options.reset_factory = [k, shard_count] {
      return MakeLoopbackShard(k, shard_count);
    };
    RemoteOptions labeled = client_options;
    labeled.peer_label = "shard " + std::to_string(k) + " (loopback)";
    HM_ASSIGN_OR_RETURN(
        std::unique_ptr<RemoteStore> client,
        RemoteStore::Loopback(std::move(backend), server_options, mode,
                              labeled));
    shards.push_back(std::move(client));
  }
  return std::unique_ptr<ShardedStore>(
      new ShardedStore(std::move(shards)));
}

RemoteStore* ShardedStore::At(size_t k) {
  rpcs_[k]->Add();
  return shards_[k].get();
}

util::Status ShardedStore::OwnerOf(NodeRef node, size_t* shard) const {
  size_t k = cluster::ShardOf(node);
  if (node == kInvalidNode || k >= shards_.size()) {
    return util::Status::NotFound("no shard owns ref " +
                                  std::to_string(node));
  }
  *shard = k;
  return util::Status::Ok();
}

util::Status ShardedStore::ResetServer() {
  for (size_t k = 0; k < shards_.size(); ++k) {
    HM_RETURN_IF_ERROR(At(k)->ResetServer());
  }
  root_ = kInvalidNode;
  return util::Status::Ok();
}

util::Status ShardedStore::Begin() {
  for (size_t k = 0; k < shards_.size(); ++k) {
    HM_RETURN_IF_ERROR(At(k)->Begin());
  }
  return util::Status::Ok();
}

util::Status ShardedStore::Commit() {
  // One commit per shard, in shard order — §14's explicit non-goal is
  // atomicity across shards; a failure here can leave earlier shards
  // committed.
  for (size_t k = 0; k < shards_.size(); ++k) {
    HM_RETURN_IF_ERROR(At(k)->Commit());
  }
  return util::Status::Ok();
}

util::Status ShardedStore::Abort() {
  for (size_t k = 0; k < shards_.size(); ++k) {
    HM_RETURN_IF_ERROR(At(k)->Abort());
  }
  return util::Status::Ok();
}

util::Status ShardedStore::CloseReopen() {
  for (size_t k = 0; k < shards_.size(); ++k) {
    HM_RETURN_IF_ERROR(At(k)->CloseReopen());
  }
  return util::Status::Ok();
}

util::Result<NodeRef> ShardedStore::CreateNode(const NodeAttrs& attrs,
                                               NodeRef near) {
  size_t target = 0;
  if (near == kInvalidNode) {
    target = 0;  // the root (and rootless creations) anchor shard 0
  } else if (near == root_) {
    // Children of the root are the top-level subtrees — the placement
    // unit. Spread them by uniqueId so the fleet shares the load.
    target = static_cast<uint64_t>(attrs.unique_id) % shards_.size();
  } else {
    HM_RETURN_IF_ERROR(OwnerOf(near, &target));
  }
  HM_ASSIGN_OR_RETURN(NodeRef ref, At(target)->CreateNode(attrs, near));
  if (root_ == kInvalidNode) root_ = ref;
  return ref;
}

util::Status ShardedStore::SetText(NodeRef node, std::string_view text) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->SetText(node, text);
}

util::Status ShardedStore::SetForm(NodeRef node, const util::Bitmap& form) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->SetForm(node, form);
}

util::Status ShardedStore::AddChild(NodeRef parent, NodeRef child) {
  size_t pk = 0;
  size_t ck = 0;
  HM_RETURN_IF_ERROR(OwnerOf(parent, &pk));
  HM_RETURN_IF_ERROR(OwnerOf(child, &ck));
  if (pk == ck) return At(pk)->AddChild(parent, child);
  // Child's shard first: it holds the real child node, so its
  // single-parent check is the authoritative one — a second parent is
  // rejected before the parent side learns anything.
  HM_RETURN_IF_ERROR(At(ck)->AddChild(parent, child));
  HM_RETURN_IF_ERROR(At(pk)->AddChild(parent, child));
  cross_edges_->Add();
  return util::Status::Ok();
}

util::Status ShardedStore::AddPart(NodeRef owner, NodeRef part) {
  size_t ok = 0;
  size_t pk = 0;
  HM_RETURN_IF_ERROR(OwnerOf(owner, &ok));
  HM_RETURN_IF_ERROR(OwnerOf(part, &pk));
  if (ok == pk) return At(ok)->AddPart(owner, part);
  HM_RETURN_IF_ERROR(At(ok)->AddPart(owner, part));
  HM_RETURN_IF_ERROR(At(pk)->AddPart(owner, part));
  cross_edges_->Add();
  return util::Status::Ok();
}

util::Status ShardedStore::AddRef(NodeRef from, NodeRef to,
                                  int64_t offset_from, int64_t offset_to) {
  size_t fk = 0;
  size_t tk = 0;
  HM_RETURN_IF_ERROR(OwnerOf(from, &fk));
  HM_RETURN_IF_ERROR(OwnerOf(to, &tk));
  if (fk == tk) return At(fk)->AddRef(from, to, offset_from, offset_to);
  HM_RETURN_IF_ERROR(At(fk)->AddRef(from, to, offset_from, offset_to));
  HM_RETURN_IF_ERROR(At(tk)->AddRef(from, to, offset_from, offset_to));
  cross_edges_->Add();
  return util::Status::Ok();
}

util::Result<int64_t> ShardedStore::GetAttr(NodeRef node, Attr attr) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->GetAttr(node, attr);
}

util::Status ShardedStore::SetAttr(NodeRef node, Attr attr, int64_t value) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->SetAttr(node, attr, value);
}

util::Result<NodeKind> ShardedStore::GetKind(NodeRef node) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->GetKind(node);
}

util::Result<std::string> ShardedStore::GetText(NodeRef node) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->GetText(node);
}

util::Result<util::Bitmap> ShardedStore::GetForm(NodeRef node) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->GetForm(node);
}

util::Status ShardedStore::SetContents(NodeRef node, std::string_view data) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->SetContents(node, data);
}

util::Result<std::string> ShardedStore::GetContents(NodeRef node) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->GetContents(node);
}

util::Result<NodeRef> ShardedStore::LookupUnique(int64_t unique_id) {
  // uniqueIds carry no placement information, so probe the fleet in
  // shard order; the first hit wins (uniqueIds are globally unique —
  // each shard enforces them locally and the generator never reuses
  // one across shards).
  size_t probed = 0;
  for (size_t k = 0; k < shards_.size(); ++k) {
    ++probed;
    util::Result<NodeRef> found = At(k)->LookupUnique(unique_id);
    if (found.ok() || !found.status().IsNotFound()) {
      fanout_->Record(probed);
      return found;
    }
  }
  fanout_->Record(probed);
  return util::Status::NotFound("no node with uniqueId " +
                                std::to_string(unique_id));
}

util::Status ShardedStore::FanRange(Attr attr, int64_t lo, int64_t hi,
                                    std::vector<NodeRef>* out) {
  // Each shard answers one kRangeKeyed call with its hits already in
  // canonical (value, uniqueId) order, so the client only merges the
  // sorted runs. This is the documented cluster scan order: within one
  // value, single-store backends surface their own insertion order,
  // which is not reconstructible across shards.
  std::vector<KeyedRef> hits;
  for (size_t k = 0; k < shards_.size(); ++k) {
    const auto run = static_cast<std::ptrdiff_t>(hits.size());
    HM_RETURN_IF_ERROR(At(k)->RangeKeyed(attr, lo, hi, &hits));
    std::inplace_merge(hits.begin(), hits.begin() + run, hits.end(),
                       KeyedRefLess);
  }
  fanout_->Record(shards_.size());
  out->clear();
  out->reserve(hits.size());
  for (const KeyedRef& hit : hits) out->push_back(hit.node);
  return util::Status::Ok();
}

util::Status ShardedStore::RangeHundred(int64_t lo, int64_t hi,
                                        std::vector<NodeRef>* out) {
  if (Single()) return At(0)->RangeHundred(lo, hi, out);
  return FanRange(Attr::kHundred, lo, hi, out);
}

util::Status ShardedStore::RangeMillion(int64_t lo, int64_t hi,
                                        std::vector<NodeRef>* out) {
  if (Single()) return At(0)->RangeMillion(lo, hi, out);
  return FanRange(Attr::kMillion, lo, hi, out);
}

util::Status ShardedStore::Children(NodeRef node,
                                    std::vector<NodeRef>* out) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->Children(node, out);
}

util::Result<NodeRef> ShardedStore::Parent(NodeRef node) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->Parent(node);
}

util::Status ShardedStore::Parts(NodeRef node, std::vector<NodeRef>* out) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->Parts(node, out);
}

util::Status ShardedStore::PartOf(NodeRef node, std::vector<NodeRef>* out) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->PartOf(node, out);
}

util::Status ShardedStore::RefsTo(NodeRef node, std::vector<RefEdge>* out) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->RefsTo(node, out);
}

util::Status ShardedStore::RefsFrom(NodeRef node,
                                    std::vector<RefEdge>* out) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->RefsFrom(node, out);
}

util::Result<uint64_t> ShardedStore::StorageBytes() {
  uint64_t total = 0;
  for (size_t k = 0; k < shards_.size(); ++k) {
    HM_ASSIGN_OR_RETURN(uint64_t bytes, At(k)->StorageBytes());
    total += bytes;
  }
  return total;
}

// --- Fan-out primitives ----------------------------------------------

template <typename T, typename ShardCall>
util::Status ShardedStore::Fan(std::span<const NodeRef> nodes,
                               std::vector<T>* out, ShardCall call) {
  out->assign(nodes.size(), T{});
  std::vector<std::vector<NodeRef>> per(shards_.size());
  std::vector<std::vector<size_t>> at(shards_.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    size_t k = 0;
    HM_RETURN_IF_ERROR(OwnerOf(nodes[i], &k));
    per[k].push_back(nodes[i]);
    at[k].push_back(i);
  }
  size_t touched = 0;
  for (size_t k = 0; k < shards_.size(); ++k) {
    if (per[k].empty()) continue;
    ++touched;
    std::vector<T> shard_out;
    HM_RETURN_IF_ERROR(std::invoke(call, At(k),
                                   std::span<const NodeRef>(per[k]),
                                   &shard_out));
    for (size_t j = 0; j < at[k].size(); ++j) {
      (*out)[at[k][j]] = std::move(shard_out[j]);
    }
  }
  fanout_->Record(touched);
  return util::Status::Ok();
}

util::Status ShardedStore::FanAttrs(std::span<const NodeRef> nodes,
                                    Attr attr,
                                    std::vector<int64_t>* values) {
  return Fan(nodes, values,
             [attr](RemoteStore* shard, std::span<const NodeRef> part,
                    std::vector<int64_t>* part_values) {
               return shard->GetAttrsMulti(part, attr, part_values);
             });
}

util::Status ShardedStore::FanSetAttrs(std::span<const NodeRef> nodes,
                                       Attr attr,
                                       std::span<const int64_t> values) {
  std::vector<std::vector<NodeRef>> per(shards_.size());
  std::vector<std::vector<int64_t>> vals(shards_.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    size_t k = 0;
    HM_RETURN_IF_ERROR(OwnerOf(nodes[i], &k));
    per[k].push_back(nodes[i]);
    vals[k].push_back(values[i]);
  }
  size_t touched = 0;
  for (size_t k = 0; k < shards_.size(); ++k) {
    if (per[k].empty()) continue;
    ++touched;
    HM_RETURN_IF_ERROR(At(k)->SetAttrsMulti(per[k], attr, vals[k]));
  }
  fanout_->Record(touched);
  return util::Status::Ok();
}

// --- TraversalCapable ------------------------------------------------
//
// Each read-only kernel first tries the start node's owner shard (one
// pushdown round-trip — exact whenever the walk never leaves that
// shard, e.g. any traversal inside one top-level subtree). kOutOfRange
// is ShardLocalStore's "the walk crossed a shard boundary" answer and
// demotes that call — and only that call — to the distributed kernel;
// any other status is the real answer or a real error.

util::Status ShardedStore::BulkGetAttr(std::span<const NodeRef> nodes,
                                       Attr attr,
                                       std::vector<int64_t>* values) {
  if (Single()) return At(0)->BulkGetAttr(nodes, attr, values);
  return FanAttrs(nodes, attr, values);
}

util::Status ShardedStore::TravClosure1N(NodeRef start,
                                         std::vector<NodeRef>* out) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(start, &k));
  if (Single()) return At(0)->TravClosure1N(start, out);
  util::Status status = At(k)->TravClosure1N(start, out);
  if (status.code() != util::StatusCode::kOutOfRange) return status;
  return DistClosure1N(start, out);
}

util::Result<int64_t> ShardedStore::TravClosure1NAttSum(NodeRef start,
                                                        uint64_t* visited) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(start, &k));
  if (Single()) return At(0)->TravClosure1NAttSum(start, visited);
  util::Result<int64_t> sum = At(k)->TravClosure1NAttSum(start, visited);
  if (sum.ok() || sum.status().code() != util::StatusCode::kOutOfRange) {
    return sum;
  }
  std::vector<NodeRef> nodes;
  HM_RETURN_IF_ERROR(DistClosure1N(start, &nodes));
  std::vector<int64_t> values;
  HM_RETURN_IF_ERROR(FanAttrs(nodes, Attr::kHundred, &values));
  int64_t total = 0;
  for (int64_t value : values) total += value;
  if (visited != nullptr) *visited = nodes.size();
  return total;
}

util::Result<uint64_t> ShardedStore::TravClosure1NAttSet(NodeRef start) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(start, &k));
  if (Single()) return At(0)->TravClosure1NAttSet(start);
  // Never pushed down on a fleet: the server-side kernel writes as it
  // walks, so a shard crossing would abort after mutating a prefix of
  // the subtree. Enumerate read-only first, then write per shard.
  std::vector<NodeRef> nodes;
  HM_RETURN_IF_ERROR(DistClosure1N(start, &nodes));
  std::vector<int64_t> values;
  HM_RETURN_IF_ERROR(FanAttrs(nodes, Attr::kHundred, &values));
  for (int64_t& value : values) value = 99 - value;
  HM_RETURN_IF_ERROR(FanSetAttrs(nodes, Attr::kHundred, values));
  return nodes.size();
}

util::Status ShardedStore::TravClosure1NPred(NodeRef start, int64_t lo,
                                             int64_t hi,
                                             std::vector<NodeRef>* out) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(start, &k));
  if (Single()) return At(0)->TravClosure1NPred(start, lo, hi, out);
  util::Status status = At(k)->TravClosure1NPred(start, lo, hi, out);
  if (status.code() != util::StatusCode::kOutOfRange) return status;
  return DistClosure1NPred(start, lo, hi, out);
}

util::Status ShardedStore::TravClosureMN(NodeRef start,
                                         std::vector<NodeRef>* out) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(start, &k));
  if (Single()) return At(0)->TravClosureMN(start, out);
  util::Status status = At(k)->TravClosureMN(start, out);
  if (status.code() != util::StatusCode::kOutOfRange) return status;
  return DistClosureMN(start, out);
}

util::Status ShardedStore::TravClosureMNAtt(NodeRef start, int depth,
                                            std::vector<NodeRef>* out) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(start, &k));
  if (Single()) return At(0)->TravClosureMNAtt(start, depth, out);
  util::Status status = At(k)->TravClosureMNAtt(start, depth, out);
  if (status.code() != util::StatusCode::kOutOfRange) return status;
  return DistClosureMNAtt(start, depth, out);
}

util::Status ShardedStore::TravClosureMNAttLinkSum(
    NodeRef start, int depth, std::vector<NodeDistance>* out) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(start, &k));
  if (Single()) return At(0)->TravClosureMNAttLinkSum(start, depth, out);
  util::Status status = At(k)->TravClosureMNAttLinkSum(start, depth, out);
  if (status.code() != util::StatusCode::kOutOfRange) return status;
  return DistClosureMNAttLinkSum(start, depth, out);
}

// --- Distributed scatter-gather kernels ------------------------------
//
// Same shape as RemoteStore's Batched* fallbacks: fetch each frontier
// level's lists (here partitioned by owner shard per hop), then replay
// the exact single-store traversal order locally over the fetched
// maps. The access set is identical to the in-process kernels — each
// node's list is fetched exactly once — so the outputs are too.

util::Status ShardedStore::DistClosure1N(NodeRef start,
                                         std::vector<NodeRef>* out) {
  std::unordered_map<NodeRef, std::vector<NodeRef>> children;
  std::vector<NodeRef> frontier{start};
  while (!frontier.empty()) {
    std::vector<std::vector<NodeRef>> lists;
    HM_RETURN_IF_ERROR(Fan(frontier, &lists, &RemoteStore::ChildrenMulti));
    std::vector<NodeRef> next;
    for (size_t i = 0; i < frontier.size(); ++i) {
      next.insert(next.end(), lists[i].begin(), lists[i].end());
      children[frontier[i]] = std::move(lists[i]);
    }
    frontier = std::move(next);
  }
  out->clear();
  std::vector<NodeRef> stack{start};
  while (!stack.empty()) {
    NodeRef node = stack.back();
    stack.pop_back();
    out->push_back(node);
    auto it = children.find(node);
    if (it == children.end()) continue;
    for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
      stack.push_back(*rit);
    }
  }
  return util::Status::Ok();
}

util::Status ShardedStore::DistClosure1NPred(NodeRef start, int64_t lo,
                                             int64_t hi,
                                             std::vector<NodeRef>* out) {
  // Pruning contract preserved across shards: every frontier node's
  // million is read, children are fetched only for survivors, so an
  // excluded node's subtree is never touched on any shard.
  std::unordered_map<NodeRef, std::vector<NodeRef>> children;
  std::unordered_set<NodeRef> included;
  std::vector<NodeRef> frontier{start};
  while (!frontier.empty()) {
    std::vector<int64_t> millions;
    HM_RETURN_IF_ERROR(FanAttrs(frontier, Attr::kMillion, &millions));
    std::vector<NodeRef> survivors;
    for (size_t i = 0; i < frontier.size(); ++i) {
      if (millions[i] >= lo && millions[i] <= hi) continue;
      included.insert(frontier[i]);
      survivors.push_back(frontier[i]);
    }
    if (survivors.empty()) break;
    std::vector<std::vector<NodeRef>> lists;
    HM_RETURN_IF_ERROR(Fan(survivors, &lists, &RemoteStore::ChildrenMulti));
    std::vector<NodeRef> next;
    for (size_t i = 0; i < survivors.size(); ++i) {
      next.insert(next.end(), lists[i].begin(), lists[i].end());
      children[survivors[i]] = std::move(lists[i]);
    }
    frontier = std::move(next);
  }
  out->clear();
  if (!included.contains(start)) return util::Status::Ok();
  std::vector<NodeRef> stack{start};
  while (!stack.empty()) {
    NodeRef node = stack.back();
    stack.pop_back();
    out->push_back(node);
    auto it = children.find(node);
    if (it == children.end()) continue;
    for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
      if (included.contains(*rit)) stack.push_back(*rit);
    }
  }
  return util::Status::Ok();
}

util::Status ShardedStore::DistClosureMN(NodeRef start,
                                         std::vector<NodeRef>* out) {
  std::unordered_map<NodeRef, std::vector<NodeRef>> parts;
  std::vector<NodeRef> frontier{start};
  std::unordered_set<NodeRef> fetched{start};
  while (!frontier.empty()) {
    std::vector<std::vector<NodeRef>> lists;
    HM_RETURN_IF_ERROR(Fan(frontier, &lists, &RemoteStore::PartsMulti));
    std::vector<NodeRef> next;
    for (size_t i = 0; i < frontier.size(); ++i) {
      for (NodeRef part : lists[i]) {
        if (fetched.insert(part).second) next.push_back(part);
      }
      parts[frontier[i]] = std::move(lists[i]);
    }
    frontier = std::move(next);
  }
  out->clear();
  std::unordered_set<NodeRef> visited;
  std::vector<NodeRef> stack{start};
  while (!stack.empty()) {
    NodeRef node = stack.back();
    stack.pop_back();
    if (!visited.insert(node).second) continue;
    out->push_back(node);
    const std::vector<NodeRef>& node_parts = parts[node];
    for (auto rit = node_parts.rbegin(); rit != node_parts.rend(); ++rit) {
      if (!visited.contains(*rit)) stack.push_back(*rit);
    }
  }
  return util::Status::Ok();
}

util::Status ShardedStore::DistClosureMNAtt(NodeRef start, int depth,
                                            std::vector<NodeRef>* out) {
  out->clear();
  std::unordered_set<NodeRef> visited{start};
  out->push_back(start);
  std::vector<NodeRef> frontier{start};
  for (int level = 0; level < depth && !frontier.empty(); ++level) {
    std::vector<std::vector<RefEdge>> edge_lists;
    HM_RETURN_IF_ERROR(Fan(frontier, &edge_lists, &RemoteStore::RefsToMulti));
    std::vector<NodeRef> next;
    for (const std::vector<RefEdge>& edges : edge_lists) {
      for (const RefEdge& edge : edges) {
        if (visited.insert(edge.node).second) {
          out->push_back(edge.node);
          next.push_back(edge.node);
        }
      }
    }
    frontier = std::move(next);
  }
  return util::Status::Ok();
}

util::Status ShardedStore::DistClosureMNAttLinkSum(
    NodeRef start, int depth, std::vector<NodeDistance>* out) {
  out->clear();
  std::unordered_set<NodeRef> visited{start};
  std::vector<NodeDistance> frontier{{start, 0}};
  out->push_back({start, 0});
  for (int level = 0; level < depth && !frontier.empty(); ++level) {
    std::vector<NodeRef> frontier_nodes;
    frontier_nodes.reserve(frontier.size());
    for (const NodeDistance& f : frontier) frontier_nodes.push_back(f.node);
    std::vector<std::vector<RefEdge>> edge_lists;
    HM_RETURN_IF_ERROR(
        Fan(frontier_nodes, &edge_lists, &RemoteStore::RefsToMulti));
    std::vector<NodeDistance> next;
    for (size_t i = 0; i < frontier.size(); ++i) {
      for (const RefEdge& edge : edge_lists[i]) {
        if (visited.insert(edge.node).second) {
          int64_t distance = frontier[i].distance + edge.offset_to;
          out->push_back({edge.node, distance});
          next.push_back({edge.node, distance});
        }
      }
    }
    frontier = std::move(next);
  }
  return util::Status::Ok();
}

}  // namespace hm::backends
