#ifndef HM_HYPERMODEL_BACKENDS_SHARDED_STORE_H_
#define HM_HYPERMODEL_BACKENDS_SHARDED_STORE_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "hypermodel/backends/remote_store.h"
#include "hypermodel/store.h"
#include "hypermodel/traversal.h"
#include "telemetry/metrics.h"

namespace hm::backends {

/// Client half of the cluster subsystem (DESIGN.md §14): one logical
/// HyperModel database spread over N independent `hmbench serve
/// --shard=k/N` processes, presented as a single HyperStore. Spelled
/// `shard://host:port,host:port,...` — entry k serves shard k.
///
/// Placement partitions the §5 hierarchy by top-level subtree: the
/// root lands on shard 0; a node created `near` the root is placed by
/// uniqueId modulo N; every deeper node is placed `near` its parent,
/// so a whole subtree is co-resident and 1-N closure traffic crosses
/// shards only at the root fan-out. Cross-shard `parts`/`refTo` edges
/// travel as shard-qualified refs (cluster/shard_map.h) and are
/// double-written, one side per endpoint shard, with no distributed
/// transaction (a mid-pair transport failure surfaces kUnavailable
/// and may leave the pair half-written).
///
/// Transactions are lazy per shard. `Begin` sends nothing; shard k
/// joins — gets its own kBegin, in a frame of its own — just before
/// the first mutating call routed to it, and `Commit`/`Abort` reach
/// only the joined shards, in shard order, stopping at the first
/// failure. Reads never join (no backend needs a server transaction
/// to read), so a read-only bracket costs no round trip at all and an
/// edit touching one shard pays one Begin and one Commit. Each shard
/// still commits on its own: a failure part-way leaves earlier shards
/// committed, exactly as when every shard was bracketed.
///
/// Reads route by the ref's shard byte. Index scans fan out one
/// kRangeKeyed call to every shard; each shard returns its hits sorted
/// in canonical (value, uniqueId) order with their keys, and the
/// client merges the runs.
/// §6.6 closures first try single-shard pushdown on the start node's
/// owner — if the walk stays on one shard it is exactly the remote
/// fast path — and fall back to the distributed level-synchronous
/// kernel when the server answers kOutOfRange (the typed "walk left
/// my shard" signal from ShardLocalStore), scattering each frontier
/// hop by owner and replaying locally for kernel-identical order.
/// The attribute-update closure is the exception: it is never pushed
/// down on a fleet, because the server would mutate attributes up to
/// the first shard crossing before erroring.
///
/// Telemetry: `cluster.shard<k>.rpcs` (logical calls routed to shard
/// k), `cluster.fanout` (shards touched per fan-out operation) and
/// `cluster.cross_shard_edges`.
///
/// Like every HyperStore, a ShardedStore is single-threaded.
class ShardedStore : public HyperStore, public TraversalCapable {
 public:
  /// Connects to a running fleet. `addr_list` is the comma-separated
  /// address list, with or without the shard:// prefix. A server of
  /// another wire version is refused at Hello; each server's
  /// kShardInfo must then answer exactly (its index, fleet size) — a
  /// mis-wired fleet is rejected here, not discovered as silent
  /// misrouting later. `base_options` supplies everything but
  /// host/port (mode, deadline, retry budget) to every shard client.
  static util::Result<std::unique_ptr<ShardedStore>> Connect(
      const std::string& addr_list, RemoteOptions base_options = {});

  /// Self-contained in-process fleet: N loopback servers on ephemeral
  /// ports, each a ShardLocalStore over a fresh MemStore. The returned
  /// store owns all the servers (this is `--backend=shard` without a
  /// `--remote` address, and what the tests use).
  static util::Result<std::unique_ptr<ShardedStore>> Loopback(
      uint32_t shard_count, RemoteMode mode = RemoteMode::kPushdown,
      RemoteOptions client_options = {});

  std::string name() const override { return "shard"; }

  /// The client fans out sequentially over shared sockets; it is
  /// single-threaded like its per-shard clients.
  bool SupportsConcurrentReads() const override { return false; }

  size_t shard_count() const { return shards_.size(); }
  /// Per-shard client (tests reach through this to e.g. stop one
  /// loopback shard's server).
  RemoteStore* shard(size_t k) { return shards_[k].get(); }

  /// Fans kReset to every shard (harness reset-on-open, like remote).
  util::Status ResetServer();

  util::Status Begin() override;
  util::Status Commit() override;
  util::Status Abort() override;
  util::Status CloseReopen() override;

  util::Result<NodeRef> CreateNode(const NodeAttrs& attrs,
                                   NodeRef near) override;
  util::Status SetText(NodeRef node, std::string_view text) override;
  util::Status SetForm(NodeRef node, const util::Bitmap& form) override;
  util::Status AddChild(NodeRef parent, NodeRef child) override;
  util::Status AddPart(NodeRef owner, NodeRef part) override;
  util::Status AddRef(NodeRef from, NodeRef to, int64_t offset_from,
                      int64_t offset_to) override;

  util::Result<int64_t> GetAttr(NodeRef node, Attr attr) override;
  util::Status SetAttr(NodeRef node, Attr attr, int64_t value) override;
  util::Result<NodeKind> GetKind(NodeRef node) override;
  util::Result<std::string> GetText(NodeRef node) override;
  util::Result<util::Bitmap> GetForm(NodeRef node) override;
  util::Status SetContents(NodeRef node, std::string_view data) override;
  util::Result<std::string> GetContents(NodeRef node) override;

  util::Result<NodeRef> LookupUnique(int64_t unique_id) override;
  util::Status RangeHundred(int64_t lo, int64_t hi,
                            std::vector<NodeRef>* out) override;
  util::Status RangeMillion(int64_t lo, int64_t hi,
                            std::vector<NodeRef>* out) override;

  util::Status Children(NodeRef node, std::vector<NodeRef>* out) override;
  util::Result<NodeRef> Parent(NodeRef node) override;
  util::Status Parts(NodeRef node, std::vector<NodeRef>* out) override;
  util::Status PartOf(NodeRef node, std::vector<NodeRef>* out) override;
  util::Status RefsTo(NodeRef node, std::vector<RefEdge>* out) override;
  util::Status RefsFrom(NodeRef node, std::vector<RefEdge>* out) override;

  util::Result<uint64_t> StorageBytes() override;

  // --- TraversalCapable ----------------------------------------------
  util::Status BulkGetAttr(std::span<const NodeRef> nodes, Attr attr,
                           std::vector<int64_t>* values) override;
  util::Status TravClosure1N(NodeRef start,
                             std::vector<NodeRef>* out) override;
  util::Result<int64_t> TravClosure1NAttSum(NodeRef start,
                                            uint64_t* visited) override;
  util::Result<uint64_t> TravClosure1NAttSet(NodeRef start) override;
  util::Status TravClosure1NPred(NodeRef start, int64_t lo, int64_t hi,
                                 std::vector<NodeRef>* out) override;
  util::Status TravClosureMN(NodeRef start,
                             std::vector<NodeRef>* out) override;
  util::Status TravClosureMNAtt(NodeRef start, int depth,
                                std::vector<NodeRef>* out) override;
  util::Status TravClosureMNAttLinkSum(NodeRef start, int depth,
                                       std::vector<NodeDistance>* out) override;

 private:
  explicit ShardedStore(std::vector<std::unique_ptr<RemoteStore>> shards);

  bool Single() const { return shards_.size() == 1; }
  /// Shard client k, counting the logical call against its telemetry.
  RemoteStore* At(size_t k);
  /// Shard client k for a mutating call — every write goes through
  /// here. Inside a transaction, shard k first joins it with a kBegin
  /// of its own; a failed join returns that error and the write is
  /// never sent.
  util::Result<RemoteStore*> WriteAt(size_t k);
  /// Ends the transaction on the client, then sends `end` (Commit or
  /// Abort) to each joined shard in shard order.
  util::Status EndTxn(util::Status (RemoteStore::*end)(), const char* verb);
  /// Writes one edge through `call(shard)` on shard `first`, then —
  /// when the endpoints live apart — on shard `second`, counting a
  /// cross-shard edge.
  template <typename EdgeCall>
  util::Status WriteEdge(size_t first, size_t second, EdgeCall call);
  /// Validates the ref's shard byte against the fleet size.
  util::Status OwnerOf(NodeRef node, size_t* shard) const;

  // Fan-out primitives: partition `nodes` by owner, issue one fused
  // call per touched shard, scatter the answers back positionally.
  // Each records the number of shards touched in `cluster.fanout`.
  /// The one partition/scatter loop: `call(shard, shard_nodes,
  /// &shard_out)` is a RemoteStore *Multi (a member pointer such as
  /// &RemoteStore::ChildrenMulti, or a lambda binding extra arguments).
  template <typename T, typename ShardCall>
  util::Status Fan(std::span<const NodeRef> nodes, std::vector<T>* out,
                   ShardCall call);
  util::Status FanAttrs(std::span<const NodeRef> nodes, Attr attr,
                        std::vector<int64_t>* values);
  util::Status FanSetAttrs(std::span<const NodeRef> nodes, Attr attr,
                           std::span<const int64_t> values);
  /// One shard-merged index scan on `attr` (kHundred or kMillion):
  /// one kRangeKeyed call per shard, the sorted runs merged linearly.
  util::Status FanRange(Attr attr, int64_t lo, int64_t hi,
                        std::vector<NodeRef>* out);

  // Distributed scatter-gather closure kernels (the >1-shard fallback
  // when pushdown reports kOutOfRange). Level-synchronous: each hop
  // fetches the frontier's lists via the fan-out primitives, then the
  // exact traversal order is replayed locally — the same access set
  // and output as the single-store kernels in hypermodel/traversal.h.
  util::Status DistClosure1N(NodeRef start, std::vector<NodeRef>* out);
  util::Status DistClosure1NPred(NodeRef start, int64_t lo, int64_t hi,
                                 std::vector<NodeRef>* out);
  util::Status DistClosureMN(NodeRef start, std::vector<NodeRef>* out);
  util::Status DistClosureMNAtt(NodeRef start, int depth,
                                std::vector<NodeRef>* out);
  util::Status DistClosureMNAttLinkSum(NodeRef start, int depth,
                                       std::vector<NodeDistance>* out);

  std::vector<std::unique_ptr<RemoteStore>> shards_;
  bool txn_active_ = false;  // Begin() seen, Commit/Abort not yet
  /// joined_[k]: shard k has received this transaction's kBegin.
  std::vector<bool> joined_;
  /// First node ever created through this client — the §5 root, whose
  /// `near` hint spreads level-1 subtrees across the fleet.
  NodeRef root_ = kInvalidNode;
  std::vector<telemetry::Counter*> rpcs_;
  telemetry::Histogram* fanout_;
  telemetry::Counter* cross_edges_;
};

}  // namespace hm::backends

#endif  // HM_HYPERMODEL_BACKENDS_SHARDED_STORE_H_
