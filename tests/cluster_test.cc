// Cluster subsystem tests (DESIGN.md §14): the shard map encoding, the
// server-side ShardLocalStore decorator (proxy nodes, typed foreign-ref
// errors), and the routing ShardedStore client — cross-shard edges,
// fleet handshake validation, shard failure, and a small byte-identical
// comparison of a 4-shard fleet against a single-node remote server.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cluster/shard_local_store.h"
#include "cluster/shard_map.h"
#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/remote_store.h"
#include "hypermodel/backends/sharded_store.h"
#include "hypermodel/generator.h"
#include "hypermodel/operations.h"
#include "server/server.h"
#include "telemetry/metrics.h"

namespace hm {
namespace {

// ---- shard_map.h ----------------------------------------------------

TEST(ShardMapTest, RefEncodingRoundTrips) {
  for (uint32_t shard : {0u, 1u, 7u, 63u}) {
    for (NodeRef local : {NodeRef{1}, NodeRef{12345},
                          cluster::kLocalRefMask}) {
      NodeRef global = cluster::GlobalRef(shard, local);
      EXPECT_EQ(cluster::ShardOf(global), shard);
      EXPECT_EQ(cluster::LocalRef(global), local);
    }
  }
  // Shard 0 globals are bit-identical to their locals, so a
  // single-shard fleet hands out plain refs.
  EXPECT_EQ(cluster::GlobalRef(0, 42), NodeRef{42});
}

TEST(ShardMapTest, ParseShardSpec) {
  auto spec = cluster::ParseShardSpec("2/4");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->id, 2u);
  EXPECT_EQ(spec->count, 4u);

  EXPECT_FALSE(cluster::ParseShardSpec("").ok());
  EXPECT_FALSE(cluster::ParseShardSpec("3").ok());
  EXPECT_FALSE(cluster::ParseShardSpec("4/4").ok());    // id out of range
  EXPECT_FALSE(cluster::ParseShardSpec("0/0").ok());
  EXPECT_FALSE(cluster::ParseShardSpec("0/65").ok());   // > kMaxShards
  EXPECT_FALSE(cluster::ParseShardSpec("a/b").ok());
}

TEST(ShardMapTest, SplitShardAddrs) {
  auto plain = cluster::SplitShardAddrs("h1:1,h2:2");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(*plain, (std::vector<std::string>{"h1:1", "h2:2"}));

  auto scheme = cluster::SplitShardAddrs("shard://h1:1,h2:2,h3:3");
  ASSERT_TRUE(scheme.ok());
  EXPECT_EQ(scheme->size(), 3u);
  EXPECT_EQ((*scheme)[2], "h3:3");

  EXPECT_FALSE(cluster::SplitShardAddrs("").ok());
  EXPECT_FALSE(cluster::SplitShardAddrs("h1:1,,h2:2").ok());
}

// ---- ShardLocalStore ------------------------------------------------

std::unique_ptr<cluster::ShardLocalStore> WrapMem(uint32_t id,
                                                  uint32_t count) {
  auto store = cluster::ShardLocalStore::Wrap(
      {id, count}, std::make_unique<backends::MemStore>());
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(*store);
}

NodeAttrs TestAttrs(int64_t uid) {
  NodeAttrs attrs;
  attrs.unique_id = uid;
  attrs.ten = uid % 10 + 1;
  attrs.hundred = uid % 100 + 1;
  attrs.thousand = uid % 1000 + 1;
  attrs.million = uid % 1000000 + 1;
  return attrs;
}

TEST(ShardLocalStoreTest, ForeignRefReadsAreOutOfRange) {
  auto store = WrapMem(0, 2);
  auto local = store->CreateNode(TestAttrs(1), kInvalidNode);
  ASSERT_TRUE(local.ok());
  NodeRef foreign = cluster::GlobalRef(1, 7);
  // The typed "walk left my shard" signal — specifically kOutOfRange,
  // which the routing client turns into a scatter-gather fallback.
  EXPECT_TRUE(store->GetAttr(foreign, Attr::kTen).status().code() == util::StatusCode::kOutOfRange);
  std::vector<NodeRef> out;
  EXPECT_TRUE(store->Children(foreign, &out).code() == util::StatusCode::kOutOfRange);
}

TEST(ShardLocalStoreTest, CrossShardEdgeCreatesInvisibleProxy) {
  telemetry::Counter* proxies =
      telemetry::Registry::Global().GetCounter("cluster.shard.proxy_nodes");
  uint64_t before = proxies->value();

  auto store = WrapMem(0, 2);
  auto a = store->CreateNode(TestAttrs(1), kInvalidNode);
  auto b = store->CreateNode(TestAttrs(2), kInvalidNode);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  NodeRef foreign = cluster::GlobalRef(1, 7);

  ASSERT_TRUE(store->AddPart(*a, foreign).ok());
  EXPECT_EQ(proxies->value(), before + 1);
  // The same foreign endpoint is found, not re-created.
  ASSERT_TRUE(store->AddRef(*b, foreign, 3, 7).ok());
  EXPECT_EQ(proxies->value(), before + 1);

  // Edge lists hand the shard-qualified ref back out.
  std::vector<NodeRef> parts;
  ASSERT_TRUE(store->Parts(*a, &parts).ok());
  EXPECT_EQ(parts, std::vector<NodeRef>{foreign});
  std::vector<RefEdge> refs;
  ASSERT_TRUE(store->RefsTo(*b, &refs).ok());
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].node, foreign);
  EXPECT_EQ(refs[0].offset_from, 3);
  EXPECT_EQ(refs[0].offset_to, 7);

  // The proxy itself is invisible to every client-facing read: index
  // scans skip it, LookupUnique refuses the reserved uid band, and a
  // client ref naming the proxy's local slot answers NotFound.
  std::vector<NodeRef> scan;
  ASSERT_TRUE(
      store->RangeHundred(cluster::kProxyUidBase, cluster::kProxyUidBase,
                          &scan)
          .ok());
  EXPECT_TRUE(scan.empty());
  EXPECT_TRUE(store->LookupUnique(cluster::ProxyUid(foreign))
                  .status()
                  .IsNotFound());

  // Both-foreign edges are a routing bug, rejected loudly.
  EXPECT_TRUE(store->AddPart(foreign, cluster::GlobalRef(1, 9))
                  .code() == util::StatusCode::kInvalidArgument);
}

TEST(ShardLocalStoreTest, WrapRecoversProxiesFromBase) {
  // A shard server that restarts rebuilds its proxy maps by scanning
  // the reserved attribute band; a pre-existing proxy node must be
  // reused, not duplicated (duplicate uid would fail the create).
  NodeRef foreign = cluster::GlobalRef(1, 7);
  auto base = std::make_unique<backends::MemStore>();
  NodeAttrs proxy_attrs;
  proxy_attrs.unique_id = cluster::ProxyUid(foreign);
  proxy_attrs.ten = cluster::kProxyUidBase;
  proxy_attrs.hundred = cluster::kProxyUidBase;
  proxy_attrs.thousand = cluster::kProxyUidBase;
  proxy_attrs.million = cluster::kProxyUidBase;
  ASSERT_TRUE(base->CreateNode(proxy_attrs, kInvalidNode).ok());

  auto wrapped = cluster::ShardLocalStore::Wrap({0, 2}, std::move(base));
  ASSERT_TRUE(wrapped.ok()) << wrapped.status().ToString();
  auto store = std::move(*wrapped);

  telemetry::Counter* proxies =
      telemetry::Registry::Global().GetCounter("cluster.shard.proxy_nodes");
  uint64_t before = proxies->value();
  auto local = store->CreateNode(TestAttrs(1), kInvalidNode);
  ASSERT_TRUE(local.ok());
  ASSERT_TRUE(store->AddPart(*local, foreign).ok());
  EXPECT_EQ(proxies->value(), before);  // recovered, not re-created

  std::vector<NodeRef> parts;
  ASSERT_TRUE(store->Parts(*local, &parts).ok());
  EXPECT_EQ(parts, std::vector<NodeRef>{foreign});
}

// ---- ShardedStore ---------------------------------------------------

// Creates uid 1 as the root on shard 0 plus one child per shard placed
// by the `near` hint, returning refs whose shard byte is the uid % N
// placement ShardedStore advertises.
struct SmallFleet {
  std::unique_ptr<backends::ShardedStore> store;
  NodeRef root = kInvalidNode;
  std::vector<NodeRef> children;
};

SmallFleet MakeSmallFleet(uint32_t shards,
                          backends::RemoteOptions client = {}) {
  SmallFleet fleet;
  auto store = backends::ShardedStore::Loopback(
      shards, backends::RemoteMode::kPushdown, client);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  fleet.store = std::move(*store);
  auto root = fleet.store->CreateNode(TestAttrs(1), kInvalidNode);
  EXPECT_TRUE(root.ok());
  fleet.root = *root;
  for (int64_t uid = 2; uid < 2 + static_cast<int64_t>(shards); ++uid) {
    auto child = fleet.store->CreateNode(TestAttrs(uid), fleet.root);
    EXPECT_TRUE(child.ok());
    EXPECT_TRUE(fleet.store->AddChild(fleet.root, *child).ok());
    fleet.children.push_back(*child);
  }
  return fleet;
}

TEST(ShardedStoreTest, PlacementSpreadsByUidModShards) {
  SmallFleet fleet = MakeSmallFleet(2);
  EXPECT_EQ(cluster::ShardOf(fleet.root), 0u);
  EXPECT_EQ(cluster::ShardOf(fleet.children[0]), 0u);  // uid 2 % 2
  EXPECT_EQ(cluster::ShardOf(fleet.children[1]), 1u);  // uid 3 % 2
  // Routing survives the spread: every node answers by ref and by uid.
  for (int64_t uid = 1; uid <= 3; ++uid) {
    auto found = fleet.store->LookupUnique(uid);
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(*fleet.store->GetAttr(*found, Attr::kUniqueId), uid);
  }
}

TEST(ShardedStoreTest, CrossShardPartAndRefRoundTrip) {
  SmallFleet fleet = MakeSmallFleet(2);
  NodeRef on0 = fleet.children[0];
  NodeRef on1 = fleet.children[1];

  // Baseline after fleet setup: the cross-shard AddChild in
  // MakeSmallFleet already counted.
  telemetry::Counter* cross =
      telemetry::Registry::Global().GetCounter("cluster.cross_shard_edges");
  uint64_t before = cross->value();

  ASSERT_TRUE(fleet.store->AddPart(on0, on1).ok());
  ASSERT_TRUE(fleet.store->AddRef(on1, on0, 3, 7).ok());
  EXPECT_EQ(cross->value(), before + 2);

  // Both directions of both edges, read from either endpoint's shard.
  std::vector<NodeRef> parts;
  ASSERT_TRUE(fleet.store->Parts(on0, &parts).ok());
  EXPECT_EQ(parts, std::vector<NodeRef>{on1});
  std::vector<NodeRef> owners;
  ASSERT_TRUE(fleet.store->PartOf(on1, &owners).ok());
  EXPECT_EQ(owners, std::vector<NodeRef>{on0});
  std::vector<RefEdge> out_edges;
  ASSERT_TRUE(fleet.store->RefsTo(on1, &out_edges).ok());
  ASSERT_EQ(out_edges.size(), 1u);
  EXPECT_EQ(out_edges[0].node, on0);
  EXPECT_EQ(out_edges[0].offset_from, 3);
  EXPECT_EQ(out_edges[0].offset_to, 7);
  std::vector<RefEdge> in_edges;
  ASSERT_TRUE(fleet.store->RefsFrom(on0, &in_edges).ok());
  ASSERT_EQ(in_edges.size(), 1u);
  EXPECT_EQ(in_edges[0].node, on1);

  // A cross-shard child still has exactly one parent, enforced on the
  // child's (authoritative) shard.
  EXPECT_FALSE(fleet.store->AddChild(on0, fleet.children[1]).ok());
}

TEST(ShardedStoreTest, IndexScansMergeInCanonicalOrder) {
  // Five nodes (root + one child per shard), uids 1..5, so
  // hundred = uid % 100 + 1 gives 2..6 spread over all four shards.
  SmallFleet fleet = MakeSmallFleet(4);
  std::vector<NodeRef> out;
  ASSERT_TRUE(fleet.store->RangeHundred(2, 6, &out).ok());
  ASSERT_EQ(out.size(), 5u);
  // Canonical (value, uniqueId) order — here value order == uid order.
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(*fleet.store->GetAttr(out[i], Attr::kUniqueId),
              static_cast<int64_t>(i + 1));
  }
}

TEST(ShardedStoreTest, IndexScansMergeTiesInValueThenUidOrder) {
  // Ties on the scanned value span shards, each shard's insertion
  // order differs from uid order (nodes created out of uid order, one
  // moved into the band afterwards), and value order differs from uid
  // order. A client that concatenated the shard replies, or sorted by
  // uid alone, fails here.
  telemetry::Counter* proxies =
      telemetry::Registry::Global().GetCounter("cluster.shard.proxy_nodes");
  for (uint32_t shards : {2u, 4u}) {
    uint64_t proxies_before = proxies->value();
    SmallFleet fleet = MakeSmallFleet(shards);
    auto create = [&](int64_t uid, int64_t value) {
      NodeAttrs attrs = TestAttrs(uid);
      attrs.hundred = value;
      attrs.million = value;
      auto node = fleet.store->CreateNode(attrs, fleet.root);
      EXPECT_TRUE(node.ok()) << node.status().ToString();
      return node.ok() ? *node : kInvalidNode;
    };
    std::vector<KeyedRef> want;
    for (auto [uid, value] : std::vector<std::pair<int64_t, int64_t>>{
             {37, 50}, {14, 50}, {25, 50}, {11, 50}, {42, 50}, {16, 50},
             {23, 50}, {31, 50}, {45, 49}, {12, 51}}) {
      want.push_back({create(uid, value), value, uid});
    }
    // Lands last in its shard's bucket for 50, although its uid is the
    // smallest there.
    NodeRef moved = create(10, 90);
    ASSERT_TRUE(fleet.store->SetAttr(moved, Attr::kHundred, 50).ok());
    ASSERT_TRUE(fleet.store->SetAttr(moved, Attr::kMillion, 50).ok());
    want.push_back({moved, 50, 10});
    std::sort(want.begin(), want.end(), KeyedRefLess);
    std::vector<NodeRef> want_refs;
    for (const KeyedRef& hit : want) want_refs.push_back(hit.node);

    std::vector<NodeRef> out;
    ASSERT_TRUE(fleet.store->RangeHundred(49, 51, &out).ok());
    EXPECT_EQ(out, want_refs) << shards << " shards, hundred";
    ASSERT_TRUE(fleet.store->RangeMillion(49, 51, &out).ok());
    EXPECT_EQ(out, want_refs) << shards << " shards, million";

    // The root's cross-shard child edges made proxies, which carry
    // kProxyUidBase in every indexed attribute: a scan reaching down
    // to it still returns only the real nodes, each once.
    EXPECT_GT(proxies->value(), proxies_before);
    const size_t real_nodes = 1 + shards + want.size();
    ASSERT_TRUE(
        fleet.store->RangeHundred(cluster::kProxyUidBase, 100, &out).ok());
    EXPECT_EQ(out.size(), real_nodes) << shards << " shards, hundred";
    ASSERT_TRUE(
        fleet.store->RangeMillion(cluster::kProxyUidBase, 100, &out).ok());
    EXPECT_EQ(out.size(), real_nodes) << shards << " shards, million";
    for (NodeRef ref : out) {
      EXPECT_GT(*fleet.store->GetAttr(ref, Attr::kUniqueId), 0);
    }
  }
}

TEST(ShardedStoreTest, KilledShardSurfacesUnavailable) {
  backends::RemoteOptions client;
  client.deadline_ms = 1000;
  client.max_retries = 1;
  client.backoff_base_ms = 1;
  client.backoff_cap_ms = 5;
  auto store = backends::ShardedStore::Loopback(
      2, backends::RemoteMode::kPushdown, client);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto root = (*store)->CreateNode(TestAttrs(1), kInvalidNode);
  ASSERT_TRUE(root.ok());
  auto on1 = (*store)->CreateNode(TestAttrs(3), *root);  // uid 3 -> shard 1
  ASSERT_TRUE(on1.ok());
  ASSERT_EQ(cluster::ShardOf(*on1), 1u);

  (*store)->shard(1)->owned_server()->Stop();

  // Shard 0 keeps answering; shard 1 reports a typed kUnavailable
  // (no hang, no crash) both for routed reads and inside a fan-out.
  EXPECT_TRUE((*store)->GetAttr(*root, Attr::kTen).ok());
  EXPECT_TRUE((*store)->GetAttr(*on1, Attr::kTen).status().IsUnavailable());
  std::vector<NodeRef> out;
  EXPECT_TRUE((*store)->RangeHundred(1, 100, &out).IsUnavailable());
}

// ---- Lazy transaction bracket -----------------------------------------
//
// A shard joins a transaction (gets its kBegin) only at the first write
// routed to it, and Commit/Abort reach only joined shards. Counted as
// requests each loopback shard's server has served.

std::vector<uint64_t> Served(backends::ShardedStore* store) {
  std::vector<uint64_t> served;
  for (size_t k = 0; k < store->shard_count(); ++k) {
    served.push_back(store->shard(k)->owned_server()->requests_served());
  }
  return served;
}

std::vector<uint64_t> ServedSince(backends::ShardedStore* store,
                                  const std::vector<uint64_t>& before) {
  std::vector<uint64_t> delta = Served(store);
  for (size_t k = 0; k < delta.size(); ++k) delta[k] -= before[k];
  return delta;
}

TEST(ShardedStoreTest, ReadOnlyTxnSendsNoBeginOrCommit) {
  SmallFleet fleet = MakeSmallFleet(2);
  std::vector<uint64_t> before = Served(fleet.store.get());
  ASSERT_TRUE(fleet.store->Begin().ok());
  EXPECT_TRUE(fleet.store->GetAttr(fleet.root, Attr::kTen).ok());
  EXPECT_TRUE(fleet.store->GetAttr(fleet.children[1], Attr::kTen).ok());
  ASSERT_TRUE(fleet.store->Commit().ok());
  // Only the two reads went out: one per shard.
  EXPECT_EQ(ServedSince(fleet.store.get(), before),
            (std::vector<uint64_t>{1, 1}));

  before = Served(fleet.store.get());
  ASSERT_TRUE(fleet.store->Begin().ok());
  ASSERT_TRUE(fleet.store->Commit().ok());
  EXPECT_EQ(ServedSince(fleet.store.get(), before),
            (std::vector<uint64_t>{0, 0}));
}

TEST(ShardedStoreTest, TxnBeginsAndCommitsOnlyOnWrittenShard) {
  SmallFleet fleet = MakeSmallFleet(2);
  NodeRef on1 = fleet.children[1];
  ASSERT_EQ(cluster::ShardOf(on1), 1u);
  std::vector<uint64_t> before = Served(fleet.store.get());
  ASSERT_TRUE(fleet.store->Begin().ok());
  EXPECT_TRUE(fleet.store->GetAttr(fleet.root, Attr::kTen).ok());
  auto placed = fleet.store->CreateNode(TestAttrs(10), on1);
  ASSERT_TRUE(placed.ok()) << placed.status().ToString();
  ASSERT_EQ(cluster::ShardOf(*placed), 1u);
  ASSERT_TRUE(fleet.store->SetAttr(on1, Attr::kTen, 7).ok());
  ASSERT_TRUE(fleet.store->Commit().ok());
  // Shard 0 saw the read only; shard 1 saw Begin, both writes, Commit.
  EXPECT_EQ(ServedSince(fleet.store.get(), before),
            (std::vector<uint64_t>{1, 4}));
  EXPECT_EQ(*fleet.store->GetAttr(on1, Attr::kTen), 7);

  // A cross-shard edge joins both endpoint shards, each once.
  before = Served(fleet.store.get());
  ASSERT_TRUE(fleet.store->Begin().ok());
  ASSERT_TRUE(fleet.store->AddPart(fleet.children[0], on1).ok());
  ASSERT_TRUE(fleet.store->AddRef(on1, fleet.children[0], 1, 2).ok());
  ASSERT_TRUE(fleet.store->Commit().ok());
  EXPECT_EQ(ServedSince(fleet.store.get(), before),
            (std::vector<uint64_t>{4, 4}));
}

TEST(ShardedStoreTest, AbortReachesOnlyJoinedShards) {
  SmallFleet fleet = MakeSmallFleet(2);
  // Nothing joined, so nothing is sent and MemStore's Abort (which
  // cannot roll back) is never asked.
  std::vector<uint64_t> before = Served(fleet.store.get());
  ASSERT_TRUE(fleet.store->Begin().ok());
  EXPECT_TRUE(fleet.store->GetAttr(fleet.children[1], Attr::kTen).ok());
  EXPECT_TRUE(fleet.store->Abort().ok());
  EXPECT_EQ(ServedSince(fleet.store.get(), before),
            (std::vector<uint64_t>{0, 1}));

  before = Served(fleet.store.get());
  ASSERT_TRUE(fleet.store->Begin().ok());
  ASSERT_TRUE(fleet.store->SetAttr(fleet.children[1], Attr::kTen, 3).ok());
  EXPECT_EQ(fleet.store->Abort().code(), util::StatusCode::kNotSupported);
  EXPECT_EQ(ServedSince(fleet.store.get(), before),
            (std::vector<uint64_t>{0, 3}));
}

TEST(ShardedStoreTest, TxnMisuseIsInvalidArgument) {
  SmallFleet fleet = MakeSmallFleet(2);
  EXPECT_EQ(fleet.store->Commit().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.store->Abort().code(), util::StatusCode::kInvalidArgument);
  ASSERT_TRUE(fleet.store->Begin().ok());
  EXPECT_EQ(fleet.store->Begin().code(), util::StatusCode::kInvalidArgument);
  // The misplaced Begin did not end the open transaction.
  ASSERT_TRUE(fleet.store->Commit().ok());
  EXPECT_EQ(fleet.store->Commit().code(), util::StatusCode::kInvalidArgument);
}

TEST(ShardedStoreTest, FailedCommitEndsTxnSoNextBeginWorks) {
  backends::RemoteOptions client;
  client.deadline_ms = 1000;
  client.max_retries = 1;
  client.backoff_base_ms = 1;
  client.backoff_cap_ms = 5;
  SmallFleet fleet = MakeSmallFleet(2, client);
  backends::ShardedStore* store = fleet.store.get();

  ASSERT_TRUE(store->Begin().ok());
  ASSERT_TRUE(store->SetAttr(fleet.root, Attr::kTen, 4).ok());
  ASSERT_TRUE(store->SetAttr(fleet.children[1], Attr::kTen, 4).ok());
  store->shard(1)->owned_server()->Stop();
  // Shard 0 commits, shard 1 cannot: the error surfaces, and the
  // transaction is over on the client all the same.
  EXPECT_TRUE(store->Commit().IsUnavailable());

  ASSERT_TRUE(store->Begin().ok());
  EXPECT_TRUE(store->SetAttr(fleet.root, Attr::kTen, 5).ok());
  EXPECT_TRUE(store->Commit().ok());
  EXPECT_EQ(*store->GetAttr(fleet.root, Attr::kTen), 5);
}

TEST(ShardedStoreTest, ConnectRejectsMiswiredFleet) {
  // Two servers that both claim shard 0 of 2: the kShardInfo handshake
  // must reject the fleet instead of silently misrouting refs.
  auto make_server = [](uint32_t id, uint32_t count) {
    server::ServerOptions options;
    options.host = "127.0.0.1";
    options.port = 0;
    options.shard_id = id;
    options.shard_count = count;
    auto srv = server::Server::Start(
        options, std::make_unique<backends::MemStore>());
    EXPECT_TRUE(srv.ok()) << srv.status().ToString();
    return std::move(*srv);
  };
  auto s0 = make_server(0, 2);
  auto s1 = make_server(0, 2);  // mis-wired: should be 1/2
  std::string addrs = s0->host() + ":" + std::to_string(s0->port()) + "," +
                      s1->host() + ":" + std::to_string(s1->port());
  auto store = backends::ShardedStore::Connect(addrs);
  EXPECT_FALSE(store.ok());
  s0->Stop();
  s1->Stop();
}

TEST(ShardedStoreTest, FleetMatchesSingleNodeByteForByte) {
  // The §5.2 database at level 3, built identically (same Generator
  // seed) on a single-node remote server and a 4-shard fleet: the
  // §6.5/§6.6 closures and index scans must agree node for node once
  // refs are translated to uniqueIds. The full twenty-op version of
  // this comparison is bench_shard --verify-level.
  auto single = backends::RemoteStore::Loopback(
      std::make_unique<backends::MemStore>());
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  auto fleet = backends::ShardedStore::Loopback(4);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  GeneratorConfig config;
  config.levels = 3;
  config.generate_contents = false;
  Generator generator(config);
  auto db_single = generator.Build(single->get(), nullptr);
  ASSERT_TRUE(db_single.ok()) << db_single.status().ToString();
  auto db_fleet = generator.Build(fleet->get(), nullptr);
  ASSERT_TRUE(db_fleet.ok()) << db_fleet.status().ToString();
  ASSERT_EQ(db_single->node_count(), db_fleet->node_count());

  auto uids = [](HyperStore* store, const std::vector<NodeRef>& refs) {
    std::vector<int64_t> out;
    for (NodeRef ref : refs) {
      auto uid = store->GetAttr(ref, Attr::kUniqueId);
      EXPECT_TRUE(uid.ok()) << uid.status().ToString();
      out.push_back(uid.ok() ? *uid : -1);
    }
    return out;
  };

  {
    // closure1N from the root spans all four shards.
    std::vector<NodeRef> a, b;
    ASSERT_TRUE(ops::Closure1N(single->get(), db_single->root, &a).ok());
    ASSERT_TRUE(ops::Closure1N(fleet->get(), db_fleet->root, &b).ok());
    EXPECT_EQ(uids(single->get(), a), uids(fleet->get(), b));
    EXPECT_EQ(a.size(), db_single->node_count());
  }
  {
    std::vector<NodeRef> a, b;
    ASSERT_TRUE(ops::ClosureMN(single->get(), db_single->root, &a).ok());
    ASSERT_TRUE(ops::ClosureMN(fleet->get(), db_fleet->root, &b).ok());
    EXPECT_EQ(uids(single->get(), a), uids(fleet->get(), b));
  }
  {
    std::vector<NodeRef> a, b;
    ASSERT_TRUE(
        ops::ClosureMNAtt(single->get(), db_single->root, 25, &a).ok());
    ASSERT_TRUE(
        ops::ClosureMNAtt(fleet->get(), db_fleet->root, 25, &b).ok());
    EXPECT_EQ(uids(single->get(), a), uids(fleet->get(), b));
  }
  {
    std::vector<NodeRef> a, b;
    ASSERT_TRUE(ops::RangeLookupHundred(single->get(), 10, &a).ok());
    ASSERT_TRUE(ops::RangeLookupHundred(fleet->get(), 10, &b).ok());
    std::vector<int64_t> ua = uids(single->get(), a);
    std::vector<int64_t> ub = uids(fleet->get(), b);
    std::sort(ua.begin(), ua.end());
    std::sort(ub.begin(), ub.end());
    EXPECT_EQ(ua, ub);
  }
}

}  // namespace
}  // namespace hm
