#include <algorithm>
#include <chrono>
#include <cmath>
#include <stop_token>
#include <thread>

#include "hypermodel/operations.h"
#include "perfbench/bench.h"
#include "perfbench/tracing_store.h"
#include "util/random.h"

namespace perfbench {

using hm::NodeRef;
using hm::OpId;

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int kClosureDepth = 25;  // the paper's run-time depth, as in hm::Driver

size_t ClosureLevel(const hm::TestDatabase& db) {
  return std::min<size_t>(
      3, db.nodes_by_level.size() >= 2 ? db.nodes_by_level.size() - 2 : 0);
}

int64_t PickPosition(hm::util::Rng* rng, const Database& db,
                     const std::vector<NodeRef>& pool) {
  NodeRef ref = pool[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
  return db.position.at(ref);
}

/// The reader mix of the mix phase: ops 01, 05A, 07A and 10.
OpId PickReaderOp(hm::util::Rng* rng) {
  static constexpr OpId kReaderOps[] = {OpId::kNameLookup, OpId::kGroupLookup1N,
                                        OpId::kRefLookup1N, OpId::kClosure1N};
  return kReaderOps[rng->UniformInt(0, 3)];
}

OpInput ReaderInput(hm::util::Rng* rng, const Database& db, OpId op) {
  OpInput in;
  switch (op) {
    case OpId::kNameLookup:
      in.value = rng->UniformInt(1, static_cast<int64_t>(db.db.node_count()));
      break;
    case OpId::kGroupLookup1N:
      in.node = PickPosition(rng, db, db.db.internal_nodes);
      break;
    case OpId::kRefLookup1N:
      // Any node but the root, which is position 0 (level order).
      in.node = rng->UniformInt(1, static_cast<int64_t>(db.db.node_count()) - 1);
      break;
    default:
      in.node = PickPosition(rng, db, db.db.level(ClosureLevel(db.db)));
      break;
  }
  return in;
}

/// A recorded call awaiting verification against the reference.
struct Pending {
  OpId op;
  OpInput input;
  bool warm;
  Raw raw;
};

/// Re-runs `calls` on the reference store, in order, and counts every
/// call whose result differs from the recorded one as failed. The
/// calls run in one transaction, or each in its own when
/// `txn_per_call` (edit transactions), as they did on the store under
/// test.
void Verify(const Target& target, const std::vector<Pending>& calls,
            bool txn_per_call, Totals* totals) {
  hm::HyperStore* ref = target.reference;
  if (!txn_per_call) (void)ref->Begin();
  for (const Pending& call : calls) {
    if (!call.raw.status.ok()) continue;  // already counted as failed
    if (txn_per_call) (void)ref->Begin();
    Raw expect = Execute(ref, *target.reference_db, call.op, call.input,
                         call.warm, nullptr);
    if (txn_per_call) (void)ref->Commit();
    if (!expect.status.ok()) {
      totals->Fail("reference " + std::string(hm::OpName(call.op)) + ": " +
                   expect.status.ToString());
      continue;
    }
    if (Canonical(call.raw, *target.db) !=
            Canonical(expect, *target.reference_db) ||
        call.raw.nodes != expect.nodes) {
      totals->Fail("wrong result: " + std::string(hm::OpName(call.op)));
    }
  }
  if (!txn_per_call) (void)ref->Commit();
}

void Check(const hm::util::Status& status, const char* what, Totals* totals) {
  ++totals->attempted;
  if (!status.ok()) totals->Fail(std::string(what) + ": " + status.ToString());
}

}  // namespace

Category CategoryOf(OpId op) {
  switch (op) {
    case OpId::kNameLookup:
    case OpId::kNameOidLookup:
      return Category::kName;
    case OpId::kRangeLookupHundred:
    case OpId::kRangeLookupMillion:
      return Category::kRange;
    case OpId::kGroupLookup1N:
    case OpId::kGroupLookupMN:
    case OpId::kGroupLookupMNAtt:
      return Category::kGroup;
    case OpId::kRefLookup1N:
    case OpId::kRefLookupMN:
    case OpId::kRefLookupMNAtt:
      return Category::kRef;
    case OpId::kSeqScan:
      return Category::kScan;
    case OpId::kTextNodeEdit:
    case OpId::kFormNodeEdit:
      return Category::kEdit;
    default:
      return Category::kClosure;
  }
}

const char* CategoryName(Category category) {
  static constexpr const char* kNames[] = {"name", "range",   "group", "ref",
                                           "scan", "closure", "edit"};
  return kNames[static_cast<int>(category)];
}

bool IsLookup(OpId op) {
  Category c = CategoryOf(op);
  return c == Category::kName || c == Category::kGroup || c == Category::kRef;
}

void Database::Index() {
  position.clear();
  position.reserve(db.all_nodes.size());
  for (size_t i = 0; i < db.all_nodes.size(); ++i) {
    position.emplace(db.all_nodes[i], static_cast<int64_t>(i));
  }
}

double Samples::Quantile(double q) const {
  if (values.empty()) return 0;
  std::vector<double> sorted = values;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size()) - 1;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(rank),
                   sorted.end());
  return sorted[rank];
}

void Totals::Fail(const std::string& what) {
  ++failed;
  if (first_errors.size() < 5) first_errors.push_back(what);
}

void Totals::Merge(const Totals& o) {
  for (int phase = 0; phase < 2; ++phase) {
    for (int c = 0; c < kCategories; ++c) {
      phase_ms[phase][c] += o.phase_ms[phase][c];
      phase_nodes[phase][c] += o.phase_nodes[phase][c];
    }
    for (int op = 0; op < kOps; ++op) op_ms[phase][op].Append(o.op_ms[phase][op]);
    lookup_us[phase].Append(o.lookup_us[phase]);
  }
  closure_ms.Append(o.closure_ms);
  scan_ms += o.scan_ms;
  scan_nodes += o.scan_nodes;
  edit_txn_ms.Append(o.edit_txn_ms);
  for (int op = 0; op < kOps; ++op) mix_op_ms[op].Append(o.mix_op_ms[op]);
  mix_lookup_us.Append(o.mix_lookup_us);
  mix_closure_ms.Append(o.mix_closure_ms);
  reads += o.reads;
  mix_wall_s += o.mix_wall_s;
  attempted += o.attempted;
  failed += o.failed;
  nodes_returned += o.nodes_returned;
  for (int c = 0; c < kCategories; ++c) category_nodes[c] += o.category_nodes[c];
  commits += o.commits;
  for (const std::string& e : o.first_errors) {
    if (first_errors.size() < 5) first_errors.push_back(e);
  }
}

Raw Execute(hm::HyperStore* store, const Database& db, OpId op,
            const OpInput& in, bool warm, Tracer* tracer) {
  ScopedSpan span(tracer, Layer::kOp, static_cast<uint16_t>(op));
  Raw raw;
  raw.op = op;
  const NodeRef node = in.node >= 0 ? db.Ref(in.node) : hm::kInvalidNode;
  auto scalar = [&raw](const hm::util::Result<int64_t>& r) {
    raw.status = r.status();
    if (r.ok()) raw.scalars.push_back(*r);
  };
  switch (op) {
    case OpId::kNameLookup:
      scalar(hm::ops::NameLookup(store, in.value));
      raw.nodes = 1;
      break;
    case OpId::kNameOidLookup:
      scalar(hm::ops::NameOidLookup(store, node));
      raw.nodes = 1;
      break;
    case OpId::kRangeLookupHundred:
      raw.status = hm::ops::RangeLookupHundred(store, in.value, &raw.refs);
      break;
    case OpId::kRangeLookupMillion:
      raw.status = hm::ops::RangeLookupMillion(store, in.value, &raw.refs);
      break;
    case OpId::kGroupLookup1N:
      raw.status = hm::ops::GroupLookup1N(store, node, &raw.refs);
      break;
    case OpId::kGroupLookupMN:
      raw.status = hm::ops::GroupLookupMN(store, node, &raw.refs);
      break;
    case OpId::kGroupLookupMNAtt:
      raw.status = hm::ops::GroupLookupMNAtt(store, node, &raw.refs);
      break;
    case OpId::kRefLookup1N: {
      auto parent = hm::ops::RefLookup1N(store, node);
      raw.status = parent.status();
      if (parent.ok()) raw.refs.push_back(*parent);
      break;
    }
    case OpId::kRefLookupMN:
      raw.status = hm::ops::RefLookupMN(store, node, &raw.refs);
      break;
    case OpId::kRefLookupMNAtt:
      raw.status = hm::ops::RefLookupMNAtt(store, node, &raw.refs);
      break;
    case OpId::kSeqScan: {
      auto visited = hm::ops::SeqScan(store, db.db.all_nodes);
      raw.status = visited.status();
      if (visited.ok()) {
        raw.scalars.push_back(static_cast<int64_t>(*visited));
        raw.nodes = *visited;
      }
      break;
    }
    case OpId::kClosure1N:
      raw.status = hm::ops::Closure1N(store, node, &raw.refs);
      break;
    case OpId::kClosure1NAttSum: {
      uint64_t visited = 0;
      scalar(hm::ops::Closure1NAttSum(store, node, &visited));
      raw.scalars.push_back(static_cast<int64_t>(visited));
      raw.nodes = visited;
      break;
    }
    case OpId::kClosure1NAttSet: {
      auto updated = hm::ops::Closure1NAttSet(store, node);
      raw.status = updated.status();
      if (updated.ok()) {
        raw.scalars.push_back(static_cast<int64_t>(*updated));
        raw.nodes = *updated;
      }
      break;
    }
    case OpId::kClosure1NPred:
      raw.status = hm::ops::Closure1NPred(store, node, in.value, &raw.refs);
      break;
    case OpId::kClosureMN:
      raw.status = hm::ops::ClosureMN(store, node, &raw.refs);
      break;
    case OpId::kClosureMNAtt:
      raw.status =
          hm::ops::ClosureMNAtt(store, node, kClosureDepth, &raw.refs);
      break;
    case OpId::kTextNodeEdit: {
      std::string_view from = warm ? "version-2" : "version1";
      std::string_view to = warm ? "version1" : "version-2";
      auto replaced = hm::ops::TextNodeEdit(store, node, from, to);
      raw.status = replaced.status();
      if (replaced.ok()) raw.scalars.push_back(static_cast<int64_t>(*replaced));
      raw.nodes = 1;
      break;
    }
    case OpId::kFormNodeEdit: {
      auto field = [&in](int shift) {
        return static_cast<uint32_t>((in.extra >> shift) & 0xFF);
      };
      raw.status = hm::ops::FormNodeEdit(store, node, field(8), field(0),
                                         field(24), field(16));
      raw.nodes = 1;
      break;
    }
    case OpId::kClosureMNAttLinkSum:
      raw.status = hm::ops::ClosureMNAttLinkSum(store, node, kClosureDepth,
                                                &raw.distances);
      raw.nodes = raw.distances.size();
      break;
  }
  if (!raw.refs.empty()) raw.nodes = raw.refs.size();
  return raw;
}

std::vector<int64_t> Canonical(const Raw& raw, const Database& db) {
  auto pos = [&db](NodeRef ref) {
    auto it = db.position.find(ref);
    return it == db.position.end() ? int64_t{-1} : it->second;
  };
  std::vector<int64_t> out = raw.scalars;
  for (NodeRef ref : raw.refs) out.push_back(pos(ref));
  switch (raw.op) {
    case OpId::kRangeLookupHundred:
    case OpId::kRangeLookupMillion:
    case OpId::kGroupLookupMN:
    case OpId::kGroupLookupMNAtt:
    case OpId::kRefLookupMN:
    case OpId::kRefLookupMNAtt:
    case OpId::kClosureMN:
    case OpId::kClosureMNAtt:
      std::sort(out.begin(), out.end());
      break;
    case OpId::kClosureMNAttLinkSum: {
      std::vector<std::pair<int64_t, int64_t>> pairs;
      for (const hm::NodeDistance& d : raw.distances) {
        pairs.emplace_back(pos(d.node), d.distance);
      }
      std::sort(pairs.begin(), pairs.end());
      for (const auto& [p, d] : pairs) {
        out.push_back(p);
        out.push_back(d);
      }
      break;
    }
    default:
      break;
  }
  return out;
}

std::vector<OpInput> SelectInputs(const Database& db, OpId op, uint64_t seed,
                                  int pass, int iterations) {
  hm::util::Rng rng(seed * 1000003 + static_cast<uint64_t>(op) +
                    static_cast<uint64_t>(pass) * 0x9E3779B1ULL);
  const hm::TestDatabase& t = db.db;
  const auto& closure_pool = t.level(ClosureLevel(t));
  std::vector<OpInput> inputs(static_cast<size_t>(iterations));
  int64_t form = -1;
  hm::util::Rng rect_rng(seed ^ (0xF0F0F0F0ULL + static_cast<uint64_t>(pass)));
  for (OpInput& in : inputs) {
    switch (op) {
      case OpId::kNameLookup:
        in.value = rng.UniformInt(1, static_cast<int64_t>(t.node_count()));
        break;
      case OpId::kNameOidLookup:
      case OpId::kGroupLookupMNAtt:
      case OpId::kRefLookupMNAtt:
        in.node = PickPosition(&rng, db, t.all_nodes);
        break;
      case OpId::kRangeLookupHundred:
        in.value = rng.UniformInt(1, 90);
        break;
      case OpId::kRangeLookupMillion:
        in.value = rng.UniformInt(1, 990000);
        break;
      case OpId::kClosure1NPred:
        in.value = rng.UniformInt(1, 990000);
        in.node = PickPosition(&rng, db, closure_pool);
        break;
      case OpId::kGroupLookup1N:
      case OpId::kGroupLookupMN:
        in.node = PickPosition(&rng, db, t.internal_nodes);
        break;
      case OpId::kRefLookup1N:
      case OpId::kRefLookupMN:
        // "A random node, except the root-node" (position 0).
        in.node = rng.UniformInt(1, static_cast<int64_t>(t.node_count()) - 1);
        break;
      case OpId::kSeqScan:
        break;
      case OpId::kTextNodeEdit:
        in.node = PickPosition(&rng, db, t.text_nodes);
        break;
      case OpId::kFormNodeEdit: {
        // "The same form node is used for the fifty repetitions."
        if (form < 0) form = PickPosition(&rng, db, t.form_nodes);
        in.node = form;
        int64_t w = rect_rng.UniformInt(25, 50);
        int64_t h = rect_rng.UniformInt(25, 50);
        int64_t x = rect_rng.UniformInt(0, 49);
        int64_t y = rect_rng.UniformInt(0, 49);
        in.extra = w << 24 | h << 16 | x << 8 | y;
        break;
      }
      default:  // closures from level three
        in.node = PickPosition(&rng, db, closure_pool);
        break;
    }
  }
  return inputs;
}

void ProtocolPass(const Target& target, uint64_t seed, int pass,
                  int iterations, Totals* totals, double* wall_ms) {
  hm::HyperStore* store = target.store;
  for (OpId op : hm::AllOps()) {
    const std::vector<OpInput> inputs = SelectInputs(
        *target.reference_db, op, seed, pass,
        op == OpId::kSeqScan ? kScanIterations : iterations);
    const int cat = static_cast<int>(CategoryOf(op));
    // (e) of the protocol: close the database so the cold run is cold.
    Check(store->CloseReopen(), "CloseReopen", totals);
    for (int phase = 0; phase < 2; ++phase) {
      const bool warm = phase == 1;
      std::vector<Pending> calls;
      calls.reserve(inputs.size());
      double region_ms = 0;
      {
        ScopedSpan region(target.tracer, Layer::kPhase,
                          static_cast<uint16_t>(warm ? PhaseName::kWarm
                                                     : PhaseName::kCold));
        const double start = NowMs();
        hm::util::Status begin = store->Begin();
        for (const OpInput& in : inputs) {
          const double t0 = NowMs();
          Raw raw = Execute(store, *target.db, op, in, warm, target.tracer);
          const double ms = NowMs() - t0;
          calls.push_back({op, in, warm, std::move(raw)});
          totals->op_ms[phase][static_cast<int>(op)].Add(ms);
          if (IsLookup(op)) {
            totals->lookup_us[phase].Add(ms * 1000.0);
          } else if (CategoryOf(op) == Category::kClosure) {
            totals->closure_ms.Add(ms);
          } else if (op == OpId::kSeqScan) {
            totals->scan_ms += ms;
            totals->scan_nodes += calls.back().raw.nodes;
          }
        }
        // (c) "database-commit-time should be included" (§6).
        hm::util::Status commit = store->Commit();
        region_ms = NowMs() - start;
        Check(begin, "Begin", totals);
        Check(commit, "Commit", totals);
        ++totals->commits;
      }
      *wall_ms += region_ms;
      totals->phase_ms[phase][cat] += region_ms;
      for (const Pending& call : calls) {
        ++totals->attempted;
        totals->phase_nodes[phase][cat] += call.raw.nodes;
        totals->category_nodes[cat] += call.raw.nodes;
        totals->nodes_returned += call.raw.nodes;
        if (!call.raw.status.ok()) {
          totals->Fail(std::string(hm::OpName(op)) + ": " +
                       call.raw.status.ToString());
        }
      }
      Verify(target, calls, false, totals);
    }
  }
}

namespace {

/// One client's share of a mix phase.
struct MixClient {
  std::vector<Pending> reads;
  std::vector<Pending> txns;
  Totals totals;
};

void ReadOnce(const Target& target, hm::util::Rng* rng, MixClient* client) {
  OpId op = PickReaderOp(rng);
  OpInput in = ReaderInput(rng, *target.reference_db, op);
  const double t0 = NowMs();
  Raw raw = Execute(target.store, *target.db, op, in, false, target.tracer);
  const double ms = NowMs() - t0;
  client->totals.mix_op_ms[static_cast<int>(op)].Add(ms);
  if (op == OpId::kClosure1N) {
    client->totals.mix_closure_ms.Add(ms);
  } else {
    client->totals.mix_lookup_us.Add(ms * 1000.0);
  }
  ++client->totals.reads;
  client->reads.push_back({op, in, false, std::move(raw)});
}

void TxnOnce(const Target& target, hm::util::Rng* rng, MixClient* client) {
  OpInput in;
  in.node = PickPosition(rng, *target.reference_db,
                         target.reference_db->db.text_nodes);
  const bool back = rng->UniformInt(0, 1) == 1;
  const double t0 = NowMs();
  hm::util::Status begin = target.store->Begin();
  Raw raw = Execute(target.store, *target.db, OpId::kTextNodeEdit, in, back,
                    target.tracer);
  hm::util::Status commit = target.store->Commit();
  client->totals.edit_txn_ms.Add(NowMs() - t0);
  ++client->totals.commits;
  if (!begin.ok()) raw.status = begin;
  if (raw.status.ok() && !commit.ok()) raw.status = commit;
  client->txns.push_back({OpId::kTextNodeEdit, in, back, std::move(raw)});
}

/// The input stream of one mix-phase client: 1 for the writer (or the
/// single client), 2.. for the readers.
hm::util::Rng MixRng(uint64_t seed, int pass, uint64_t client) {
  return hm::util::Rng(seed * 7919 + static_cast<uint64_t>(pass) * 104729 +
                       client);
}

/// Counts, checks and merges a client's calls into `totals`.
void Settle(const Target& target, MixClient* client, Totals* totals) {
  Totals& t = client->totals;
  for (const auto* list : {&client->reads, &client->txns}) {
    for (const Pending& call : *list) {
      ++t.attempted;
      t.nodes_returned += call.raw.nodes;
      t.category_nodes[static_cast<int>(CategoryOf(call.op))] +=
          call.raw.nodes;
      if (!call.raw.status.ok()) {
        t.Fail(std::string(hm::OpName(call.op)) + ": " +
               call.raw.status.ToString());
      }
    }
  }
  // Reads never observe text, so verifying every read before the
  // edits matches any interleaving the clients ran them in.
  Verify(target, client->reads, false, &t);
  Verify(target, client->txns, true, &t);
  totals->Merge(t);
}

}  // namespace

void MixSerial(const Target& target, uint64_t seed, int pass,
               int writer_txns, Totals* totals, double* wall_ms) {
  hm::util::Rng rng = MixRng(seed, pass, 1);
  MixClient client;
  double region_ms = 0;
  {
    ScopedSpan region(target.tracer, Layer::kPhase,
                      static_cast<uint16_t>(PhaseName::kMix));
    const double start = NowMs();
    for (int txn = 0; txn < writer_txns; ++txn) {
      ReadOnce(target, &rng, &client);
      ReadOnce(target, &rng, &client);
      TxnOnce(target, &rng, &client);
    }
    region_ms = NowMs() - start;
  }
  *wall_ms += region_ms;
  totals->mix_wall_s += region_ms / 1000.0;
  Settle(target, &client, totals);
}

void MixConcurrent(const Target& writer, const std::vector<Target>& readers,
                   uint64_t seed, int pass, int writer_txns, Totals* totals,
                   double* wall_ms) {
  MixClient writer_client;
  std::vector<MixClient> reader_clients(readers.size());
  std::vector<double> thread_ms(readers.size() + 1, 0);
  const double start = NowMs();
  // jthreads: on any exit from this scope the readers are asked to
  // stop and are joined before the state they write goes away.
  std::vector<std::jthread> threads;
  for (size_t i = 0; i < readers.size(); ++i) {
    threads.emplace_back([&, i](std::stop_token stop) {
      hm::util::Rng rng = MixRng(seed, pass, 2 + i);
      ScopedSpan region(readers[i].tracer, Layer::kPhase,
                        static_cast<uint16_t>(PhaseName::kMix));
      const double t0 = NowMs();
      while (!stop.stop_requested()) {
        ReadOnce(readers[i], &rng, &reader_clients[i]);
      }
      thread_ms[i + 1] = NowMs() - t0;
    });
  }
  {
    hm::util::Rng rng = MixRng(seed, pass, 1);
    ScopedSpan region(writer.tracer, Layer::kPhase,
                      static_cast<uint16_t>(PhaseName::kMix));
    const double t0 = NowMs();
    for (int txn = 0; txn < writer_txns; ++txn) {
      TxnOnce(writer, &rng, &writer_client);
    }
    thread_ms[0] = NowMs() - t0;
  }
  for (std::jthread& t : threads) t.request_stop();
  for (std::jthread& t : threads) t.join();
  totals->mix_wall_s += (NowMs() - start) / 1000.0;
  for (double ms : thread_ms) *wall_ms += ms;
  Settle(writer, &writer_client, totals);
  for (size_t i = 0; i < readers.size(); ++i) {
    Settle(readers[i], &reader_clients[i], totals);
  }
}

}  // namespace perfbench
