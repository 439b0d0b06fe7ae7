#include "perfbench/layers.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace perfbench {

using hm::telemetry::HistogramData;
using hm::telemetry::Snapshot;

ProcIo ProcIo::Read() {
  ProcIo io;
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "rchar:") io.rchar = value;
    if (key == "wchar:") io.wchar = value;
    if (key == "syscr:") io.syscr = value;
  }
  return io;
}

ProcIo ProcIo::Since(const ProcIo& b) const {
  return ProcIo{rchar - b.rchar, wchar - b.wchar, syscr - b.syscr};
}

ProcIo ProcIo::Plus(const ProcIo& o) const {
  return ProcIo{rchar + o.rchar, wchar + o.wchar, syscr + o.syscr};
}

double ProcStatusMb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stod(line.substr(key.size())) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

namespace {

bool IsOpCount(const std::string& name) {
  return name.rfind("server.op.", 0) == 0 && name.size() > 6 &&
         name.compare(name.size() - 6, 6, ".count") == 0;
}

const HistogramData* Hist(const Snapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? nullptr : &it->second;
}

double HistQ(const Snapshot& s, const std::string& name, double q) {
  const HistogramData* h = Hist(s, name);
  return h == nullptr ? 0 : static_cast<double>(h->Quantile(q));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Span durations grouped for the reduction.
struct Reduced {
  double self_ms[3] = {};  // by Layer
  double wall_ms = 0;      // Σ root spans
  uint64_t spans = 0;
  uint64_t store_calls = 0;
  double store_ms = 0;
  uint64_t method_calls[kMethods] = {};
  double method_ms[kMethods] = {};
  std::vector<double> method_us[kMethods];
  uint64_t category_calls[kCategories] = {};
};

Reduced Reduce(const std::vector<const Tracer*>& tracers) {
  Reduced r;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent != 0) child_ns[s.parent - 1] += s.dur_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double self = static_cast<double>(s.dur_ns - std::min(
                                                  s.dur_ns, child_ns[i])) /
                          1e6;
      r.self_ms[static_cast<int>(s.layer)] += self;
      if (s.parent == 0) r.wall_ms += static_cast<double>(s.dur_ns) / 1e6;
      ++r.spans;
      if (s.layer != Layer::kStore) continue;
      const double ms = static_cast<double>(s.dur_ns) / 1e6;
      ++r.store_calls;
      r.store_ms += ms;
      r.method_calls[s.name] += 1;
      r.method_ms[s.name] += ms;
      r.method_us[s.name].push_back(ms * 1000.0);
      if (s.parent != 0 && spans[s.parent - 1].layer == Layer::kOp) {
        auto op = static_cast<hm::OpId>(spans[s.parent - 1].name);
        r.category_calls[static_cast<int>(CategoryOf(op))] += 1;
      }
    }
  }
  return r;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  auto mid = v.begin() + static_cast<long>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

/// Server opcodes the workloads issue most; each gets p50/p99/count.
constexpr const char* kServerOps[] = {
    "get_attr", "get_attrs_multi", "lookup_unique", "children",
    "parent",   "closure_1n",      "set_text",      "commit"};

}  // namespace

uint64_t RoundTrips(const Snapshot& diff) {
  uint64_t dispatched = 0;
  for (const auto& [name, value] : diff.counters) {
    if (IsOpCount(name)) dispatched += value;
  }
  if (const HistogramData* batch = Hist(diff, "server.batch.size")) {
    dispatched = dispatched - batch->sum + batch->count;
  }
  return dispatched;
}

std::vector<Metric> LayerMetrics(const TraceInputs& in, std::ostream& table) {
  const Snapshot& reg = in.registry;
  const Totals& t = *in.totals;
  const Reduced r = Reduce(in.tracers);
  const double nodes = static_cast<double>(t.nodes_returned);

  double server_ms = 0;
  uint64_t server_calls = 0;
  for (const auto& [name, h] : reg.histograms) {
    if (name.rfind("server.op.", 0) == 0 &&
        name.size() > 11 &&
        name.compare(name.size() - 11, 11, ".latency_us") == 0) {
      server_ms += static_cast<double>(h.sum) / 1000.0;
      server_calls += h.count;
    }
  }
  const double hyper_ms = r.self_ms[static_cast<int>(Layer::kOp)];
  const double store_self_ms = r.self_ms[static_cast<int>(Layer::kStore)];
  const double client_ms = std::max(0.0, store_self_ms - server_ms);
  const double unattributed_ms = r.self_ms[static_cast<int>(Layer::kPhase)];

  std::vector<Metric> m;
  auto add = [&m](std::string name, double value, std::string unit) {
    m.push_back({std::move(name), value, std::move(unit)});
  };
  auto counter = [&reg](const std::string& name) {
    return static_cast<double>(reg.counter(name));
  };

  // hypermodel
  add("hypermodel.self_ms", hyper_ms, "ms");
  for (int c = 0; c < kCategories; ++c) {
    add(std::string("hypermodel.store_calls_per_node.") +
            CategoryName(static_cast<Category>(c)),
        Ratio(static_cast<double>(r.category_calls[c]),
              static_cast<double>(t.category_nodes[c])),
        "calls/node");
  }
  // backends
  add("backends.self_ms", client_ms, "ms");
  for (int k = 0; k < kMethods - 1; ++k) {
    const std::string base =
        std::string("backends.") + MethodName(static_cast<Method>(k));
    add(base + ".calls", static_cast<double>(r.method_calls[k]), "count");
    add(base + ".busy_ms", r.method_ms[k], "ms");
    add(base + ".us_p50", Median(r.method_us[k]), "us");
  }
  // storage
  const double hits = counter("storage.buffer_pool.hits");
  const double misses = counter("storage.buffer_pool.misses");
  add("storage.buffer_pool.hits", hits, "count");
  add("storage.buffer_pool.misses", misses, "count");
  add("storage.buffer_pool.evictions", counter("storage.buffer_pool.evictions"),
      "count");
  add("storage.buffer_pool.flushes", counter("storage.buffer_pool.flushes"),
      "count");
  add("storage.buffer_pool.miss_ratio", Ratio(misses, hits + misses), "ratio");
  add("storage.io.read_syscalls_per_node",
      Ratio(static_cast<double>(in.io.syscr), nodes), "calls/node");
  add("storage.io.read_bytes_per_node",
      Ratio(static_cast<double>(in.io.rchar), nodes), "B/node");
  add("storage.io.write_bytes_per_node",
      Ratio(static_cast<double>(in.io.wchar), nodes), "B/node");
  const double syncs = counter("storage.wal.syncs");
  add("storage.wal.appends", counter("storage.wal.appends"), "count");
  add("storage.wal.syncs", syncs, "count");
  add("storage.wal.syncs_per_commit",
      Ratio(syncs, static_cast<double>(t.commits)), "ratio");
  add("storage.wal.group_size_p50", HistQ(reg, "storage.wal.group_size", 0.5),
      "count");
  add("storage.checkpoint.runs", counter("storage.checkpoint.runs"), "count");
  // server
  add("server.self_ms", server_ms, "ms");
  for (const char* op : kServerOps) {
    const std::string base = std::string("server.op.") + op;
    add(base + ".latency_us_p50", HistQ(reg, base + ".latency_us", 0.5), "us");
    add(base + ".latency_us_p99", HistQ(reg, base + ".latency_us", 0.99),
        "us");
    add(base + ".count", counter(base + ".count"), "count");
  }
  add("server.net_bytes_per_node",
      Ratio(counter("server.net.bytes_in") + counter("server.net.bytes_out"),
            nodes),
      "B/node");
  add("server.shed_requests", counter("server.shed_requests"), "count");
  add("server.conflicts", counter("server.conflicts"), "count");
  add("server.batch_size_p50", HistQ(reg, "server.batch.size", 0.5), "count");
  add("server.wait_us",
      Ratio((r.store_ms - server_ms) * 1000.0,
            static_cast<double>(r.store_calls)),
      "us");
  // remote
  const double trips = static_cast<double>(RoundTrips(reg));
  add("remote.round_trips_per_node", Ratio(trips, nodes), "calls/node");
  add("remote.retries", counter("remote.retries"), "count");
  add("remote.reconnects", counter("remote.reconnects"), "count");
  add("remote.deadline_exceeded", counter("remote.deadline_exceeded"),
      "count");
  // cluster
  const double s0 = counter("cluster.shard0.rpcs");
  const double s1 = counter("cluster.shard1.rpcs");
  add("cluster.shard0.rpcs", s0, "count");
  add("cluster.shard1.rpcs", s1, "count");
  add("cluster.rpc_balance", Ratio(std::max(s0, s1), (s0 + s1) / 2), "ratio");
  add("cluster.fanout_p50", HistQ(reg, "cluster.fanout", 0.5), "count");
  add("cluster.cross_shard_edges", static_cast<double>(in.cross_shard_edges),
      "count");
  // the reconciliation itself
  add("trace.wall_ms", r.wall_ms, "ms");
  add("trace.unattributed_ms", unattributed_ms, "ms");
  add("trace.overhead_pct",
      Ratio(in.traced_wall_ms - in.untraced_wall_ms, in.untraced_wall_ms) *
          100.0,
      "%");
  add("trace.spans", static_cast<double>(r.spans), "count");

  table << "per-layer self time over the traced rounds (wall = "
        << std::fixed << std::setprecision(1) << r.wall_ms << " ms, "
        << r.spans << " spans, " << server_calls << " server ops)\n";
  auto row = [&](const char* layer, const char* what, double ms) {
    table << "  " << std::left << std::setw(14) << layer << std::setw(54)
          << what << std::right << std::setw(11) << std::setprecision(1)
          << ms << " ms " << std::setw(6) << std::setprecision(1)
          << Ratio(ms, r.wall_ms) * 100.0 << "%\n";
  };
  row("hypermodel", "ops:: calls minus their store calls", hyper_ms);
  row("backends", "store calls minus server op time (client, wire, queue)",
      client_ms);
  row("server", "server op latency (dispatch + backend + storage)",
      server_ms);
  row("unattributed", "wall minus the summed self times", unattributed_ms);
  table << "  tracing overhead: traced " << std::setprecision(1)
        << in.traced_wall_ms << " ms vs untraced " << in.untraced_wall_ms
        << " ms on the same inputs ("
        << std::setprecision(2)
        << Ratio(in.traced_wall_ms - in.untraced_wall_ms,
                 in.untraced_wall_ms) *
               100.0
        << "%)\n";
  table.unsetf(std::ios::fixed);
  return m;
}

ExactCounts CountsOf(const Snapshot& diff,
                     const std::vector<const Tracer*>& tracers) {
  ExactCounts c;
  c.buffer_pool_misses = diff.counter("storage.buffer_pool.misses");
  c.round_trips = RoundTrips(diff);
  c.wal_appends = diff.counter("storage.wal.appends");
  if (!tracers.empty()) {
    Reduced r = Reduce(tracers);
    std::copy(std::begin(r.category_calls), std::end(r.category_calls),
              std::begin(c.store_calls));
    c.has_store_calls = true;
  }
  return c;
}

std::string CountsJson(const ExactCounts& c) {
  std::ostringstream out;
  out << "{\"storage.buffer_pool.misses\": " << c.buffer_pool_misses
      << ", \"remote.round_trips\": " << c.round_trips
      << ", \"storage.wal.appends\": " << c.wal_appends;
  if (c.has_store_calls) {
    for (int k = 0; k < kCategories; ++k) {
      out << ", \"hypermodel.store_calls."
          << CategoryName(static_cast<Category>(k))
          << "\": " << c.store_calls[k];
    }
  }
  out << "}";
  return out.str();
}

bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const uint32_t header[2] = {0x53504e31u /* "SPN1" */,
                              static_cast<uint32_t>(sizeof(Span))};
  bool ok = std::fwrite(header, sizeof(header), 1, f) == 1;
  for (const Tracer* tracer : tracers) {
    const auto& spans = tracer->spans();
    if (!spans.empty()) {
      ok = ok && std::fwrite(spans.data(), sizeof(Span), spans.size(), f) ==
                     spans.size();
    }
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
