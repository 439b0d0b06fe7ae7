// Per-layer attribution, measured from outside the program: span self
// times from the traced run, telemetry::Registry deltas (storage,
// server, remote, cluster) and /proc/self/io deltas, reduced to the
// per-layer metrics BENCHMARK.json lists.
#ifndef HM_PERFBENCH_LAYERS_H_
#define HM_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/tracing_store.h"
#include "telemetry/metrics.h"

namespace perfbench {

/// Counters of /proc/self/io. Every server in these workloads runs in
/// the benchmark process (loopback), so this covers client and servers.
struct ProcIo {
  uint64_t rchar = 0, wchar = 0, syscr = 0;
  static ProcIo Read();
  ProcIo Since(const ProcIo& before) const;
  ProcIo Plus(const ProcIo& other) const;
};

/// A size line of /proc/self/status in MiB: "VmHWM:" is this process's
/// peak resident set, "VmRSS:" its current one.
double ProcStatusMb(const std::string& key);

/// Request frames the servers received: every dispatched opcode,
/// counting a batch frame once rather than once per sub-request.
uint64_t RoundTrips(const hm::telemetry::Snapshot& diff);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What the traced rounds saw.
struct TraceInputs {
  std::vector<const Tracer*> tracers;
  hm::telemetry::Snapshot registry;  // delta over the traced rounds
  ProcIo io;                         // delta over the traced rounds
  const Totals* totals = nullptr;    // the traced rounds' totals
  double traced_wall_ms = 0;         // Σ timed regions, traced rounds
  double untraced_wall_ms = 0;       // the same rounds re-run untraced
  uint64_t cross_shard_edges = 0;    // written during set-up
};

/// Reduces the traced rounds to the per-layer metrics, printing the
/// reconciliation table (self time per layer plus the unattributed
/// residue) to `table`.
std::vector<Metric> LayerMetrics(const TraceInputs& in, std::ostream& table);

/// Exact counts the self-check compares across runs at one seed.
struct ExactCounts {
  uint64_t buffer_pool_misses = 0;
  uint64_t round_trips = 0;
  uint64_t wal_appends = 0;
  uint64_t store_calls[kCategories] = {};  // traced runs only
  bool has_store_calls = false;
};
ExactCounts CountsOf(const hm::telemetry::Snapshot& diff,
                     const std::vector<const Tracer*>& tracers);
std::string CountsJson(const ExactCounts& counts);

/// Writes every span as fixed-size binary records (the Span struct,
/// host byte order) after a header naming the record size.
bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

}  // namespace perfbench

#endif  // HM_PERFBENCH_LAYERS_H_
