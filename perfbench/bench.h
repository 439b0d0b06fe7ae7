// Shared declarations of the repository benchmark (perfbench/README.md):
// the §6 operations as categorised, verifiable calls, the sample
// pools the end-to-end metrics are computed from, and the two phases
// every workload round runs (the §6 cold/warm protocol pass and the
// reader/writer mix).
#ifndef HM_PERFBENCH_BENCH_H_
#define HM_PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "hypermodel/driver.h"
#include "hypermodel/generator.h"
#include "hypermodel/store.h"

namespace perfbench {

class Tracer;

/// The paper's seven §6 operation groups; `cold_ms_per_node` pools
/// Σms/Σnodes within each before taking the geomean over them.
enum class Category { kName, kRange, kGroup, kRef, kScan, kClosure, kEdit };
inline constexpr int kCategories = 7;
Category CategoryOf(hm::OpId op);
const char* CategoryName(Category category);

/// True for ops 01, 02, 05A, 05B, 06, 07A, 07B and 08, the calls the
/// lookup_* latency metrics are taken over.
bool IsLookup(hm::OpId op);

/// One operation input, phrased store-independently: `node` is a
/// position in TestDatabase::all_nodes (both stores were generated
/// with one seed, so a position names the same logical node on each),
/// `value` a scalar (uniqueId, range start, rectangle corner).
struct OpInput {
  int64_t node = -1;
  int64_t value = 0;
  int64_t extra = 0;  // formNodeEdit rectangle, packed w<<24|h<<16|x<<8|y
};

/// A generated database plus the reverse map from ref to position,
/// which is how results are translated without further store calls.
struct Database {
  hm::TestDatabase db;
  std::unordered_map<hm::NodeRef, int64_t> position;
  void Index();
  hm::NodeRef Ref(int64_t pos) const {
    return db.all_nodes[static_cast<size_t>(pos)];
  }
};

/// A call's raw result, kept as returned until the timed region ends.
struct Raw {
  hm::OpId op = hm::OpId::kNameLookup;
  hm::util::Status status;
  std::vector<hm::NodeRef> refs;
  std::vector<hm::NodeDistance> distances;
  std::vector<int64_t> scalars;
  uint64_t nodes = 0;  // nodes returned or involved, as hm::Driver counts
};

/// Runs one call of `op` on `store` inside a kOp span. `warm` selects
/// the textNodeEdit direction (the cold run edits version1 ->
/// version-2, the warm run edits back), as in hm::Driver.
Raw Execute(hm::HyperStore* store, const Database& db, hm::OpId op,
            const OpInput& input, bool warm, Tracer* tracer);

/// A result in canonical form: positions instead of refs, sorted
/// where the operation defines a set (the M-N and index-scan ops),
/// in walk order where it defines an order (05A, 07A, 10, 13). Two
/// stores agree on a call exactly when their canonical forms match.
std::vector<int64_t> Canonical(const Raw& raw, const Database& db);

/// The `iterations` inputs of `op` for protocol pass `pass`, drawn
/// the way hm::Driver::SelectInputs draws them.
std::vector<OpInput> SelectInputs(const Database& db, hm::OpId op,
                                  uint64_t seed, int pass, int iterations);

/// Latency samples of one metric family.
struct Samples {
  std::vector<double> values;
  void Add(double v) { values.push_back(v); }
  size_t size() const { return values.size(); }
  /// Nearest-rank quantile (q in (0, 1]); 0 when empty.
  double Quantile(double q) const;
  void Append(const Samples& other) {
    values.insert(values.end(), other.values.begin(), other.values.end());
  }
};

inline constexpr int kOps = 20;  // hm::OpId values

/// Everything the end-to-end metrics and the verification need,
/// accumulated over a run's rounds. Call times are kept per operation
/// (for the medians) and pooled per family (for the p99s).
struct Totals {
  // Protocol pass: per category, Σms and Σnodes per phase.
  double phase_ms[2][kCategories] = {};
  uint64_t phase_nodes[2][kCategories] = {};
  Samples op_ms[2][kOps];  // [cold, warm][op]
  Samples lookup_us[2];    // [cold, warm], pooled
  Samples closure_ms;      // both phases, pooled
  double scan_ms = 0;
  uint64_t scan_nodes = 0;
  // Reader/writer mix.
  Samples edit_txn_ms;
  Samples mix_op_ms[kOps];
  Samples mix_lookup_us;   // pooled
  Samples mix_closure_ms;  // pooled
  uint64_t reads = 0;
  double mix_wall_s = 0;
  // Counting.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t nodes_returned = 0;
  uint64_t category_nodes[kCategories] = {};  // protocol and mix calls
  uint64_t commits = 0;
  std::vector<std::string> first_errors;  // a few, for the log

  void Fail(const std::string& what);
  /// Adds `other`'s counts and samples to these.
  void Merge(const Totals& other);
};

/// Where a phase's calls go. `reference` is the in-process `mem`
/// store generated with the same level and seed; every result of
/// `store` is compared against it. `tracer` (nullable) records spans.
struct Target {
  hm::HyperStore* store = nullptr;
  const Database* db = nullptr;
  hm::HyperStore* reference = nullptr;
  const Database* reference_db = nullptr;
  Tracer* tracer = nullptr;
};

/// seqScan calls per phase. Each call reads every node, so five calls
/// already touch ~10^5 nodes per phase at level 6; the paper's fifty
/// would make one pass take seconds and leave a run too few rounds to
/// average over.
inline constexpr int kScanIterations = 5;

/// One §6 protocol pass: for each of the twenty operations, close the
/// database, run `iterations` calls (kScanIterations for seqScan) cold
/// inside Begin/Commit, then the same inputs warm. Wall time of the
/// timed regions is added to `*wall_ms`.
void ProtocolPass(const Target& target, uint64_t seed, int pass,
                  int iterations, Totals* totals, double* wall_ms);

/// Single-client mix: `writer_txns` times, two reader operations and
/// then one edit transaction (textNodeEdit + Commit), all on one
/// connection.
void MixSerial(const Target& target, uint64_t seed, int pass,
               int writer_txns, Totals* totals, double* wall_ms);

/// Concurrent mix: one writer thread on `writer`, one reader thread
/// per entry of `readers`, in a closed loop until the writer has
/// committed `writer_txns` edit transactions.
void MixConcurrent(const Target& writer, const std::vector<Target>& readers,
                   uint64_t seed, int pass, int writer_txns, Totals* totals,
                   double* wall_ms);

}  // namespace perfbench

#endif  // HM_PERFBENCH_BENCH_H_
