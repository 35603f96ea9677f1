// Shared pieces of the serving benchmark: the fixed input shape, the
// system under test as every workload sets it up, the closed-loop
// stream runner, and result/metric helpers.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/picker.h"
#include "core/ps3_model.h"
#include "featurize/featurizer.h"
#include "io/cold_source.h"
#include "io/partition_store.h"
#include "io/prefetch_pipeline.h"
#include "query/evaluator.h"
#include "runtime/query_scheduler.h"
#include "stats/stats_builder.h"
#include "stats/table_stats.h"
#include "storage/column_set.h"
#include "storage/table.h"
#include "trace.h"
#include "workload/spec.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Input shape. The seed varies the order of the query stream and the
// picks; the shape stays fixed so runs with different seeds measure the
// same amount of work.
inline constexpr size_t kRows = 200000;
inline constexpr size_t kPartitions = 400;
inline constexpr size_t kShards = 4;
/// Closed-loop client streams, and pool lanes each query may use:
/// streams x lanes stays within a 4-core host.
inline constexpr int kStreams = 2;
inline constexpr int kLanesPerQuery = 2;
/// Distinct queries in the stream; the stream cycles through them.
inline constexpr size_t kQueries = 1024;
inline constexpr size_t kTrainQueries = 64;
/// Seed of the table, the distinct queries and the picker's training
/// queries that the query workloads serve.
inline constexpr uint64_t kDataSeed = 7;
inline constexpr double kFraction = 0.1;
/// Partitions an approximate query may scan.
inline size_t PickBudget() {
  return static_cast<size_t>(
      std::ceil(kFraction * static_cast<double>(kPartitions)));
}
/// Operations per window of the end-to-end summary: a window's p99 has
/// ten samples beyond it.
inline constexpr size_t kWindowOps = 1024;
/// Queries whose referenced columns the read/decode probe reads.
inline constexpr size_t kReadProbeQueries = 32;

enum class Workload { kColdExact, kWarmExact, kApproxPs3 };

struct Args {
  Workload workload = Workload::kColdExact;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for spilled stores: main() points it at a new run-<pid>
  /// directory under the --work-dir it was given, and removes only that.
  std::string work_dir = ".bench_build/work";
  /// Where the traced run writes its spans.
  std::string trace_dir = ".bench_out";
};

/// Process start, for the set-up time.
Clock::time_point ProcessStart();
double Seconds(Clock::time_point from, Clock::time_point to = Clock::now());
/// Nearest-rank percentile, q in [0, 1]. Empty input gives 0.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Order-independent 64-bit digest over every (group, value bits) pair.
uint64_t Digest(const ps3::query::QueryAnswer& answer);
/// Same groups and bit-identical values.
bool SameBits(const ps3::query::QueryAnswer& a,
              const ps3::query::QueryAnswer& b);
/// A failed output check: reports it and exits non-zero.
[[noreturn]] void Fail(const std::string& what);
inline void Check(bool ok, const std::string& what) {
  if (!ok) Fail(what);
}

/// Name -> (value, unit), printed as the result line's "metrics" object.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  std::string Json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Files under `dir`, summed.
uint64_t DirectoryBytes(const std::string& dir);

/// One attempted operation of a stream.
struct OpRecord {
  uint32_t item = 0;  ///< index of the distinct query
  bool failed = false;
  double latency_ms = 0.0;
  uint64_t root = 0;    ///< root span id (traced operations only)
  uint64_t digest = 0;  ///< answer digest (queries)
  size_t partitions_scanned = 0;
  uint64_t planned_bytes = 0;  ///< manifest bytes of the scanned segments
  double end_s = 0.0;          ///< completion, seconds after the run began
};

/// End-to-end figures of a run: medians over consecutive windows of
/// kWindowOps operations in completion order, so a burst of outside load
/// moves one window and not the result.
struct Summary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double ops_per_s = 0.0;
};

struct StreamRun {
  std::vector<OpRecord> ops;  ///< in completion order
  uint64_t failed = 0;
  std::vector<double> LatenciesMs() const;
  Summary Summarize() const;
};

/// Runs `kStreams` closed-loop client threads with no think time. They
/// share one cursor over rounds of `items` operations (item = cursor %
/// items) and stop at the first round boundary reached after
/// `min_seconds`, or after `max_rounds`, so every run attempts whole
/// rounds. `op(stream, item)` performs one operation and fills its record.
StreamRun RunStreams(size_t items, double min_seconds, size_t max_rounds,
                     const std::function<OpRecord(int, size_t)>& op);

/// The end-to-end metrics every workload reports.
void SetEndToEnd(double setup_s, const StreamRun& run,
                 double disk_bytes_per_row, double stats_bytes_per_partition,
                 Metrics* m);

/// The system under test as a workload sets it up: generated table and
/// query stream, spilled store with statistics, optionally a trained PS3
/// picker, and the serving stack (store, scheduler, prefetch, source).
struct System {
  // Inputs.
  uint64_t seed = 1;
  ps3::workload::DatasetBundle bundle;
  std::shared_ptr<ps3::storage::Table> table;
  std::unique_ptr<ps3::storage::PartitionedTable> parts;
  std::vector<ps3::query::Query> queries;
  std::vector<ps3::storage::ColumnSet> query_columns;  ///< per query
  std::string work_dir;
  std::string spill_dir;

  // Set-up layer timings and results.
  double generate_s = 0.0;
  double spill_s = 0.0;
  uint64_t spill_bytes = 0;
  double build_s = 0.0;
  std::unique_ptr<ps3::stats::TableStats> stats;
  std::unique_ptr<ps3::featurize::Featurizer> featurizer;
  ps3::core::PickerContext ctx;
  double training_data_s = 0.0;
  double train_s = 0.0;
  std::unique_ptr<ps3::core::Ps3Model> model;
  size_t referenced_bytes = 0;  ///< decoded bytes of the referenced columns
  size_t table_bytes = 0;       ///< decoded bytes of every column

  // Serving stack; declared so that it is torn down source-first.
  std::unique_ptr<ps3::io::PartitionStore> store;
  std::unique_ptr<ps3::runtime::QueryScheduler> scheduler;
  std::unique_ptr<ps3::io::PrefetchPipeline> prefetch;
  std::unique_ptr<ps3::io::ColdShardedSource> source;

  ~System();
  ps3::query::ExecOptions Exec() const;
  ps3::stats::StatsOptions StatsOpts(int threads) const;
  /// Picker seed of distinct query `i`: fixed per (seed, query).
  uint64_t PickSeed(size_t i) const;
};

/// Generates inputs, spills them, builds statistics and opens the
/// serving stack with `cache_budget` (a function of the system so the
/// budget can depend on the generated data). Trains the picker when
/// `train` is set.
void SetUp(System* sys, const Args& args, bool train,
           const std::function<size_t(const System&)>& cache_budget);

/// Reopens the store in `dir` and checks that every fetched value is
/// bit-identical to `table`'s rows. Returns the rows the store holds.
size_t CheckRoundTrip(const std::string& dir, const ps3::storage::Table& table);
/// Sum of the statistics' per-partition row counts.
size_t StatsRows(const ps3::stats::TableStats& stats);

/// Resident scalar one-lane reference answers for every distinct query.
/// Also sets `random_rel_error` to the mean avg_rel_error of a uniform
/// core::RandomPicker at the served budget and each query's pick seed,
/// combined over the same resident per-partition answers: the error a
/// pick that ignores the statistics gets.
std::vector<ps3::query::QueryAnswer> ReferenceAnswers(const System& sys,
                                                      double* random_rel_error);

/// Cumulative store, cache and prefetch counters, taken with no staging
/// in flight.
struct Counters {
  ps3::io::StoreStats store;
  ps3::io::CacheStats cache;
  ps3::io::PrefetchPipeline::PrefetchStats prefetch;
};
Counters Snapshot(System& sys);

/// Submits the stream's queries: exact ones through Submit, approximate
/// ones through SubmitApproximate with the trained PS3 picker. A traced
/// operation goes through the forwarding source and picker and carries a
/// QueryToken naming its root span. Keeps each query's first answer.
class QueryStream {
 public:
  QueryStream(System* sys, bool approx);

  OpRecord Run(int stream, size_t i, bool traced);
  std::function<OpRecord(int, size_t)> Op(bool traced) {
    return [this, traced](int s, size_t i) { return Run(s, i, traced); };
  }
  /// Exact: every answer bit-identical to `ref`. Approximate: every
  /// repeat bit-identical to the first answer, every group present in the
  /// exact answer, and no more partitions scanned than the budget.
  void CheckRun(const StreamRun& run,
                const std::vector<ps3::query::QueryAnswer>& ref) const;
  /// Mean avg_rel_error of the first answers against `ref`.
  double MeanRelError(const std::vector<ps3::query::QueryAnswer>& ref) const;

 private:
  System* sys_;
  bool approx_;
  TracingSource traced_source_;
  std::unique_ptr<ps3::core::PartitionPicker> ps3_;
  std::vector<std::unique_ptr<TracingPicker>> pickers_;  ///< one per stream
  std::vector<uint64_t> planned_;  ///< exact scan's manifest bytes per query
  std::mutex mu_;
  std::vector<std::unique_ptr<ps3::query::QueryAnswer>> first_;  ///< by mu_
};

/// The set-up store round-trips every value, the statistics cover every
/// row, COUNT(*) over the store equals the row count, and, for the
/// approximate workload, ExactPicker at fraction 1.0 reproduces the exact
/// answer.
void CheckControls(System& sys,
                   const std::vector<ps3::query::QueryAnswer>& ref,
                   bool approx);
/// Per-layer metrics of the traced queries in `traced`, from their spans
/// and the counter deltas over the run; checks the Acquire count.
void AddQueryLayers(const StreamRun& traced,
                    const Counters& before, const Counters& after,
                    const std::vector<Span>& spans, Metrics* m);
/// Direct calls into single layers over the workload's inputs: resident
/// scans, picks (unless the stream already served them) and file reads.
void AddProbeLayers(System& sys,
                    const std::vector<ps3::query::QueryAnswer>& ref,
                    bool served_picks, Metrics* m);
/// Set-up layers (generate, spill, build, train) and pick spans.
void AddSetupLayers(const System& sys, const std::vector<Span>& spans,
                    Metrics* m);
void WriteTrace(const Args& args);

/// Workload entry points. Each exits non-zero through Fail() on a failed
/// check.
struct Outcome {
  Metrics metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};
Outcome RunQueryWorkload(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
