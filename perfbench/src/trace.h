// In-memory span recording for the traced benchmark run, plus the
// forwarding seams that record spans around calls into the engine.
//
// Spans are kept in per-thread buffers (no lock on the record path) and
// merged once at the end. Every span of one query carries that query's
// root span id in `op`, and a `parent` link to the span that caused it.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/query_control.h"
#include "core/picker.h"
#include "io/cold_source.h"
#include "storage/partition_source.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kQuery,    ///< Submit to future.get()
  kPick,     ///< PartitionPicker::Pick
  kAcquire,  ///< PartitionSource::Acquire
  kSpill,    ///< PartitionStore::Spill
  kBuild,    ///< StatsBuilder::Build
};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = no parent
  uint64_t op = 0;      ///< root span id of the query
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Acquire: 1 when the acquire had to load a segment itself (miss).
  /// Pick: clustering time in ns reported by the picker's telemetry.
  int64_t detail = 0;
  SpanKind kind = SpanKind::kQuery;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Process-wide span sink. Disabled tracers hand out ids but record
/// nothing, so untraced code paths never touch a buffer.
class Tracer {
 public:
  static Tracer& Get();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  int64_t NowNs() const;
  void Record(const Span& span);

  /// Every span recorded so far, ordered by start time.
  std::vector<Span> Collect() const;
  /// Writes Collect() as tab-separated lines:
  /// id parent op kind start_ns end_ns detail. Returns false on IO error.
  bool WriteTsv(const std::string& path) const;

 private:
  Tracer();
  std::vector<Span>* ThreadBuffer();

  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;  ///< guarded by mu_
};

/// A cancel token that also names its query: the benchmark hands one per
/// traced query to SubmitOptions, and it reaches every Acquire through
/// ScanControl, which is how concurrent queries' acquire spans are told
/// apart. It never cancels.
class QueryToken : public ps3::CancelToken {
 public:
  explicit QueryToken(uint64_t root) : root_(root) {}
  uint64_t root() const { return root_; }

 private:
  uint64_t root_;
};

/// Forwarding PartitionSource over a cold store that records one span per
/// Acquire. It overrides every virtual of the seam — both Acquire forms,
/// both WillScanShard forms, both StageHint forms, ColdScanBytes and
/// UnreachablePartitions — so no call falls through to a base-class
/// default and bypasses the wrapped source.
class TracingSource : public ps3::storage::PartitionSource {
 public:
  explicit TracingSource(const ps3::io::ColdShardedSource& inner)
      : inner_(inner) {}

  const ps3::storage::Schema& schema() const override;
  size_t num_partitions() const override;
  size_t num_shards() const override;
  const std::vector<size_t>& shard(size_t s) const override;

  ps3::Result<ps3::storage::PinnedPartition> Acquire(
      size_t global_index,
      const ps3::storage::ColumnSet& columns) const override;
  ps3::Result<ps3::storage::PinnedPartition> Acquire(
      size_t global_index, const ps3::storage::ColumnSet& columns,
      const ps3::storage::ScanControl& control) const override;
  using PartitionSource::Acquire;

  void WillScanShard(size_t s,
                     const ps3::storage::ColumnSet& columns) const override;
  void WillScanShard(size_t s, const ps3::storage::ColumnSet& columns,
                     const ps3::storage::ScanControl& control) const override;
  using PartitionSource::WillScanShard;

  void StageHint(const std::vector<std::vector<size_t>>& plan, size_t current,
                 const ps3::storage::ColumnSet& columns) const override;
  void StageHint(const std::vector<std::vector<size_t>>& plan, size_t current,
                 const ps3::storage::ColumnSet& columns,
                 const ps3::storage::ScanControl& control) const override;

  uint64_t ColdScanBytes(const std::vector<size_t>& partitions,
                         const ps3::storage::ColumnSet& columns) const override;
  std::vector<size_t> UnreachablePartitions() const override;

 private:
  ps3::Result<ps3::storage::PinnedPartition> Traced(
      size_t global_index, const ps3::storage::ColumnSet& columns,
      const ps3::storage::ScanControl* control) const;

  const ps3::io::ColdShardedSource& inner_;
};

/// Forwarding picker that records one span per Pick. One instance per
/// client stream: a stream has one query in flight, so the root id it
/// sets before submitting is the parent of the Pick that query runs.
class TracingPicker : public ps3::core::PartitionPicker {
 public:
  explicit TracingPicker(const ps3::core::PartitionPicker& inner)
      : inner_(inner) {}

  void set_root(uint64_t root) { root_.store(root, std::memory_order_relaxed); }

  std::string name() const override { return inner_.name(); }
  ps3::core::Selection Pick(const ps3::query::Query& query, size_t budget,
                            ps3::RandomEngine* rng,
                            ps3::core::PickTelemetry* telemetry) const override;

 private:
  const ps3::core::PartitionPicker& inner_;
  std::atomic<uint64_t> root_{0};
};

/// Records a span covering the scope, when the tracer is enabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, uint64_t parent, uint64_t op);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Span span_;
  bool on_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
