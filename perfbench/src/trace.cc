#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery:
      return "query";
    case SpanKind::kPick:
      return "pick";
    case SpanKind::kAcquire:
      return "acquire";
    case SpanKind::kSpill:
      return "spill";
    case SpanKind::kBuild:
      return "build";
  }
  return "?";
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::vector<Span>* Tracer::ThreadBuffer() {
  // One buffer per thread, owned by the tracer so spans outlive pool
  // threads; the lock is taken once per thread, not per span.
  thread_local std::vector<Span>* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<std::vector<Span>>();
    owned->reserve(1 << 16);
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(owned));
  }
  return buffer;
}

void Tracer::Record(const Span& span) {
  if (enabled()) ThreadBuffer()->push_back(span);
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\top\tkind\tstart_ns\tend_ns\tdetail\n");
  for (const Span& s : Collect()) {
    std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), SpanKindName(s.kind),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.detail));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanKind kind, uint64_t parent, uint64_t op)
    : on_(Tracer::Get().enabled()) {
  span_.kind = kind;
  span_.id = Tracer::Get().NewId();
  span_.parent = parent;
  span_.op = op == 0 ? span_.id : op;
  if (on_) span_.start_ns = Tracer::Get().NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.end_ns = Tracer::Get().NowNs();
  Tracer::Get().Record(span_);
}

// ------------------------------------------------------------ TracingSource

using ps3::storage::ColumnSet;
using ps3::storage::PinnedPartition;
using ps3::storage::ScanControl;

const ps3::storage::Schema& TracingSource::schema() const {
  return inner_.schema();
}
size_t TracingSource::num_partitions() const { return inner_.num_partitions(); }
size_t TracingSource::num_shards() const { return inner_.num_shards(); }
const std::vector<size_t>& TracingSource::shard(size_t s) const {
  return inner_.shard(s);
}

ps3::Result<PinnedPartition> TracingSource::Acquire(
    size_t global_index, const ColumnSet& columns) const {
  return Traced(global_index, columns, nullptr);
}

ps3::Result<PinnedPartition> TracingSource::Acquire(
    size_t global_index, const ColumnSet& columns,
    const ScanControl& control) const {
  return Traced(global_index, columns, &control);
}

ps3::Result<PinnedPartition> TracingSource::Traced(
    size_t global_index, const ColumnSet& columns,
    const ScanControl* control) const {
  Tracer& tracer = Tracer::Get();
  Span span;
  span.kind = SpanKind::kAcquire;
  span.id = tracer.NewId();
  // Only the benchmark submits queries over this source, and every traced
  // query carries a QueryToken, so a non-null token names its query.
  if (control != nullptr && control->cancel != nullptr) {
    const auto* token = static_cast<const QueryToken*>(control->cancel);
    span.parent = token->root();
    span.op = token->root();
  }
  // A miss is an acquire that finds some requested segment neither cached
  // nor already being loaded, so it has to read it itself.
  const std::vector<size_t> cols = columns.Resolve(schema().num_columns());
  span.detail =
      inner_.store().UnstagedColumns(global_index, cols).empty() ? 0 : 1;
  span.start_ns = tracer.NowNs();
  auto result = control != nullptr
                    ? inner_.Acquire(global_index, columns, *control)
                    : inner_.Acquire(global_index, columns);
  span.end_ns = tracer.NowNs();
  tracer.Record(span);
  return result;
}

void TracingSource::WillScanShard(size_t s, const ColumnSet& columns) const {
  inner_.WillScanShard(s, columns);
}

void TracingSource::WillScanShard(size_t s, const ColumnSet& columns,
                                  const ScanControl& control) const {
  inner_.WillScanShard(s, columns, control);
}

void TracingSource::StageHint(const std::vector<std::vector<size_t>>& plan,
                              size_t current, const ColumnSet& columns) const {
  inner_.StageHint(plan, current, columns);
}

void TracingSource::StageHint(const std::vector<std::vector<size_t>>& plan,
                              size_t current, const ColumnSet& columns,
                              const ScanControl& control) const {
  inner_.StageHint(plan, current, columns, control);
}

uint64_t TracingSource::ColdScanBytes(const std::vector<size_t>& partitions,
                                      const ColumnSet& columns) const {
  return inner_.ColdScanBytes(partitions, columns);
}

std::vector<size_t> TracingSource::UnreachablePartitions() const {
  return inner_.UnreachablePartitions();
}

// ------------------------------------------------------------ TracingPicker

ps3::core::Selection TracingPicker::Pick(
    const ps3::query::Query& query, size_t budget, ps3::RandomEngine* rng,
    ps3::core::PickTelemetry* telemetry) const {
  Tracer& tracer = Tracer::Get();
  ps3::core::PickTelemetry local;
  Span span;
  span.kind = SpanKind::kPick;
  span.id = tracer.NewId();
  span.parent = root_.load(std::memory_order_relaxed);
  span.op = span.parent;
  span.start_ns = tracer.NowNs();
  ps3::core::Selection sel = inner_.Pick(query, budget, rng, &local);
  span.end_ns = tracer.NowNs();
  span.detail = static_cast<int64_t>(local.clustering_ms * 1e6);
  tracer.Record(span);
  if (telemetry != nullptr) *telemetry = local;
  return sel;
}

}  // namespace perfbench
