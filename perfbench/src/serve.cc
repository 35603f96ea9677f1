// The query workloads (cold_exact, warm_exact, approx_ps3): closed-loop
// streams through QueryScheduler over the spilled store, their output
// checks, and the per-layer metrics of the traced run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "bench.h"
#include "common/random.h"
#include "core/exact_picker.h"
#include "core/ps3_picker.h"
#include "io/partition_file.h"
#include "query/metrics.h"
#include "runtime/worker_pool.h"
#include "storage/sharded_table.h"
#include "trace.h"

namespace perfbench {

using namespace ps3;

namespace {

constexpr size_t kAllRounds = std::numeric_limits<size_t>::max();
/// Slack of the traced-vs-untraced flow check. Across seeds the two
/// stretches' bytes per query differed by under 0.3%, and their prefetch
/// counts by up to 7% (warm_exact's hints follow the adaptive stage-ahead
/// distance) or by half a partition where they are near 0.
constexpr double kBytesTolerance = 0.02;
constexpr double kPrefetchTolerance = 0.15;
constexpr double kPrefetchSlack = 1.0;
/// Ceiling of the served PS3 error over the random picker's at the same
/// budget and seeds. Measured ratios are 0.46-0.53; a uniform pick is 1.
constexpr double kMaxErrorOverRandom = 0.65;

/// What a stretch of the stream moved through the store and the prefetch
/// pipeline, per query.
struct FlowPerQuery {
  double bytes = 0.0;    ///< StoreStats::bytes_loaded
  double advised = 0.0;  ///< partitions the scan hinted: staged + skipped
  double staged = 0.0;
  double skipped_budget = 0.0;
};

FlowPerQuery Flow(const Counters& from, const Counters& to, size_t queries) {
  const double n = static_cast<double>(std::max<size_t>(1, queries));
  const auto& a = from.prefetch;
  const auto& b = to.prefetch;
  FlowPerQuery f;
  f.bytes = static_cast<double>(to.store.bytes_loaded -
                                from.store.bytes_loaded) / n;
  f.staged = static_cast<double>(b.staged - a.staged) / n;
  f.skipped_budget =
      static_cast<double>(b.skipped_budget - a.skipped_budget) / n;
  f.advised = f.staged + f.skipped_budget +
              static_cast<double>(b.skipped_cached - a.skipped_cached) / n;
  return f;
}

/// Tracing must not change what the store reads or what the scans hint to
/// prefetch: a forwarding source that dropped StageHint/WillScanShard, or
/// read a segment twice, moves these far past what cache state and
/// prefetch timing move them between two stretches of one run.
void CheckSameFlow(const FlowPerQuery& plain, const FlowPerQuery& traced) {
  std::fprintf(stderr,
               "perfbench: per query, untraced vs traced: bytes %.0f / %.0f, "
               "hinted %.2f / %.2f, staged %.2f / %.2f, skipped for budget "
               "%.2f / %.2f\n",
               plain.bytes, traced.bytes, plain.advised, traced.advised,
               plain.staged, traced.staged, plain.skipped_budget,
               traced.skipped_budget);
  auto near = [](double a, double b, double rel, double abs) {
    return std::fabs(a - b) <= rel * std::max(a, b) + abs;
  };
  Check(near(plain.bytes, traced.bytes, kBytesTolerance, 0.0),
        "traced and untraced runs read different bytes per query");
  Check(near(plain.advised, traced.advised, kPrefetchTolerance, 0.0),
        "traced and untraced runs hinted different partitions to prefetch");
  Check(near(plain.staged, traced.staged, kPrefetchTolerance, kPrefetchSlack),
        "traced and untraced runs staged different partitions per query");
  Check(near(plain.skipped_budget, traced.skipped_budget, kPrefetchTolerance,
             kPrefetchSlack),
        "traced and untraced runs skipped different partitions per query");
}

/// The served picks must beat a pick that ignores the statistics: a
/// cheaper but worse pick fails here instead of showing as a speed-up.
void CheckPickQuality(double served, double random) {
  std::fprintf(stderr,
               "perfbench: mean relative error: ps3 %.4f, random %.4f\n",
               served, random);
  Check(served <= kMaxErrorOverRandom * random,
        "PS3 picks' mean relative error " + std::to_string(served) +
            " is above " + std::to_string(kMaxErrorOverRandom) +
            " x the random picker's " + std::to_string(random));
}

}  // namespace

Counters Snapshot(System& sys) {
  sys.prefetch->Drain();
  return Counters{sys.store->store_stats(), sys.store->cache().stats(),
                  sys.prefetch->stats()};
}

QueryStream::QueryStream(System* sys, bool approx)
    : sys_(sys),
      approx_(approx),
      traced_source_(*sys->source),
      first_(sys->queries.size()) {
  if (approx_) {
    ps3_ = std::make_unique<core::Ps3Picker>(sys_->ctx, sys_->model.get());
    for (int s = 0; s < kStreams; ++s) {
      pickers_.push_back(std::make_unique<TracingPicker>(*ps3_));
    }
  }
  std::vector<size_t> all(kPartitions);
  for (size_t p = 0; p < kPartitions; ++p) all[p] = p;
  for (const auto& cols : sys_->query_columns) {
    planned_.push_back(sys_->source->ColdScanBytes(all, cols));
  }
}

OpRecord QueryStream::Run(int stream, size_t i, bool traced) {
  Tracer& tracer = Tracer::Get();
  OpRecord rec;
  runtime::SubmitOptions submit;
  if (traced) {
    rec.root = tracer.NewId();
    submit.cancel = std::make_shared<QueryToken>(rec.root);
  }
  const storage::PartitionSource& source =
      traced ? static_cast<const storage::PartitionSource&>(traced_source_)
             : *sys_->source;
  const query::Query& q = sys_->queries[i];
  const int64_t start_ns = traced ? tracer.NowNs() : 0;
  query::QueryAnswer value;
  const Clock::time_point t0 = Clock::now();
  if (approx_) {
    const core::PartitionPicker* picker = ps3_.get();
    if (traced) {
      pickers_[stream]->set_root(rec.root);
      picker = pickers_[stream].get();
    }
    runtime::ApproxAnswer ans =
        sys_->scheduler
            ->SubmitApproximate(q, source, *picker,
                                {kFraction, sys_->PickSeed(i)}, submit,
                                sys_->Exec())
            .get();
    rec.latency_ms = Seconds(t0) * 1e3;
    rec.partitions_scanned = ans.partitions_scanned;
    rec.planned_bytes = ans.bytes_moved;
    value = std::move(ans.value);
  } else {
    value = sys_->scheduler->Submit(q, source, submit, sys_->Exec()).get();
    rec.latency_ms = Seconds(t0) * 1e3;
    rec.partitions_scanned = kPartitions;
    rec.planned_bytes = planned_[i];
  }
  if (traced) {
    Span span;
    span.kind = SpanKind::kQuery;
    span.id = rec.root;
    span.op = rec.root;
    span.start_ns = start_ns;
    span.end_ns = tracer.NowNs();
    tracer.Record(span);
  }
  rec.digest = Digest(value);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_[i] == nullptr) {
      first_[i] = std::make_unique<query::QueryAnswer>(std::move(value));
    }
  }
  return rec;
}

void QueryStream::CheckRun(const StreamRun& run,
                           const std::vector<query::QueryAnswer>& ref) const {
  std::vector<uint64_t> ref_digests;
  for (const auto& a : ref) ref_digests.push_back(Digest(a));
  for (size_t i = 0; i < first_.size(); ++i) {
    if (first_[i] == nullptr) continue;
    if (!approx_) {
      Check(SameBits(*first_[i], ref[i]),
            "exact answer of query " + std::to_string(i) +
                " differs from the resident scalar scan");
      continue;
    }
    for (const auto& group : *first_[i]) {
      Check(ref[i].count(group.first) == 1,
            "approximate answer of query " + std::to_string(i) +
                " has a group the exact answer lacks");
    }
  }
  for (const OpRecord& r : run.ops) {
    if (r.failed) continue;
    if (approx_) {
      Check(r.digest == Digest(*first_[r.item]),
            "approximate answer of query " + std::to_string(r.item) +
                " is not deterministic");
      Check(r.partitions_scanned <= PickBudget(),
            "approximate query scanned more than its budget");
    } else {
      Check(r.digest == ref_digests[r.item],
            "exact answer of query " + std::to_string(r.item) +
                " differs from the resident scalar scan");
    }
  }
}

double QueryStream::MeanRelError(
    const std::vector<query::QueryAnswer>& ref) const {
  double sum = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < first_.size(); ++i) {
    if (first_[i] == nullptr) continue;
    sum += query::ComputeErrorMetrics(sys_->queries[i], ref[i], *first_[i])
               .avg_rel_error;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

void CheckControls(System& sys, const std::vector<query::QueryAnswer>& ref,
                   bool approx) {
  // The set-up spill, reopened, returns every row bit for bit, and the
  // statistics cover every row.
  Check(CheckRoundTrip(sys.spill_dir, *sys.table) == kRows,
        "the reopened store's rows differ from the table's");
  Check(StatsRows(*sys.stats) == kRows,
        "the statistics' rows differ from the table's");
  // COUNT(*) over the store equals the generated row count.
  query::Query count;
  count.aggregates.push_back(query::Aggregate::Count("rows"));
  query::QueryAnswer rows =
      sys.scheduler->Submit(count, *sys.source, {}, sys.Exec()).get();
  Check(rows.size() == 1 && rows.begin()->second.size() == 1 &&
            rows.begin()->second[0] == static_cast<double>(kRows),
        "COUNT(*) over the store differs from the generated row count");
  if (!approx) return;
  // The approximate path with every partition at weight 1 is the exact
  // scan: same bits, zero error surface.
  const core::ExactPicker exact(kPartitions);
  for (size_t i = 0; i < 8; ++i) {
    runtime::ApproxAnswer ans =
        sys.scheduler
            ->SubmitApproximate(sys.queries[i], *sys.source, exact, {1.0, 1},
                                {}, sys.Exec())
            .get();
    Check(SameBits(ans.value, ref[i]) && ans.partitions_scanned == kPartitions,
          "ExactPicker at fraction 1.0 differs from the exact answer");
    for (const auto& group : ans.error_estimate) {
      for (double e : group.second) {
        Check(e == 0.0, "ExactPicker at fraction 1.0 has a non-zero error");
      }
    }
  }
}

void AddQueryLayers(const StreamRun& traced,
                    const Counters& before, const Counters& after,
                    const std::vector<Span>& spans, Metrics* m) {
  std::unordered_map<uint64_t, const Span*> roots;
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  std::vector<double> hit_us, miss_us;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kQuery) roots[s.id] = &s;
    if (s.kind == SpanKind::kAcquire || s.kind == SpanKind::kPick) {
      if (s.op != 0) children[s.op].push_back(&s);
    }
    if (s.kind == SpanKind::kAcquire) {
      (s.detail != 0 ? miss_us : hit_us).push_back(s.ms() * 1e3);
    }
  }
  std::vector<double> first_acquire_ms, self_ms;
  double acquire_ms = 0.0;
  uint64_t acquires = 0, scanned = 0, planned = 0;
  for (const OpRecord& r : traced.ops) {
    if (r.failed) continue;
    scanned += r.partitions_scanned;
    planned += r.planned_bytes;
    auto root_it = roots.find(r.root);
    Check(root_it != roots.end(), "traced query has no span");
    const Span& root = *root_it->second;
    int64_t first_acquire = std::numeric_limits<int64_t>::max();
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (const Span* c : children[r.root]) {
      if (c->kind == SpanKind::kAcquire) {
        ++acquires;
        acquire_ms += c->ms();
        first_acquire = std::min(first_acquire, c->start_ns);
      }
      covered.emplace_back(std::max(c->start_ns, root.start_ns),
                           std::min(c->end_ns, root.end_ns));
    }
    if (first_acquire != std::numeric_limits<int64_t>::max()) {
      first_acquire_ms.push_back(
          static_cast<double>(first_acquire - root.start_ns) / 1e6);
    }
    // Self time: the query span minus the union of its children.
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0, reach = root.start_ns;
    for (const auto& [b, e] : covered) {
      const int64_t from = std::max(b, reach);
      if (e > from) {
        union_ns += e - from;
        reach = e;
      }
    }
    self_ms.push_back(root.ms() - static_cast<double>(union_ns) / 1e6);
  }
  // Every partition a query scanned went through exactly one Acquire of
  // the forwarding source; a seam override that fell through to a
  // base-class default would leave this short.
  Check(acquires == scanned,
        "traced Acquire count " + std::to_string(acquires) +
            " differs from the partitions scanned " + std::to_string(scanned));

  const double n =
      std::max<double>(1.0, static_cast<double>(traced.ops.size()));
  const uint64_t hits = after.cache.hits - before.cache.hits;
  const uint64_t misses = after.cache.misses - before.cache.misses;
  const uint64_t loaded = after.store.bytes_loaded - before.store.bytes_loaded;
  m->Set("runtime.admit_to_first_acquire_ms", Median(first_acquire_ms), "ms");
  m->Set("runtime.pool_lanes",
         static_cast<double>(runtime::WorkerPool::Shared().num_lanes()),
         "count");
  m->Set("query.self_ms", Median(self_ms), "ms");
  m->Set("io.acquire_hit_us", Median(hit_us), "us");
  m->Set("io.acquire_miss_us", Median(miss_us), "us");
  m->Set("io.acquire_ms_per_query", acquire_ms / n, "ms");
  m->Set("io.cache_hit_rate",
         hits + misses > 0 ? static_cast<double>(hits) /
                                 static_cast<double>(hits + misses)
                           : 0.0,
         "ratio");
  m->Set("io.evictions_per_query",
         static_cast<double>(after.cache.evictions - before.cache.evictions) /
             n,
         "count");
  m->Set("io.cold_loads_per_query",
         static_cast<double>(after.store.cold_loads - before.store.cold_loads) /
             n,
         "count");
  m->Set("io.bytes_read_per_query", static_cast<double>(loaded) / n, "bytes");
  m->Set("io.bytes_loaded_over_planned",
         planned > 0 ? static_cast<double>(loaded) /
                           static_cast<double>(planned)
                     : 0.0,
         "ratio");
  m->Set("io.prefetch_staged_per_query",
         static_cast<double>(after.prefetch.staged - before.prefetch.staged) /
             n,
         "count");
  m->Set("io.prefetch_skipped_budget_per_query",
         static_cast<double>(after.prefetch.skipped_budget -
                             before.prefetch.skipped_budget) /
             n,
         "count");
  m->Set("trace.acquire_spans", static_cast<double>(acquires), "count");
}

void AddProbeLayers(System& sys, const std::vector<query::QueryAnswer>& ref,
                    bool served_picks, Metrics* m) {
  // Resident scan of each query with the serving shards and lanes, which
  // also feeds, when the stream served no picks, the error of a PS3 pick
  // combined over resident per-partition answers.
  const storage::ShardedTable sharded(*sys.parts, kShards);
  std::unique_ptr<core::Ps3Picker> ps3;
  std::unique_ptr<TracingPicker> traced_ps3;
  if (!served_picks) {
    ps3 = std::make_unique<core::Ps3Picker>(sys.ctx, sys.model.get());
    traced_ps3 = std::make_unique<TracingPicker>(*ps3);
  }
  std::vector<double> resident_ms;
  double err_ps3 = 0.0;
  for (size_t i = 0; i < sys.queries.size(); ++i) {
    const query::Query& q = sys.queries[i];
    const Clock::time_point t = Clock::now();
    std::vector<query::PartitionAnswer> partials =
        query::EvaluateAllPartitions(q, sharded, sys.Exec());
    resident_ms.push_back(Seconds(t) * 1e3);
    Check(SameBits(query::ExactAnswer(q, partials), ref[i]),
          "resident vectorized answer differs from the scalar reference");
    if (traced_ps3 != nullptr) {
      traced_ps3->set_root(Tracer::Get().NewId());
      RandomEngine rng(sys.PickSeed(i));
      core::Selection sel =
          traced_ps3->Pick(q, PickBudget(), &rng, nullptr);
      query::CanonicalizeSelection(&sel.parts);
      err_ps3 += query::ComputeErrorMetrics(
                     q, ref[i], query::CombineWeighted(q, partials, sel.parts))
                     .avg_rel_error;
    }
  }
  m->Set("query.resident_scan_ms", Median(resident_ms), "ms");
  if (!served_picks) {
    m->Set("core.rel_error",
           err_ps3 / static_cast<double>(sys.queries.size()), "ratio");
  }

  // Read + verify + decode straight from the spilled files, for each
  // probe query's referenced columns.
  std::vector<std::shared_ptr<storage::Dictionary>> dicts;
  for (size_t c = 0; c < sys.table->num_columns(); ++c) {
    dicts.push_back(sys.table->column(c).dict_ptr());
  }
  uint64_t read_bytes = 0;
  double read_s = 0.0;
  for (size_t i = 0; i < kReadProbeQueries; ++i) {
    for (size_t p = 0; p < kPartitions; ++p) {
      char name[32];
      std::snprintf(name, sizeof(name), "/part-%06zu.ps3p", p);
      size_t bytes = 0;
      const Clock::time_point t = Clock::now();
      auto part = io::ReadPartitionColumns(sys.spill_dir + name,
                                           sys.table->schema(), dicts,
                                           sys.query_columns[i], &bytes);
      read_s += Seconds(t);
      Check(part.ok(), "reading a spilled partition file");
      read_bytes += bytes;
    }
  }
  m->Set("io.read_decode_mb_per_s",
         read_s > 0 ? static_cast<double>(read_bytes) / 1e6 / read_s : 0.0,
         "MB/s");
}

void AddSetupLayers(const System& sys, const std::vector<Span>& spans,
                    Metrics* m) {
  std::vector<double> pick_ms, clustering_ms;
  for (const Span& s : spans) {
    if (s.kind != SpanKind::kPick) continue;
    pick_ms.push_back(s.ms());
    clustering_ms.push_back(static_cast<double>(s.detail) / 1e6);
  }
  const stats::StorageReport report = sys.stats->ComputeStorageReport();
  m->Set("core.pick_ms", Median(pick_ms), "ms");
  m->Set("core.pick_clustering_ms", Median(clustering_ms), "ms");
  m->Set("core.training_data_s", sys.training_data_s, "s");
  m->Set("core.train_s", sys.train_s, "s");
  m->Set("workload.generate_s", sys.generate_s, "s");
  m->Set("io.spill_s", sys.spill_s, "s");
  m->Set("io.spill_mb_per_s",
         static_cast<double>(sys.spill_bytes) / 1e6 / sys.spill_s, "MB/s");
  m->Set("stats.build_s", sys.build_s, "s");
  m->Set("stats.histogram_kb", report.histogram_kb, "KB");
  m->Set("stats.heavy_hitter_kb", report.heavy_hitter_kb, "KB");
  m->Set("stats.akmv_kb", report.akmv_kb, "KB");
  m->Set("stats.measure_kb", report.measure_kb, "KB");
  m->Set("ingest.rows_per_s",
         static_cast<double>(kRows) / (sys.spill_s + sys.build_s), "rows/s");
  m->Set("trace.spans", static_cast<double>(spans.size()), "count");
}

void WriteTrace(const Args& args) {
  std::filesystem::create_directories(args.trace_dir);
  const std::string path =
      args.trace_dir + "/trace-" + args.workload_name + ".tsv";
  if (!Tracer::Get().WriteTsv(path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

Outcome RunQueryWorkload(const Args& args) {
  const bool approx = args.workload == Workload::kApproxPs3;
  const bool warm = args.workload == Workload::kWarmExact;
  if (args.trace) Tracer::Get().Enable();
  System sys;
  sys.work_dir = args.work_dir;
  // cold_exact / approx_ps3: a quarter of the stream's referenced bytes,
  // so every pass over the table misses. warm_exact: room for the table.
  SetUp(&sys, args, approx || args.trace, [warm](const System& s) {
    return warm ? 2 * s.table_bytes : s.referenced_bytes / 4;
  });
  QueryStream stream(&sys, approx);
  StreamRun warm_up;
  if (warm) {
    warm_up = RunStreams(kQueries, 0.0, 1, stream.Op(args.trace));
    Check(warm_up.failed == 0, "warm-up queries failed");
  }
  const double setup_s = Seconds(ProcessStart());

  Outcome out;
  std::vector<query::QueryAnswer> ref;
  double random_rel_error = 0.0;
  if (!args.trace) {
    const Counters before = Snapshot(sys);
    const StreamRun run =
        RunStreams(kQueries, args.seconds, kAllRounds, stream.Op(false));
    const Counters after = Snapshot(sys);
    out.attempted = run.ops.size();
    out.failed = run.failed;
    SetEndToEnd(setup_s, run, static_cast<double>(sys.spill_bytes) / kRows,
                sys.stats->ComputeStorageReport().total_kb * 1024.0,
                &out.metrics);
    if (warm) {
      Check(after.cache.misses == before.cache.misses,
            "warm_exact missed the cache after warm-up");
    }
    ref = ReferenceAnswers(sys, &random_rel_error);
    stream.CheckRun(warm_up, ref);
    stream.CheckRun(run, ref);
  } else {
    // An untraced half and then one traced round over the same store and
    // stream: the per-layer numbers come from the traced round, and its
    // p50 gap to the untraced half is the tracing overhead.
    const Counters c0 = Snapshot(sys);
    const StreamRun plain =
        RunStreams(kQueries, args.seconds / 2, kAllRounds, stream.Op(false));
    const Counters c1 = Snapshot(sys);
    const StreamRun traced = RunStreams(kQueries, 0.0, 1, stream.Op(true));
    const Counters c2 = Snapshot(sys);
    out.attempted = plain.ops.size() + traced.ops.size();
    out.failed = plain.failed + traced.failed;
    if (warm) {
      Check(c2.cache.misses == c0.cache.misses,
            "warm_exact missed the cache after warm-up");
    }
    ref = ReferenceAnswers(sys, &random_rel_error);
    stream.CheckRun(warm_up, ref);
    stream.CheckRun(plain, ref);
    stream.CheckRun(traced, ref);
    CheckSameFlow(Flow(c0, c1, plain.ops.size()),
                  Flow(c1, c2, traced.ops.size()));
    AddProbeLayers(sys, ref, approx, &out.metrics);
    if (approx) {
      out.metrics.Set("core.rel_error", stream.MeanRelError(ref), "ratio");
    }
    out.metrics.Set("core.rel_error_random", random_rel_error, "ratio");
    const std::vector<Span> spans = Tracer::Get().Collect();
    AddQueryLayers(traced, c1, c2, spans, &out.metrics);
    AddSetupLayers(sys, spans, &out.metrics);
    const double plain_p50 = Median(plain.LatenciesMs());
    out.metrics.Set("trace.overhead_pct",
                    (Median(traced.LatenciesMs()) / plain_p50 - 1.0) * 100.0,
                    "%");
    WriteTrace(args);
  }
  if (approx) CheckPickQuality(stream.MeanRelError(ref), random_rel_error);
  CheckControls(sys, ref, approx);
  return out;
}

}  // namespace perfbench
