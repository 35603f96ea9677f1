// Set-up shared by every workload: generate, spill, build statistics,
// optionally train the picker, and open the serving stack.
#include <cmath>
#include <cstring>
#include <filesystem>
#include <thread>
#include <utility>

#include "bench.h"
#include "common/hash.h"
#include "common/random.h"
#include "core/ps3_trainer.h"
#include "core/random_picker.h"
#include "core/training_data.h"
#include "query/compiler.h"
#include "query/metrics.h"
#include "stats/stats_builder.h"
#include "trace.h"
#include "workload/datasets.h"
#include "workload/generator.h"

namespace perfbench {

using namespace ps3;

System::~System() {
  source.reset();
  prefetch.reset();
  scheduler.reset();
  store.reset();
}

query::ExecOptions System::Exec() const {
  query::ExecOptions opts;
  opts.policy = query::ExecPolicy::kVectorized;
  opts.num_threads = kLanesPerQuery;
  return opts;
}

stats::StatsOptions System::StatsOpts(int threads) const {
  stats::StatsOptions opts;
  for (const auto& name : bundle.spec.groupby_columns) {
    opts.grouping_columns.push_back(
        static_cast<size_t>(table->schema().FindColumn(name)));
  }
  opts.num_threads = threads;
  return opts;
}

uint64_t System::PickSeed(size_t i) const {
  return Mix64(seed * 0x100000001B3ULL + i);
}

void SetUp(System* sys, const Args& args, bool train,
           const std::function<size_t(const System&)>& cache_budget) {
  sys->seed = args.seed;
  // The query workloads serve a fixed table, picker and set of distinct
  // queries; the seed draws the order of the stream (hence which queries
  // run side by side and what the cache holds) and every pick. A random
  // set's tail latency is set by its ten or so heaviest queries and moves
  // by a fifth from one set to the next, which would hide any change to
  // the engine.
  Clock::time_point t = Clock::now();
  sys->bundle = workload::MakeTpchStar(kRows, kDataSeed);
  auto sorted = sys->bundle.table->SortedBy(sys->bundle.default_sort);
  Check(sorted.ok(), "sorting the generated table");
  sys->table = std::make_shared<storage::Table>(std::move(sorted).value());
  sys->parts = std::make_unique<storage::PartitionedTable>(sys->table,
                                                           kPartitions);
  workload::QueryGenerator gen(sys->table.get(), sys->bundle.spec);
  sys->queries = gen.GenerateSet(kQueries, Mix64(kDataSeed ^ 0x51ULL));
  Check(sys->queries.size() == kQueries, "generating distinct queries");
  RandomEngine order(Mix64(args.seed ^ 0x0DULL));
  for (size_t i = sys->queries.size() - 1; i > 0; --i) {
    std::swap(sys->queries[i], sys->queries[order.NextUint64(i + 1)]);
  }
  std::vector<query::Query> train_queries =
      gen.GenerateSet(kTrainQueries, Mix64(kDataSeed ^ 0x7AULL));
  for (const auto& q : sys->queries) {
    sys->query_columns.push_back(
        query::ReferencedColumns(query::CompileQuery(q)));
  }
  sys->generate_s = Seconds(t);

  sys->spill_dir = sys->work_dir + "/store";
  {
    ScopedSpan span(SpanKind::kSpill, 0, 0);
    t = Clock::now();
    const Status st = io::PartitionStore::Spill(*sys->parts, sys->spill_dir);
    sys->spill_s = Seconds(t);
    Check(st.ok(), "spilling the table: " + st.ToString());
  }
  sys->spill_bytes = DirectoryBytes(sys->spill_dir);
  {
    ScopedSpan span(SpanKind::kBuild, 0, 0);
    t = Clock::now();
    sys->stats = std::make_unique<stats::TableStats>(
        stats::StatsBuilder(sys->StatsOpts(0)).Build(*sys->parts));
    sys->build_s = Seconds(t);
  }
  // The served picker featurizes on the query's own lanes, so a pick
  // uses no more lanes than the scan that follows it.
  sys->featurizer = std::make_unique<featurize::Featurizer>(
      sys->table->schema(), sys->stats.get(), kLanesPerQuery);
  sys->ctx = core::PickerContext{sys->parts.get(), sys->stats.get(),
                                 sys->featurizer.get()};
  if (train) {
    t = Clock::now();
    core::TrainingData data =
        core::BuildTrainingData(sys->ctx, std::move(train_queries));
    sys->training_data_s = Seconds(t);
    t = Clock::now();
    core::Ps3Options opts;
    opts.feature_selection.restarts = 1;
    opts.feature_selection.eval_queries = 5;
    sys->model =
        std::make_unique<core::Ps3Model>(core::TrainPs3(sys->ctx, data, opts));
    sys->train_s = Seconds(t);
  }

  // Decoded sizes from the manifest: the whole table, and the columns the
  // stream references (the cache budget is set against these).
  {
    auto probe = io::PartitionStore::Open(sys->spill_dir, {});
    Check(probe.ok(), "opening the spilled store");
    std::vector<bool> referenced(sys->table->num_columns(), false);
    for (const auto& cols : sys->query_columns) {
      for (size_t c : cols.Resolve(sys->table->num_columns())) {
        referenced[c] = true;
      }
    }
    for (size_t p = 0; p < kPartitions; ++p) {
      for (size_t c = 0; c < sys->table->num_columns(); ++c) {
        const size_t b = (*probe)->column_bytes(p, c);
        sys->table_bytes += b;
        if (referenced[c]) sys->referenced_bytes += b;
      }
    }
  }
  io::PartitionStore::Options store_opts;
  store_opts.cache_budget_bytes = cache_budget(*sys);
  auto store = io::PartitionStore::Open(sys->spill_dir, store_opts);
  Check(store.ok(), "opening the spilled store");
  sys->store = std::move(store).value();
  runtime::QueryScheduler::Options sched_opts;
  sched_opts.num_drivers = kStreams;
  sys->scheduler = std::make_unique<runtime::QueryScheduler>(sched_opts);
  sys->prefetch = std::make_unique<io::PrefetchPipeline>(sys->store.get(),
                                                         sys->scheduler.get());
  sys->source = std::make_unique<io::ColdShardedSource>(
      sys->store.get(), kShards, storage::ShardAssignment::kRange,
      sys->prefetch.get());
}

size_t CheckRoundTrip(const std::string& dir, const storage::Table& table) {
  auto store = io::PartitionStore::Open(dir, {});
  Check(store.ok(), "reopening the store in " + dir);
  size_t row = 0;
  for (size_t p = 0; p < (*store)->num_partitions(); ++p) {
    const size_t n = (*store)->partition_rows(p);
    auto pinned = (*store)->Fetch(p);
    Check(pinned.ok(), "fetching a spilled partition");
    const storage::Partition& view = pinned->view();
    Check(view.num_rows() == n && row + n <= table.num_rows(),
          "spilled partition row count");
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const storage::Column& src = table.column(c);
      const bool same =
          src.is_numeric()
              ? std::memcmp(view.NumericSpan(c), src.NumericSpan(row),
                            n * sizeof(double)) == 0
              : std::memcmp(view.CodeSpan(c), src.CodeSpan(row),
                            n * sizeof(int32_t)) == 0;
      Check(same, "spilled values do not round-trip bit-identically");
    }
    row += n;
  }
  return row;
}

size_t StatsRows(const stats::TableStats& stats) {
  size_t rows = 0;
  for (size_t p = 0; p < stats.num_partitions(); ++p) {
    rows += stats.partition(p).num_rows;
  }
  return rows;
}

std::vector<query::QueryAnswer> ReferenceAnswers(const System& sys,
                                                 double* random_rel_error) {
  // Resident, scalar, one lane per query: a path that shares no code with
  // the store, cache, prefetch, scheduler or SIMD kernels. Queries are
  // spread over a few threads only to shorten the check.
  std::vector<query::QueryAnswer> out(sys.queries.size());
  std::vector<double> random_err(sys.queries.size());
  const core::RandomPicker random(sys.ctx);
  constexpr int kThreads = kStreams * kLanesPerQuery;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      query::ExecOptions opts;
      opts.policy = query::ExecPolicy::kScalar;
      opts.num_threads = 1;
      for (size_t i = t; i < sys.queries.size(); i += kThreads) {
        const query::Query& q = sys.queries[i];
        const std::vector<query::PartitionAnswer> partials =
            query::EvaluateAllPartitions(q, *sys.parts, opts);
        out[i] = query::ExactAnswer(q, partials);
        RandomEngine rng(sys.PickSeed(i));
        core::Selection sel = random.Pick(q, PickBudget(), &rng, nullptr);
        query::CanonicalizeSelection(&sel.parts);
        random_err[i] =
            query::ComputeErrorMetrics(
                q, out[i], query::CombineWeighted(q, partials, sel.parts))
                .avg_rel_error;
      }
    });
  }
  for (auto& th : threads) th.join();
  double sum = 0.0;
  for (double e : random_err) sum += e;
  *random_rel_error = sum / static_cast<double>(random_err.size());
  return out;
}

}  // namespace perfbench
