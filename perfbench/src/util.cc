#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/hash.h"

namespace perfbench {

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

Clock::time_point ProcessStart() { return kProcessStart; }

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

uint64_t Digest(const ps3::query::QueryAnswer& answer) {
  // Sum of per-group hashes: independent of the map's iteration order.
  uint64_t sum = ps3::Mix64(answer.size());
  for (const auto& [key, values] : answer) {
    uint64_t h = ps3::Mix64(key.size() + 0x51ED27ULL);
    for (int64_t k : key) h = ps3::HashCombine(h, ps3::HashInt(k));
    for (double v : values) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      h = ps3::HashCombine(h, ps3::Mix64(bits));
    }
    sum += ps3::Mix64(h);
  }
  return sum;
}

bool SameBits(const ps3::query::QueryAnswer& a,
              const ps3::query::QueryAnswer& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [key, values] : a) {
    auto it = b.find(key);
    if (it == b.end() || it->second.size() != values.size()) return false;
    if (std::memcmp(values.data(), it->second.data(),
                    values.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

std::string Metrics::Json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vu] : values_) {
    if (!std::isfinite(vu.first)) Fail("metric " + name + " is not finite");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", vu.first);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  return out + "}";
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::vector<double> StreamRun::LatenciesMs() const {
  std::vector<double> out;
  out.reserve(ops.size());
  for (const OpRecord& r : ops) {
    if (!r.failed) out.push_back(r.latency_ms);
  }
  return out;
}

Summary StreamRun::Summarize() const {
  // Full windows only; a run shorter than one window is one window.
  const size_t n_windows = std::max<size_t>(1, ops.size() / kWindowOps);
  const size_t per = ops.size() < kWindowOps ? ops.size() : kWindowOps;
  std::vector<double> p50, p99, rate;
  double window_start = 0.0;
  for (size_t w = 0; w < n_windows; ++w) {
    std::vector<double> lat;
    size_t done = 0;
    for (size_t k = w * per; k < (w + 1) * per; ++k) {
      if (ops[k].failed) continue;
      lat.push_back(ops[k].latency_ms);
      ++done;
    }
    const double window_end = ops[(w + 1) * per - 1].end_s;
    p50.push_back(Percentile(lat, 0.50));
    p99.push_back(Percentile(lat, 0.99));
    rate.push_back(static_cast<double>(done) / (window_end - window_start));
    window_start = window_end;
  }
  return Summary{Median(p50), Median(p99), Median(rate)};
}

void SetEndToEnd(double setup_s, const StreamRun& run,
                 double disk_bytes_per_row, double stats_bytes_per_partition,
                 Metrics* m) {
  const Summary sum = run.Summarize();
  m->Set("setup_s", setup_s, "s");
  m->Set("p50_ms", sum.p50_ms, "ms");
  m->Set("p99_ms", sum.p99_ms, "ms");
  m->Set("ops_per_s", sum.ops_per_s, "1/s");
  m->Set("disk_bytes_per_row", disk_bytes_per_row, "bytes");
  m->Set("stats_bytes_per_partition", stats_bytes_per_partition, "bytes");
}

StreamRun RunStreams(size_t items, double min_seconds, size_t max_rounds,
                     const std::function<OpRecord(int, size_t)>& op) {
  std::mutex mu;
  size_t next = 0;    // guarded by mu
  bool done = false;  // guarded by mu
  const Clock::time_point start = Clock::now();
  // The stop decision is only taken on a round boundary, and nothing is
  // issued after it, so every run attempts whole rounds.
  auto take = [&](size_t* item) {
    std::lock_guard<std::mutex> lock(mu);
    if (!done && next > 0 && next % items == 0 &&
        (next / items >= max_rounds || Seconds(start) >= min_seconds)) {
      done = true;
    }
    if (done) return false;
    *item = next++ % items;
    return true;
  };
  std::atomic<int> reported{0};
  std::vector<std::vector<OpRecord>> per_stream(kStreams);
  std::vector<std::thread> threads;
  for (int s = 0; s < kStreams; ++s) {
    threads.emplace_back([&, s] {
      size_t item = 0;
      while (take(&item)) {
        OpRecord rec;
        try {
          rec = op(s, item);
        } catch (const std::exception& e) {
          if (reported.fetch_add(1) < 5) {
            std::fprintf(stderr, "perfbench: operation %zu failed: %s\n",
                         item, e.what());
          }
          rec.failed = true;
        }
        rec.item = static_cast<uint32_t>(item);
        rec.end_s = Seconds(start);
        per_stream[s].push_back(rec);
      }
    });
  }
  for (auto& t : threads) t.join();
  StreamRun run;
  for (auto& ops : per_stream) {
    for (const OpRecord& r : ops) {
      run.failed += r.failed ? 1 : 0;
      run.ops.push_back(r);
    }
  }
  std::sort(run.ops.begin(), run.ops.end(),
            [](const OpRecord& a, const OpRecord& b) {
              return a.end_s < b.end_s;
            });
  return run;
}

}  // namespace perfbench
