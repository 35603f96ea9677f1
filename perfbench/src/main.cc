// perfbench: one workload per invocation.
//
//   perfbench --workload cold_exact|warm_exact|approx_ps3
//             --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-dir DIR]
//
// Prints one JSON object as the last line of standard output:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones. A failed output
// check exits with code 1, a usage error with code 2. Spilled stores go to
// a new directory run-<pid> under --work-dir, which the run creates and
// removes; nothing else under --work-dir is touched.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

#include "bench.h"

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cold_exact|warm_exact|approx_ps3 --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

uint64_t ParseUnsigned(const std::string& flag, const std::string& text) {
  if (text.empty() || text.size() > 18 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    Usage("bad value for " + flag + ": " + text);
  }
  return std::stoull(text);
}

perfbench::Args Parse(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload_name = value;
      have_workload = true;
      if (value == "cold_exact") {
        args.workload = perfbench::Workload::kColdExact;
      } else if (value == "warm_exact") {
        args.workload = perfbench::Workload::kWarmExact;
      } else if (value == "approx_ps3") {
        args.workload = perfbench::Workload::kApproxPs3;
      } else {
        Usage("unknown workload " + value);
      }
    } else if (flag == "--seed") {
      args.seed = ParseUnsigned(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      const uint64_t s = ParseUnsigned(flag, value);
      if (s < 1 || s > 600) Usage("--seconds must be in [1, 600]");
      args.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed) Usage("--workload and --seed are required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::ProcessStart();
  perfbench::Args args = Parse(argc, argv);
  // A fresh directory of this run's own: refuse one that already exists
  // rather than write into (and later remove) what another run left.
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  const std::filesystem::path own =
      std::filesystem::path(args.work_dir) /
      ("run-" + std::to_string(static_cast<long long>(getpid())));
  if (ec || !std::filesystem::create_directory(own, ec) || ec) {
    std::fprintf(stderr, "perfbench: cannot create a new directory %s\n",
                 own.string().c_str());
    return 2;
  }
  args.work_dir = own.string();
  perfbench::Outcome out = perfbench::RunQueryWorkload(args);
  std::filesystem::remove_all(own);
  // Operations that failed are counted, and the answers of the others were
  // checked (a failed check exits before this point).
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.metrics.Json().c_str());
  return 0;
}
