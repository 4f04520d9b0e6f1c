#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "oracle.h"
#include "workload.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured closed loop (split in two halves when traced).
  double seconds = 10.0;
  /// false: end-to-end metrics. true: per-layer metrics from a traced run.
  bool trace = false;
  /// Directory the traced run writes its span and layer file into.
  std::string out_dir = ".bench_out";
  /// Recorded in the result metadata.
  std::string commit = "unknown";
};

/// What a closed loop ran.
struct LoopOutput {
  std::vector<Executed> executed;
  double wall_seconds = 0.0;
};

/// Runs `streams.size()` client threads in a closed loop for `seconds`:
/// each generates its next step, runs it through the principal's session,
/// and records latency and outcome. Writing steps hold a client-side
/// exclusive lock and reads a shared one, so no read runs beside a write.
LoopOutput RunClosedLoop(const Workload& workload, Env& env,
                         std::vector<ClientStream>& streams, double seconds);

/// Runs one benchmark invocation: prints a metadata line and, as the last
/// line, the result object. Returns the process exit code.
int RunBenchmark(const RunOptions& options, std::ostream& out);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
