// fgac_perfbench: one run of the end-to-end enforcement benchmark.
//
//   fgac_perfbench --workload <portal|policy|analytics|enroll> --seed <n>
//                  --seconds <s> --trace <0|1> [--out-dir <dir>]
//                  [--commit <sha>]
//
// Prints a metadata line, then the result object as the last line of
// standard output. Normally started by perfbench/run.py, which builds it.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "runner.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: fgac_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--commit <sha>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  try {
    for (int i = 1; i < argc; ++i) {
      std::string flag = argv[i];
      if (i + 1 >= argc) return Usage();
      std::string value = argv[++i];
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--out-dir") {
        opt.out_dir = value;
      } else if (flag == "--commit") {
        opt.commit = value;
      } else {
        return Usage();
      }
    }
    if (opt.workload.empty() || opt.seconds <= 0) return Usage();
    return perfbench::RunBenchmark(opt, std::cout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fgac_perfbench: %s\n", e.what());
    return 1;
  }
}
