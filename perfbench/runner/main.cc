// perfbench_runner: runs one benchmark workload and prints its metrics.
//
//   perfbench_runner --workload serve-light|serve-genome|batch-graph
//                    --seed N --seconds S --trace 0|1
//                    --bin_dir DIR --work_dir DIR
//
// --trace 0 runs the workload end to end; --trace 1 runs the per-layer
// suite instead (see perfbench/README.md). The last stdout line is the
// result object {"correct", "attempted", "failed", "metrics"}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

using perfbench::Args;
using perfbench::Outcome;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--bin_dir") {
      args->bin_dir = value;
    } else if (flag == "--work_dir") {
      args->work_dir = value;
    } else {
      std::fprintf(stderr, "perfbench_runner: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return (args->workload == "serve-light" || args->workload == "serve-genome" ||
          args->workload == "batch-graph") &&
         args->seconds > 0 && !args->bin_dir.empty() && !args->work_dir.empty();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload serve-light|serve-genome|batch-graph "
                 "--seed N --seconds S --trace 0|1 --bin_dir DIR --work_dir DIR\n");
    return 2;
  }
  Outcome out;
  if (args.trace) {
    out = perfbench::RunLayers(args);
  } else if (args.workload == "serve-light") {
    out = perfbench::RunServeLight(args);
  } else if (args.workload == "serve-genome") {
    out = perfbench::RunServeGenome(args);
  } else {
    out = perfbench::RunBatchGraph(args);
  }

  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  std::printf("%-44s %16s  %-6s %10s\n", "metric", "value", "unit", "samples");
  for (const perfbench::Metric& m : out.metrics) {
    std::printf("%-44s %16.6g  %-6s %10llu\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.calls));
    if (!std::isfinite(m.value)) out.Problem("metric " + m.name + " is not finite");
  }
  for (const std::string& problem : out.problems) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
  const uint64_t succeeded = out.attempted > out.failed ? out.attempted - out.failed : 0;
  std::printf("ops: attempted %llu, succeeded %llu, failed %llu; %s\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(succeeded),
              static_cast<unsigned long long>(out.failed),
              out.correct() ? "all oracles and run guards passed" : "RUN INVALID");

  std::string line = "{\"correct\": " + std::string(out.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    line += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " +
            perfbench::FormatDouble(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}
