// perfbench --workload <name> --seed <n> --dir <scratch dir>
//           [--seconds <s>] [--trace 0|1] [--setup-only]
//
// One process, one run. run.py wraps it (build, repeated set-ups, result
// line); see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload <name> --seed <n> --dir <dir> "
               "[--seconds <s>] [--trace 0|1] [--setup-only]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      config.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0)) return Usage("bad --seconds");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      config.trace = value == "1";
    } else if (arg == "--dir") {
      config.dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (config.workload.empty()) return Usage("--workload is required");
  if (!have_seed) return Usage("--seed is required");
  if (config.dir.empty()) return Usage("--dir is required");
  return perfbench::RunBenchmark(config);
}
