// perfbench: the repository benchmark's program.
//
//   perfbench gen --dir D
//       Generates the graph inputs (full BibNet snapshot, 95% prefix base,
//       prefix-growth deltas) into the existing directory D.
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --inputs D
//                 [--spans-out F]
//       Runs workload W on the inputs in D and prints one JSON run record.
//
// perfbench/run.py builds this binary, makes the inputs once and
// turns the run record into the benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --dir D\n"
               "       perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --inputs D [--spans-out F]\n");
  return 2;
}

bool ParseFlags(int argc, char** argv,
                std::map<std::string, std::string>* out) {
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    (*out)[flag.substr(2)] = argv[i + 1];
  }
  return true;
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage();
  if (command == "gen") {
    if (flags["dir"].empty()) return Usage();
    return perfbench::GenerateInputs(flags["dir"]);
  }
  if (command != "run") return Usage();
  uint64_t seed = 0;
  if (!ParseUint(flags["seed"], &seed)) return Usage();

  perfbench::RunOptions options;
  options.workload = flags["workload"];
  options.seed = seed;
  uint64_t seconds = 0;
  if (!ParseUint(flags["seconds"], &seconds) || seconds == 0) return Usage();
  options.seconds = static_cast<double>(seconds);
  const std::string trace = flags["trace"];
  if (trace != "0" && trace != "1") return Usage();
  options.trace = trace == "1";
  options.inputs.dir = flags["inputs"];
  if (options.inputs.dir.empty()) return Usage();
  options.spans_out = flags["spans-out"];

  perfbench::Report report;
  const int rc = perfbench::RunWorkload(options, &report);
  if (rc != 0) return rc;
  report.Info("compiler", PERFBENCH_COMPILER);
  report.Info("build_type", PERFBENCH_BUILD_TYPE);
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
