// wfbench: the layer-resolved benchmark driver. One process runs one
// workload in a closed loop (each request waits for the previous one) and
// prints one JSON record as its last stdout line. See ../README.md.
//
//   wfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--workdir <dir>]
//   wfbench --selftest
//   wfbench --meta
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

#ifndef WFBENCH_COMPILER
#define WFBENCH_COMPILER "unknown"
#endif
#ifndef WFBENCH_BUILD_TYPE
#define WFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: wfbench --workload <assim_cycle|risk_products|"
               "serve_fleet|coupled_ensemble> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>] | --selftest | --meta\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wfbench;
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") return run_selftest();
    if (k == "--meta") {
      std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\", "
                  "\"nproc\": %d}\n",
                  WFBENCH_COMPILER, WFBENCH_BUILD_TYPE, nproc());
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--workdir") a.workdir = v;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!(a.seconds > 0)) return usage();

  Result r;
  try {
    if (a.workload == "assim_cycle") r = run_assim_cycle(a);
    else if (a.workload == "risk_products") r = run_risk_products(a);
    else if (a.workload == "serve_fleet") r = run_serve_fleet(a);
    else if (a.workload == "coupled_ensemble") r = run_coupled_ensemble(a);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wfbench: %s aborted: %s\n", a.workload.c_str(),
                 e.what());
    return 1;
  }
  r.complete(a.trace);
  for (Metric& m : r.metrics) {
    if (!valid_metric_name(m.name)) r.check(false, "metric name " + m.name);
    if (!std::isfinite(m.value)) {
      r.check(false, "non-finite metric " + m.name);
      m.value = 0;
    }
  }
  r.print();
  return 0;
}
