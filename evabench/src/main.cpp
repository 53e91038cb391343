//===- main.cpp - The end-to-end benchmark probe --------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
// Runs one workload and writes its raw measurements (samples, exact
// counts, server metric snapshots, spans) as JSON. evabench/run.py builds
// this probe, runs it, and turns the raw document into the benchmark's
// metrics.
//
// Usage:
//   evabench_probe --workload lenet_local|service_socket|compile_zoo
//                   --seed N --seconds S --trace 0|1 --out FILE
//                   [--workdir DIR] [--evaserve PATH]
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "eva/math/Simd.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sched.h>

#ifndef EVABENCH_COMPILER
#define EVABENCH_COMPILER "unknown"
#endif
#ifndef EVABENCH_BUILD_TYPE
#define EVABENCH_BUILD_TYPE "unknown"
#endif

using namespace evabench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: evabench_probe --workload W --seed N --seconds S "
               "--trace 0|1 --out FILE [--workdir DIR] [--evaserve PATH]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  // nproc: the cores this process may run on.
  cpu_set_t Cpus;
  CPU_ZERO(&Cpus);
  if (sched_getaffinity(0, sizeof(Cpus), &Cpus) == 0)
    O.Threads = std::max(1, CPU_COUNT(&Cpus));
  std::string OutPath;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const char *K = Argv[I], *V = Argv[I + 1];
    if (!std::strcmp(K, "--workload"))
      O.Workload = V;
    else if (!std::strcmp(K, "--seed"))
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (!std::strcmp(K, "--seconds"))
      O.Seconds = std::atof(V);
    else if (!std::strcmp(K, "--trace"))
      O.Trace = std::atoi(V) != 0;
    else if (!std::strcmp(K, "--out"))
      OutPath = V;
    else if (!std::strcmp(K, "--workdir"))
      O.WorkDir = V;
    else if (!std::strcmp(K, "--evaserve"))
      O.EvaservePath = V;
    else
      return usage();
  }
  if (Argc % 2 == 0 || OutPath.empty() || !(O.Seconds > 0))
    return usage();

  Tracer T(O.Trace);
  RawResult R;
  int Rc;
  if (O.Workload == "lenet_local")
    Rc = runLenetLocal(O, T, R);
  else if (O.Workload == "service_socket")
    Rc = runServiceSocket(O, T, R);
  else if (O.Workload == "compile_zoo")
    Rc = runCompileZoo(O, T, R);
  else
    return usage();
  if (Rc != 0)
    return Rc;

  R.Sections.push_back(
      "\"build\": {\"simd\": \"" +
      std::string(eva::simdLevelName(eva::activeSimdLevel())) +
      "\", \"compiler\": \"" EVABENCH_COMPILER
      "\", \"build_type\": \"" EVABENCH_BUILD_TYPE "\", \"threads\": " +
      std::to_string(O.Threads) + "}");
  std::ofstream Out(OutPath, std::ios::binary);
  Out << renderRaw(O, R, T.take());
  if (!Out) {
    std::fprintf(stderr, "evabench: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  return 0;
}
