//===----------------------------------------------------------------------===//
//
// Part of the convgen benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench: runs one workload and prints one JSON result line
///
///   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
///
/// with every end-to-end metric (--trace 0) or every per-layer metric
/// (--trace 1). perfbench/run.py builds this binary, isolates its cache
/// and environment, and is the command to run; see perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload table3|service_mix|tensor3_csf "
               "--seed N --seconds S --trace 0|1 --cache-root DIR\n"
               "                 [--spans-out FILE] [--tiny] "
               "[--corrupt-oracle]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--tiny") {
      Cfg.Tiny = true;
    } else if (Arg == "--corrupt-oracle") {
      Cfg.CorruptOracle = true;
    } else if (!(V = value())) {
      return usage(("missing value for " + Arg).c_str());
    } else if (Arg == "--workload") {
      Cfg.Workload = V;
    } else if (Arg == "--seed") {
      Cfg.Seed = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--seconds") {
      Cfg.Seconds = std::atof(V);
    } else if (Arg == "--trace") {
      Cfg.Trace = std::strcmp(V, "0") != 0;
    } else if (Arg == "--cache-root") {
      Cfg.CacheRoot = V;
    } else if (Arg == "--spans-out") {
      Cfg.SpansOut = V;
    } else {
      return usage(("unknown argument " + Arg).c_str());
    }
  }
  if (Cfg.CacheRoot.empty() || !(Cfg.Seconds > 0))
    return usage("--cache-root and --seconds > 0 are required");
  if (!convgen::jit::jitAvailable()) {
    std::fprintf(stderr, "perfbench: no working C compiler for the JIT\n");
    return 1;
  }

  Tally Ops;
  Outcome Out;
  if (Cfg.Workload == "table3")
    Out = runTable3(Cfg, Ops);
  else if (Cfg.Workload == "service_mix")
    Out = runServiceMix(Cfg, Ops);
  else if (Cfg.Workload == "tensor3_csf")
    Out = runTensor3(Cfg, Ops);
  else
    return usage(("unknown workload '" + Cfg.Workload + "'").c_str());

  uint64_t Attempted = Ops.Attempted, Failed = Ops.Failed;
  Out.PerLayer.set("fail_frac",
                   Attempted ? static_cast<double>(Failed) /
                                   static_cast<double>(Attempted)
                             : 1.0);
  bool Correct = Out.Correct && Failed == 0 && Attempted > 0;
  for (const std::string &P : Out.Problems)
    std::fprintf(stderr, "perfbench: %s: %s\n", Cfg.Workload.c_str(),
                 P.c_str());

  // Every metric of the run's kind, in table order. One the workload never
  // set prints as NaN, and run.py rejects the result.
  const Metrics &From = Cfg.Trace ? Out.PerLayer : Out.EndToEnd;
  Metrics Printed;
  for (const auto &[Name, Unit] :
       Cfg.Trace ? perLayerMetrics() : endToEndMetrics())
    Printed.set(Name, From.get(Name));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              Printed.json().c_str());
  return 0;
}
