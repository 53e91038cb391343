//===- CompileZoo.cpp - Workload compile_zoo ------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
// Repeated passes over a fixed program set, one closed-loop caller: each
// pass builds the five Table 3 networks and compiles each in EVA and CHET
// mode, then builds and compiles the six Table 8 applications. No keys and
// no execution. Every compiled program must pass verifyCompiled, and its
// serialized bytes must be identical in every pass (the compiler is
// deterministic). The traced run also times a pass with the pass-sandwich
// verifier off and the dataflow analyzer over every compiled program.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "eva/core/Analysis.h"
#include "eva/serialize/ProtoIO.h"
#include "eva/tensor/Network.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <thread>

using namespace eva;

namespace evabench {
namespace {

/// Table 3 order, as makeAllNetworks returns them.
const char *const kNetKeys[] = {"lenet5_small", "lenet5_medium",
                                "lenet5_large", "industrial",
                                "squeezenet_cifar"};
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 20;

struct Compiled {
  std::string Key; ///< <program>.<mode>
  CompiledProgram CP;
};

uint64_t digest(const CompiledProgram &CP) {
  std::string Params = std::to_string(CP.PolyDegree) + "/" +
                       std::to_string(CP.TotalModulusBits) + "/";
  for (int B : CP.BitSizes)
    Params += std::to_string(B) + ",";
  Params += "/";
  for (uint64_t S : CP.RotationSteps)
    Params += std::to_string(S) + ",";
  return std::hash<std::string>()(serializeProgram(*CP.Prog)) ^
         (std::hash<std::string>()(Params) * 1099511628211ull);
}

/// One pass over the set. \p VerifyPasses is CompilerOptions::VerifyPasses
/// (-1: the program's default).
void compilePass(const std::vector<NetworkDefinition> &Nets, int VerifyPasses,
                 Tracer &T, uint64_t Parent, uint64_t Req, RawResult &R,
                 std::vector<Compiled> &Out) {
  auto Compile = [&](const Program &P, const std::string &Key,
                     CompilerOptions Opts) {
    Opts.VerifyPasses = VerifyPasses;
    std::string Name = "core.compile." + Key;
    Span S(T, Name.c_str(), Parent, Req);
    Expected<CompiledProgram> CP = compile(P, Opts);
    S.end();
    ++R.Attempted;
    if (!CP) {
      R.fail(Key + ": compile: " + CP.message());
      return;
    }
    Out.push_back({Key, std::move(*CP)});
  };
  for (size_t I = 0; I < Nets.size(); ++I) {
    std::unique_ptr<Program> P;
    {
      Span S(T, "tensor.build", Parent, Req);
      P = Nets[I].buildProgram(TensorScales());
    }
    Compile(*P, std::string(kNetKeys[I]) + ".eva", CompilerOptions::eva());
    Compile(*P, std::string(kNetKeys[I]) + ".chet", CompilerOptions::chet());
  }
  for (const AppBuilder &A : tableEightApps()) {
    std::unique_ptr<Program> P;
    {
      Span S(T, "frontend.build", Parent, Req);
      P = A.Build();
    }
    Compile(*P, std::string(A.Key) + ".eva", CompilerOptions::eva());
  }
}

/// The untimed checks of one pass: verifier verdicts and byte-identity
/// with the first pass. They run between timed passes on every core, so a
/// run measures more passes.
void checkPass(const std::vector<Compiled> &Pass, size_t Threads,
               std::map<std::string, uint64_t> &FirstDigest, RawResult &R) {
  std::vector<Status> Verdicts(Pass.size(), Status::success());
  std::vector<uint64_t> Digests(Pass.size(), 0);
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Workers;
  for (size_t T = 0; T < std::min(Threads, Pass.size()); ++T)
    Workers.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < Pass.size();) {
        Verdicts[I] = verifyCompiled(Pass[I].CP);
        Digests[I] = digest(Pass[I].CP);
      }
    });
  for (std::thread &W : Workers)
    W.join();
  for (size_t I = 0; I < Pass.size(); ++I) {
    const std::string &Key = Pass[I].Key;
    if (!Verdicts[I].ok()) {
      R.fail(Key + ": verifyCompiled: " + Verdicts[I].message());
      continue;
    }
    auto [It, Fresh] = FirstDigest.emplace(Key, Digests[I]);
    if (!Fresh && It->second != Digests[I])
      R.fail(Key + ": compiled bytes differ between passes");
  }
}

void recordCounts(const std::vector<Compiled> &Pass, RawResult &R) {
  for (const Compiled &C : Pass) {
    size_t Dot = C.Key.rfind(".eva");
    if (Dot == std::string::npos || Dot + 4 != C.Key.size())
      continue;
    std::string Prog = C.Key.substr(0, Dot);
    R.Values["core.nodes." + Prog] = static_cast<double>(C.CP.Prog->nodeCount());
    R.Values["core.log2_n." + Prog] =
        std::log2(static_cast<double>(C.CP.PolyDegree));
    R.Values["core.modulus_bits." + Prog] = C.CP.TotalModulusBits;
    R.Values["core.rotation_keys." + Prog] =
        static_cast<double>(C.CP.RotationSteps.size());
  }
}

} // namespace

int runCompileZoo(const RunOptions &O, Tracer &T, RawResult &R) {
  // Set-up: the network definitions (weights drawn from the seed and
  // calibrated on a probe image).
  std::vector<NetworkDefinition> Nets;
  int Repeats = O.Trace ? 1 : kSetupRepeats;
  for (int I = 0; I < Repeats; ++I) {
    Nets.clear();
    double Start = nowSeconds();
    {
      Span S(T, "tensor.define");
      Nets = makeAllNetworks(O.Seed);
    }
    R.sample("setup_s", nowSeconds() - Start);
  }
  if (Nets.size() != std::size(kNetKeys)) {
    std::fprintf(stderr, "evabench: expected %zu networks, got %zu\n",
                 std::size(kNetKeys), Nets.size());
    return 1;
  }

  std::map<std::string, uint64_t> FirstDigest;
  Tracer Off(false);
  // Samples <Kind>_wall_s and <Kind>_cpu_s per pass.
  auto Pass = [&](int VerifyPasses, Tracer &PT, const char *Root,
                  const std::string &Kind) {
    std::vector<Compiled> Out;
    double Cpu0 = selfCpuSeconds(), T0 = nowSeconds();
    uint64_t Req = T.newId();
    {
      // The pass itself is always a span of the run's tracer; its children
      // only when \p PT is that tracer.
      Span S(T, Root, 0, Req);
      compilePass(Nets, VerifyPasses, PT, S.id(), Req, R, Out);
    }
    R.sample(Kind + "_wall_s", nowSeconds() - T0);
    R.sample(Kind + "_cpu_s", selfCpuSeconds() - Cpu0);
    // Peak memory of set-up plus one full pass, read before the checks
    // (which hold several serialized programs at once) can raise it.
    if (!R.Values.count("peak_rss_kb"))
      R.Values["peak_rss_kb"] =
          static_cast<double>(procStatusField(0, "VmHWM"));
    checkPass(Out, O.Threads, FirstDigest, R);
    return Out;
  };

  // One warm-up pass (the allocator's first growth), checked but not timed.
  Pass(-1, Off, "request.warmup", "warmup");

  if (!O.Trace) {
    double Start = nowSeconds();
    do
      Pass(-1, Off, "request", "op");
    while (nowSeconds() - Start < O.Seconds);
  } else {
    // Untraced passes at the default and with the verifier sandwich off,
    // interleaved with traced passes.
    std::vector<Compiled> Last;
    for (int I = 0; I < 2; ++I) {
      Pass(-1, Off, "request.untraced", "op");
      Pass(0, Off, "request.noverify", "noverify");
      Last = Pass(-1, T, "request", "traced");
    }
    recordCounts(Last, R);
    for (Compiled &C : Last) {
      Span S(T, "core.analyze");
      AnalysisOptions AO;
      AO.SfBits = C.CP.Options.SfBits;
      AO.PolyDegree = C.CP.PolyDegree;
      Expected<AnalysisResult> AR = analyzeProgram(*C.CP.Prog, AO);
      S.end();
      ++R.Attempted;
      if (!AR)
        R.fail(C.Key + ": analyzeProgram: " + AR.message());
    }
  }
  return 0;
}

} // namespace evabench
