//===- LenetLocal.cpp - Workload lenet_local ------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
// LeNet-5-small in EVA mode, one closed-loop caller: each request is one
// Runner::local (ParallelDag, one thread per core) inference on a fresh
// seeded image, checked against Runner::reference on the uncompiled
// program. The traced run splits requests into the executor's encrypt /
// execute / decrypt calls, times the 1-thread execute (the Fig. 7
// plateau), and times single CKKS ops and the NTT at the program's own
// degree and primes.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "eva/api/Runner.h"
#include "eva/runtime/CkksExecutor.h"
#include "eva/support/Random.h"
#include "eva/tensor/Network.h"

#include <algorithm>
#include <cmath>

using namespace eva;

namespace evabench {
namespace {

/// The model is fixed; the workload seed draws the images and keys.
constexpr uint64_t kWeightSeed = 2024;
/// Largest accepted absolute score error. examples/dnn_inference.cpp holds
/// a run with pinned key and noise seeds to 5e-2 and notes that an unlucky
/// draw from OS entropy (the default used here) can exceed it; measured
/// errors at the defaults reach 2^-4.9, so the bound sits one bit above.
constexpr double kScoreErrorBound = 1e-1;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 2;

struct Prepared {
  NetworkDefinition Net;
  std::unique_ptr<Program> Prog; ///< uncompiled: the reference's input
  CompiledProgram CP;
  std::shared_ptr<CkksWorkspace> WS;
  std::unique_ptr<Runner> Local;
};

/// Build, compile and keygen: everything before the first inference.
bool prepare(const RunOptions &O, Tracer &T, RawResult &R, Prepared &P,
             uint64_t KeySeed) {
  {
    Span S(T, "tensor.build");
    P.Net = makeLeNet5Small(kWeightSeed);
    P.Prog = P.Net.buildProgram(TensorScales());
  }
  {
    Span S(T, "core.compile.lenet5_small.eva");
    Expected<CompiledProgram> CP = compile(*P.Prog, CompilerOptions::eva());
    if (!CP) {
      R.fail("compile: " + CP.message());
      return false;
    }
    P.CP = std::move(*CP);
  }
  {
    Span S(T, "ckks.keygen");
    Expected<std::shared_ptr<CkksWorkspace>> WS =
        CkksWorkspace::create(P.CP, KeySeed);
    if (!WS) {
      R.fail("keygen: " + WS.message());
      return false;
    }
    P.WS = std::move(*WS);
  }
  LocalRunnerOptions Opts;
  Opts.Threads = O.Threads;
  Opts.Style = LocalStyle::ParallelDag;
  Opts.Seed = KeySeed;
  Expected<std::unique_ptr<Runner>> Run = Runner::local(P.CP, P.WS, Opts);
  if (!Run) {
    R.fail("runner: " + Run.message());
    return false;
  }
  P.Local = std::move(*Run);
  return true;
}

Valuation randomImage(const Prepared &P, RandomSource &Rng) {
  const NetworkDefinition &Net = P.Net;
  Tensor Image = Tensor::random(
      {Net.inputChannels(), Net.inputHeight(), Net.inputWidth()}, Rng);
  CipherLayout L = CipherLayout::forImage(
      Net.inputChannels(), Net.inputHeight(), Net.inputWidth());
  std::vector<double> Slots(P.Prog->vecSize(), 0.0);
  for (size_t C = 0; C < L.C; ++C)
    for (size_t Y = 0; Y < L.H; ++Y)
      for (size_t X = 0; X < L.W; ++X)
        Slots[L.slotOf(C, Y, X)] = Image.at3(C, Y, X);
  return Valuation().set("image", std::move(Slots));
}

size_t argmax(const std::vector<double> &V, size_t Count) {
  size_t Best = 0;
  for (size_t I = 1; I < Count && I < V.size(); ++I)
    if (V[I] > V[Best])
      Best = I;
  return Best;
}

/// Counts one inference: every class score must be within the bound, and
/// the predicted class must match the reference's whenever the reference's
/// two best classes are more than twice the bound apart (closer ones are
/// not decidable at the program's precision; their agreement is recorded).
/// Records its precision.
void checkScores(const Prepared &P, Runner &Reference, const Valuation &In,
                 const std::vector<double> &Got, RawResult &R) {
  Expected<Valuation> Want = Reference.run(In);
  if (!Want) {
    R.fail("reference: " + Want.message());
    return;
  }
  const std::vector<double> &W = Want->vector("scores");
  size_t K = P.Net.numClasses();
  double Err = maxAbsError(Got, W, K);
  R.sample("precision_bits", precisionBits(Err));
  // How far apart the reference's two best classes are: an error above
  // half this gap could change the predicted class.
  std::vector<double> Sorted(W.begin(), W.begin() + K);
  std::sort(Sorted.rbegin(), Sorted.rend());
  double Gap = Sorted[0] - Sorted[1];
  R.sample("reference_top2_gap", Gap);
  bool Agree = argmax(Got, K) == argmax(W, K);
  R.sample("argmax_agrees", Agree ? 1 : 0);
  if (!(Err <= kScoreErrorBound))
    R.fail("score error " + std::to_string(Err) + " above bound");
  else if (!Agree && Gap > 2 * kScoreErrorBound)
    R.fail("argmax differs from the reference");
}

void recordStats(const Prepared &P, const ExecutionStats &S, RawResult &R) {
  auto Set = [&](const char *Name, size_t V) {
    R.Values[Name] = static_cast<double>(V);
  };
  Set("runtime.rotations", S.Rotations);
  Set("runtime.hoisted_rotations", S.HoistedRotations);
  Set("runtime.keyswitch_decomps", S.KeySwitchDecompositions);
  Set("runtime.multiplies", S.Multiplies);
  Set("runtime.plain_multiplies", S.PlainMultiplies);
  Set("runtime.relins", S.Relinearizations);
  Set("runtime.rescales", S.Rescales);
  Set("runtime.modswitches", S.ModSwitches);
  Set("runtime.adds", S.Adds + S.Subs);
  Set("runtime.peak_live_bytes", S.PeakLiveBytes);
  Set("core.nodes.lenet5_small", P.CP.Prog->nodeCount());
  Set("core.log2_n.lenet5_small",
      static_cast<size_t>(std::log2(static_cast<double>(P.CP.PolyDegree))));
  Set("core.modulus_bits.lenet5_small",
      static_cast<size_t>(P.CP.TotalModulusBits));
  Set("core.rotation_keys.lenet5_small", P.CP.RotationSteps.size());
}

/// One traced request: the executor's own encrypt / execute / decrypt
/// calls, each a child span of the request.
void tracedRequest(Prepared &P, CkksExecutor &Exec, Runner &Reference,
                   const Valuation &In, Tracer &T, RawResult &R) {
  uint64_t Req = T.newId();
  Span Root(T, "request", 0, Req);
  SealedInputs Sealed;
  {
    Span S(T, "ckks.encrypt", Root.id(), Req);
    Sealed = Exec.encryptInputs(In.toMap());
  }
  std::map<std::string, Ciphertext> Outs;
  {
    Span S(T, "runtime.execute", Root.id(), Req);
    Outs = Exec.run(Sealed);
  }
  std::vector<double> Scores;
  {
    Span S(T, "ckks.decrypt", Root.id(), Req);
    Scores = Exec.decryptOutput(Outs.at("scores"));
  }
  Root.end();
  ++R.Attempted;
  checkScores(P, Reference, In, Scores, R);
}

/// One untimed, checked inference through \p Exec (first-touch
/// allocations of a fresh executor).
void warmUp(Prepared &P, CkksExecutor &Exec, Runner &Reference,
            RandomSource &Rng, RawResult &R) {
  Valuation In = randomImage(P, Rng);
  SealedInputs Sealed = Exec.encryptInputs(In.toMap());
  std::map<std::string, Ciphertext> Outs = Exec.run(Sealed);
  ++R.Attempted;
  checkScores(P, Reference, In, Exec.decryptOutput(Outs.at("scores")), R);
}

} // namespace

int runLenetLocal(const RunOptions &O, Tracer &T, RawResult &R) {
  RandomSource Rng(O.Seed * 1000003 + 17);
  std::unique_ptr<Prepared> Owned;
  int Repeats = O.Trace ? 1 : kSetupRepeats;
  for (int I = 0; I < Repeats; ++I) {
    Owned.reset(); // free the previous keys before generating new ones
    Owned = std::make_unique<Prepared>();
    double Start = nowSeconds();
    if (!prepare(O, T, R, *Owned, O.Seed + static_cast<uint64_t>(I)))
      return 1;
    R.sample("setup_s", nowSeconds() - Start);
  }
  Prepared &P = *Owned;
  std::unique_ptr<Runner> Reference = Runner::reference(*P.Prog);

  // One warm-up inference (first-touch allocations), checked but not
  // timed.
  {
    Valuation In = randomImage(P, Rng);
    Expected<Valuation> Out = P.Local->run(In);
    ++R.Attempted;
    if (!Out)
      R.fail("run: " + Out.message());
    else
      checkScores(P, *Reference, In, Out->vector("scores"), R);
  }

  if (!O.Trace) {
    // Closed loop, one caller, until the measuring time has passed.
    double Start = nowSeconds();
    do {
      Valuation In = randomImage(P, Rng);
      double Cpu0 = selfCpuSeconds(), T0 = nowSeconds();
      Expected<Valuation> Out = P.Local->run(In);
      double Wall = nowSeconds() - T0, Cpu = selfCpuSeconds() - Cpu0;
      ++R.Attempted;
      if (!Out) {
        R.fail("run: " + Out.message());
        continue;
      }
      R.sample("op_wall_s", Wall);
      R.sample("op_cpu_s", Cpu);
      checkScores(P, *Reference, In, Out->vector("scores"), R);
    } while (nowSeconds() - Start < O.Seconds);
  } else {
    // Untraced requests through the api layer (the tracing-overhead base)
    // alternate with traced ones through the same kind of executor.
    // Each executor runs once untimed first, as the runner did above.
    ParallelCkksExecutor Exec(P.CP, P.WS, O.Threads);
    warmUp(P, Exec, *Reference, Rng, R);
    for (int I = 0; I < 2; ++I) {
      Valuation In = randomImage(P, Rng);
      Expected<Valuation> Out = [&] {
        Span S(T, "api.run", 0, T.newId());
        return P.Local->run(In);
      }();
      ++R.Attempted;
      if (!Out)
        R.fail("run: " + Out.message());
      else
        checkScores(P, *Reference, In, Out->vector("scores"), R);
      tracedRequest(P, Exec, *Reference, randomImage(P, Rng), T, R);
    }
    {
      // The Fig. 7 1-thread point: same executor, one context.
      ParallelCkksExecutor Exec1(P.CP, P.WS, 1);
      warmUp(P, Exec1, *Reference, Rng, R);
      Valuation In = randomImage(P, Rng);
      SealedInputs Sealed = Exec1.encryptInputs(In.toMap());
      std::map<std::string, Ciphertext> Outs;
      {
        Span S(T, "runtime.execute_1t", 0, T.newId());
        Outs = Exec1.run(Sealed);
      }
      ++R.Attempted;
      checkScores(P, *Reference, In, Exec1.decryptOutput(Outs.at("scores")),
                  R);
      recordStats(P, Exec1.stats(), R);
    }
    timeCkksOps(P.CP, *P.WS, T, Rng);
  }
  R.Values["peak_rss_kb"] = static_cast<double>(procStatusField(0, "VmHWM"));
  return 0;
}

} // namespace evabench
