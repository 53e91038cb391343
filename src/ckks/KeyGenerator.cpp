//===- KeyGenerator.cpp - Key generation ------------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/ckks/KeyGenerator.h"

#include "eva/ckks/Galois.h"
#include "eva/support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <thread>

using namespace eva;

namespace {

/// Uniform value in [0, Bound) from raw engine output, bias-free via
/// rejection: values below 2^64 mod Bound are rejected, leaving an interval
/// whose length is a multiple of Bound.
uint64_t boundedUniform(RandomSource &Rng, uint64_t Bound) {
  uint64_t Threshold = (0 - Bound) % Bound; // 2^64 mod Bound
  for (;;) {
    uint64_t R = Rng.uniform64();
    if (R >= Threshold)
      return R % Bound;
  }
}

} // namespace

RnsPoly eva::expandUniformNtt(const CkksContext &Ctx, size_t PrimeCount,
                              uint64_t Seed) {
  assert(Seed != 0 && "seed 0 is reserved for 'not seed-derived'");
  assert(PrimeCount >= 1 && PrimeCount <= Ctx.totalPrimeCount());
  RandomSource Rng(Seed);
  uint64_t N = Ctx.polyDegree();
  RnsPoly P(N, PrimeCount);
  for (size_t C = 0; C < PrimeCount; ++C) {
    uint64_t Q = Ctx.prime(C).value();
    for (uint64_t I = 0; I < N; ++I)
      P.Comps[C][I] = boundedUniform(Rng, Q);
  }
  return P;
}

namespace {

/// splitmix64 of \p X: decorrelates the reproducible seed engine's seed
/// from the secret sampler's without sharing any stream state.
uint64_t splitMix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// Small signed coefficients -> NTT form over the first \p PrimeCount
/// primes (a negative v maps to q - |v|).
template <typename T>
RnsPoly liftSignedNtt(const CkksContext &Ctx, const std::vector<T> &Coeffs,
                      size_t PrimeCount) {
  uint64_t N = Ctx.polyDegree();
  RnsPoly P(N, PrimeCount);
  for (size_t C = 0; C < PrimeCount; ++C) {
    uint64_t Q = Ctx.prime(C).value();
    for (uint64_t I = 0; I < N; ++I) {
      int64_t V = Coeffs[I];
      P.Comps[C][I] =
          V < 0 ? Q - static_cast<uint64_t>(-V) : static_cast<uint64_t>(V);
    }
    Ctx.ntt(C).forward(P.Comps[C]);
  }
  return P;
}

} // namespace

KeyGenerator::KeyGenerator(std::shared_ptr<const CkksContext> CtxIn,
                           uint64_t Seed, bool ReproducibleExpansionSeeds)
    : Ctx(std::move(CtxIn)), Rng(Seed == 0 ? 0x5EA1C0DEull : Seed) {
  if (ReproducibleExpansionSeeds) {
    // fatalError, not assert: in a Release build a compiled-out assert
    // would silently publish the fixed splitMix64(constant) seed stream.
    if (Seed == 0)
      fatalError("reproducible expansion seeds require a nonzero seed");
    SeedRng.emplace(splitMix64(Seed ^ 0x45564153454544ull)); // "EVASEED"
  }
  Secret.S = sampleTernaryNtt(Ctx->totalPrimeCount());
}

RnsPoly KeyGenerator::sampleTernaryNtt(size_t PrimeCount) {
  std::vector<int> Coeffs(Ctx->polyDegree());
  for (int &V : Coeffs)
    V = Rng.ternary();
  return liftSignedNtt(*Ctx, Coeffs, PrimeCount);
}

std::vector<int8_t> KeyGenerator::drawError() {
  // gaussian() clamps to 6 sigma (19.2) before rounding: |e| <= 19.
  std::vector<int8_t> Coeffs(Ctx->polyDegree());
  for (int8_t &V : Coeffs)
    V = static_cast<int8_t>(Rng.gaussian());
  return Coeffs;
}

RnsPoly KeyGenerator::sampleErrorNtt(size_t PrimeCount) {
  return liftSignedNtt(*Ctx, drawError(), PrimeCount);
}

uint64_t KeyGenerator::deriveSeed() {
  // Reproducible mode (opt-in, golden tests): a dedicated engine whose
  // stream is independent of the secret sampler's.
  if (SeedRng) {
    uint64_t S = SeedRng->uniform64();
    return S == 0 ? 0x9E3779B97F4A7C15ull : S;
  }
  // Expansion seeds are published on the wire (that is the point of seed
  // compression), so they must NOT be drawn from the engine that samples
  // secret material: mt19937_64 state is recoverable from its outputs, and
  // a server collecting enough key seeds could rewind the stream to the
  // secret-key coefficients. Draw from OS entropy instead — the seed only
  // needs to be reproducible by expandUniformNtt, not by this generator.
  std::random_device Rd;
  uint64_t S = (static_cast<uint64_t>(Rd()) << 32) | Rd();
  // 0 marks "not seed-derived" on the wire; remap it (probability 2^-64).
  return S == 0 ? 0x9E3779B97F4A7C15ull : S;
}

KeyGenerator::ZeroDraw KeyGenerator::drawZero() {
  ZeroDraw D;
  D.C1Seed = deriveSeed();
  D.Error = drawError();
  return D;
}

std::array<RnsPoly, 2> KeyGenerator::expandZero(const ZeroDraw &D,
                                                size_t PrimeCount) const {
  RnsPoly C1 = expandUniformNtt(*Ctx, PrimeCount, D.C1Seed);
  RnsPoly E = liftSignedNtt(*Ctx, D.Error, PrimeCount);
  RnsPoly C0(Ctx->polyDegree(), PrimeCount);
  // c0 = e - c1 * s, so that c0 + c1 * s = e.
  for (size_t C = 0; C < PrimeCount; ++C) {
    const Modulus &Q = Ctx->prime(C);
    mulPolyComp(C1.Comps[C], Secret.S.Comps[C], C0.Comps[C], Q);
    subPolyComp(E.Comps[C], C0.Comps[C], C0.Comps[C], Q);
  }
  return {std::move(C0), std::move(C1)};
}

PublicKey KeyGenerator::createPublicKey() {
  ZeroDraw D = drawZero();
  std::array<RnsPoly, 2> Z = expandZero(D, Ctx->totalPrimeCount());
  PublicKey Pk;
  Pk.P0 = std::move(Z[0]);
  Pk.P1 = std::move(Z[1]);
  Pk.P1Seed = D.C1Seed;
  return Pk;
}

KSwitchKey
KeyGenerator::expandKSwitchKey(const RnsPoly &W,
                               const std::vector<ZeroDraw> &Draws) const {
  assert(W.primeCount() == Ctx->totalPrimeCount() &&
         "key target must span all primes");
  assert(Draws.size() == Ctx->dataPrimeCount() && "one draw per digit");
  uint64_t SpecialPrime = Ctx->prime(Ctx->specialPrimeIndex()).value();
  KSwitchKey Key;
  Key.Keys.resize(Draws.size());
  Key.C1Seeds.resize(Draws.size(), 0);
  for (size_t I = 0; I < Draws.size(); ++I) {
    std::array<RnsPoly, 2> Z = expandZero(Draws[I], Ctx->totalPrimeCount());
    // Add P * W on the i-th CRT component only (the CRT basis trick).
    const Modulus &Qi = Ctx->prime(I);
    uint64_t Factor = Qi.reduce(SpecialPrime);
    ShoupMul FactorMul(Factor, Qi);
    std::vector<uint64_t> &Dst = Z[0].Comps[I];
    const std::vector<uint64_t> &Src = W.Comps[I];
    for (uint64_t N = 0; N < Ctx->polyDegree(); ++N)
      Dst[N] = addMod(Dst[N], mulModShoup(Src[N], FactorMul, Qi), Qi);
    Key.Keys[I] = std::move(Z);
    Key.C1Seeds[I] = Draws[I].C1Seed;
  }
  return Key;
}

std::vector<KSwitchKey> KeyGenerator::createKSwitchKeys(
    size_t KeyCount, const std::function<RnsPoly(size_t)> &Target) {
  std::vector<KSwitchKey> Out(KeyCount);
  if (KeyCount == 0)
    return Out;
  // Declared before the pool: if a draw throws, the pool's destructor still
  // runs queued tasks, which touch it.
  std::atomic<size_t> Expanded{0};
  size_t Threads = std::min<size_t>(
      std::max(1u, std::thread::hardware_concurrency()), KeyCount);
  // Call-scoped pool; ROADMAP item 2's process pool replaces it.
  ThreadPool Pool(Threads);
  // The caller draws ahead of the expanders by at most this many keys, so
  // pending draws (and in-flight targets) scale with the thread count, not
  // the key count.
  const size_t MaxAhead = 2 * Threads;
  for (size_t K = 0; K < KeyCount; ++K) {
    std::vector<ZeroDraw> Draws;
    Draws.reserve(Ctx->dataPrimeCount());
    for (size_t I = 0; I < Ctx->dataPrimeCount(); ++I)
      Draws.push_back(drawZero());
    Pool.submit([this, &Target, &Out, &Expanded, &Pool, K,
                 Draws = std::move(Draws)] {
      Out[K] = expandKSwitchKey(Target(K), Draws);
      Expanded.fetch_add(1);
      Pool.poke();
    });
    // Runs queued expansions on this thread while too far ahead.
    Pool.helpUntil([&] { return K + 1 - Expanded.load() < MaxAhead; });
  }
  Pool.waitIdle();
  return Out;
}

RelinKeys KeyGenerator::createRelinKeys() {
  RelinKeys Rk;
  Rk.Key = std::move(createKSwitchKeys(1, [this](size_t) {
    // Target w = s^2 over all primes.
    RnsPoly S2(Ctx->polyDegree(), Ctx->totalPrimeCount());
    for (size_t C = 0; C < Ctx->totalPrimeCount(); ++C)
      mulPolyComp(Secret.S.Comps[C], Secret.S.Comps[C], S2.Comps[C],
                  Ctx->prime(C));
    return S2;
  })[0]);
  return Rk;
}

GaloisKeys KeyGenerator::createGaloisKeys(const std::set<uint64_t> &Steps) {
  uint64_t Slots = Ctx->slotCount();
  // Distinct Galois elements in step order, which is the draw order.
  std::vector<uint64_t> Elts;
  for (uint64_t Step : Steps) {
    // Slot rotation is cyclic with period N/2, so normalize before mapping
    // to a Galois element: step 0 (and any multiple of the slot count, e.g.
    // a program vec_size that equals the slot count) is the identity and
    // needs no key. An empty step set yields an empty key map.
    Step %= Slots;
    if (Step == 0)
      continue;
    uint64_t G = galoisEltFromStep(Step, Ctx->polyDegree());
    if (std::find(Elts.begin(), Elts.end(), G) == Elts.end())
      Elts.push_back(G);
  }
  // One task per key: its target s(X^g) is built on the pool thread, so
  // only the in-flight keys' targets are ever resident.
  std::vector<KSwitchKey> Keys =
      createKSwitchKeys(Elts.size(), [this, &Elts](size_t K) {
        return applyGaloisNttPoly(*Ctx, Secret.S, Elts[K],
                                  /*SpansSpecialPrime=*/true);
      });
  GaloisKeys Gk;
  for (size_t K = 0; K < Elts.size(); ++K)
    Gk.Keys.emplace(Elts[K], std::move(Keys[K]));
  return Gk;
}
