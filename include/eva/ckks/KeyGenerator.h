//===- eva/ckks/KeyGenerator.h - Key generation -----------------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates the secret key (ternary), public key, relinearization key
/// (for s^2) and Galois keys for a requested set of rotation steps — the
/// "encryption context" whose generation time Table 7 of the paper reports.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_CKKS_KEYGENERATOR_H
#define EVA_CKKS_KEYGENERATOR_H

#include "eva/ckks/Context.h"
#include "eva/ckks/Keys.h"
#include "eva/support/Random.h"

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <vector>

namespace eva {

/// Deterministically expands \p Seed into a uniform polynomial in NTT form
/// over the first \p PrimeCount context primes. Uniformity in NTT form
/// equals uniformity in coefficient form (the NTT is a bijection), so the
/// result can stand in for any freshly sampled uniform polynomial. The
/// expansion uses raw mt19937_64 output with rejection sampling — fully
/// specified by the C++ standard, so client and server reproduce identical
/// polynomials from the same seed regardless of standard library.
RnsPoly expandUniformNtt(const CkksContext &Ctx, size_t PrimeCount,
                         uint64_t Seed);

/// Threading contract: the randomness of every key is drawn serially on
/// the calling thread, in a fixed order (per key-switching key and digit:
/// the c1 expansion seed, then N rounded-Gaussian error coefficients), and
/// the draws are then expanded into key polynomials on a pool scoped to the
/// call. Each key is written to its own slot, so the keys depend only on
/// the draws (in reproducible mode: only on the seed), never on the thread
/// count or the schedule. A one-key call runs inline, and no thread
/// outlives a call. A KeyGenerator itself is not thread-safe: one caller at
/// a time.
class KeyGenerator {
public:
  /// \p ReproducibleExpansionSeeds: by default, the expansion seeds
  /// published on the wire by seed compression come from OS entropy (see
  /// deriveSeed()). When true — requires a nonzero \p Seed — they are
  /// instead drawn from a dedicated engine derived from \p Seed, making
  /// every key and ciphertext bit a pure function of the seed. This is the
  /// reproducible mode behind cross-backend bit-identity goldens
  /// (`evac run`, ApiTest); production key generation keeps the default.
  explicit KeyGenerator(std::shared_ptr<const CkksContext> Ctx,
                        uint64_t Seed = 0,
                        bool ReproducibleExpansionSeeds = false);

  const SecretKey &secretKey() const { return Secret; }
  PublicKey createPublicKey();
  RelinKeys createRelinKeys();
  /// One Galois key per distinct left-rotation step in \p Steps. Steps are
  /// normalized modulo the slot count N/2 first (slot rotation is cyclic),
  /// so step 0 and any multiple of the slot count are identities that need
  /// no key; an empty set yields an empty key map.
  GaloisKeys createGaloisKeys(const std::set<uint64_t> &Steps);

  /// Samples a fresh ternary polynomial in NTT form over \p PrimeCount
  /// context primes (exposed for the encryptor's ephemeral u).
  RnsPoly sampleTernaryNtt(size_t PrimeCount);
  /// Samples an error polynomial in NTT form over \p PrimeCount primes.
  RnsPoly sampleErrorNtt(size_t PrimeCount);

  RandomSource &rng() { return Rng; }

  /// Draws a fresh nonzero expansion seed: from OS entropy by default, or
  /// from the dedicated deterministic seed engine in reproducible mode.
  uint64_t deriveSeed();

private:
  /// The serially drawn randomness of one encryption of zero.
  struct ZeroDraw {
    uint64_t C1Seed = 0;       ///< expands to the uniform c1
    std::vector<int8_t> Error; ///< N coefficients, |e| <= 6 sigma < 20
  };

  /// N rounded-Gaussian coefficients from Rng.
  std::vector<int8_t> drawError();
  /// Serial step: the expansion seed from deriveSeed(), then the error.
  ZeroDraw drawZero();
  /// Pure step: (c0, c1) with c0 + c1*s = e over the first \p PrimeCount
  /// primes. Reads only \p D, the secret key and the context, so any
  /// number of expansions may run concurrently.
  std::array<RnsPoly, 2> expandZero(const ZeroDraw &D,
                                    size_t PrimeCount) const;
  /// Pure step: the key-switching key for target \p W (NTT form over all
  /// primes) from one draw per digit; component i encrypts
  /// P * W * (CRT basis_i).
  KSwitchKey expandKSwitchKey(const RnsPoly &W,
                              const std::vector<ZeroDraw> &Draws) const;
  /// Draws \p KeyCount key-switching keys serially, in order, and expands
  /// key K for target \p Target(K) into slot K on a call-scoped pool.
  /// \p Target is evaluated on pool threads and must be thread-safe.
  std::vector<KSwitchKey>
  createKSwitchKeys(size_t KeyCount,
                    const std::function<RnsPoly(size_t)> &Target);

  std::shared_ptr<const CkksContext> Ctx;
  RandomSource Rng;
  /// Reproducible mode's expansion-seed engine. Deliberately a separate
  /// engine from Rng: published seeds must never expose the stream that
  /// samples secret material (mt19937_64 state is recoverable from its
  /// outputs).
  std::optional<RandomSource> SeedRng;
  SecretKey Secret;
};

} // namespace eva

#endif // EVA_CKKS_KEYGENERATOR_H
