//===- Common.h - Shared plumbing of the end-to-end benchmark ---*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark probe shares: the run options, a
/// span recorder that times calls into the program's layers from outside,
/// process statistics read from /proc and getrusage, a small JSON writer
/// for the raw result document, and the programs the workloads feed the
/// system (the service program and the Table 8 applications).
///
/// The probe only measures. Statistics (medians, percentiles, self times,
/// sum/count deltas) are computed from the raw document by evastats.py, so
/// one tested implementation serves every workload.
///
//===----------------------------------------------------------------------===//

#ifndef EVABENCH_COMMON_H
#define EVABENCH_COMMON_H

#include "eva/ir/Program.h"

namespace eva {
struct CompiledProgram;
class CkksWorkspace;
class RandomSource;
} // namespace eva

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <vector>

namespace evabench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory the probe may write its own files into (the served
  /// program, the server's log).
  std::string WorkDir = ".";
  /// The evaserve binary (service_socket only).
  std::string EvaservePath;
  /// Execution contexts for the local workload (the host's core count).
  size_t Threads = 1;
};

/// Seconds on one steady clock shared by spans, due times and samples.
double nowSeconds();

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

struct SpanRecord {
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t Request = 0;
  unsigned Thread = 0;
  std::string Name;
  double Start = 0;
  double End = 0;
};

/// Keeps spans in memory until the run ends. A disabled tracer records
/// nothing, so untraced runs pay one branch per boundary.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  bool enabled() const { return Enabled; }
  uint64_t newId() { return NextId.fetch_add(1, std::memory_order_relaxed); }
  void record(SpanRecord R);
  std::vector<SpanRecord> take();

private:
  bool Enabled;
  std::atomic<uint64_t> NextId{1};
  std::mutex M;
  std::vector<SpanRecord> Spans; // guarded by M
};

/// One timed call into a layer: starts at construction, ends at end() or
/// destruction. The Request id groups the spans of one request.
class Span {
public:
  Span(Tracer &T, const char *Name, uint64_t Parent = 0,
       uint64_t Request = 0);
  ~Span() { end(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  uint64_t id() const { return Rec.Id; }
  void end();

private:
  Tracer &T;
  SpanRecord Rec;
  bool Open;
};

//===----------------------------------------------------------------------===//
// Process statistics
//===----------------------------------------------------------------------===//

/// User + system CPU seconds of this process (all threads).
double selfCpuSeconds();
/// User + system CPU seconds of process \p Pid from /proc/<pid>/stat.
double procCpuSeconds(pid_t Pid);
/// A numeric field of /proc/<pid>/status ("VmHWM", "Threads"); -1 if
/// absent. \p Pid 0 reads this process.
long procStatusField(pid_t Pid, const char *Field);

//===----------------------------------------------------------------------===//
// Raw result document
//===----------------------------------------------------------------------===//

/// Appends JSON values to a string; the caller supplies the structure.
class JsonOut {
public:
  JsonOut &raw(const std::string &S) {
    Out += S;
    return *this;
  }
  JsonOut &key(const std::string &K);
  JsonOut &str(const std::string &S);
  JsonOut &num(double V);
  JsonOut &nums(const std::vector<double> &Vs);
  const std::string &text() const { return Out; }

private:
  std::string Out;
};

/// What a workload hands back to main(): correctness counts, raw samples
/// keyed by metric name, exact values, spans, and workload-specific JSON
/// fragments (the service phases).
struct RawResult {
  size_t Attempted = 0;
  size_t Failed = 0;
  std::vector<std::string> Failures; ///< first few failure messages
  std::map<std::string, std::vector<double>> Samples;
  std::map<std::string, double> Values;
  std::vector<std::string> Sections; ///< "\"key\": <json>" fragments

  void fail(const std::string &Why);
  void sample(const std::string &Name, double V) { Samples[Name].push_back(V); }
};

std::string renderRaw(const RunOptions &Opts, const RawResult &R,
                      const std::vector<SpanRecord> &Spans);

//===----------------------------------------------------------------------===//
// Workloads and their inputs
//===----------------------------------------------------------------------===//

/// The service program (identical to bench/service_throughput.cpp's
/// svc_bench): one rotation, one relinearized multiply and a plain operand,
/// so every evaluation-key kind crosses the wire.
std::unique_ptr<eva::Program> buildServiceProgram();

/// The six Table 8 applications, as written against the Expr frontend.
struct AppBuilder {
  const char *Key;
  std::unique_ptr<eva::Program> (*Build)();
};
const std::vector<AppBuilder> &tableEightApps();

/// Per-call times of single CKKS ops (multiply, relinearize, rotate, plain
/// multiply, rescale, add) and of one forward NTT at \p CP's degree and
/// primes, as spans named ckks.op.<op> and math.ntt_fwd.
void timeCkksOps(const eva::CompiledProgram &CP, const eva::CkksWorkspace &WS,
                 Tracer &T, eva::RandomSource &Rng);

/// Largest absolute difference over the first \p Count entries.
double maxAbsError(const std::vector<double> &A, const std::vector<double> &B,
                   size_t Count);
/// -log2 of an absolute error (capped at 52 bits for an exact match).
double precisionBits(double MaxAbsError);

int runLenetLocal(const RunOptions &Opts, Tracer &T, RawResult &R);
int runServiceSocket(const RunOptions &Opts, Tracer &T, RawResult &R);
int runCompileZoo(const RunOptions &Opts, Tracer &T, RawResult &R);

} // namespace evabench

#endif // EVABENCH_COMMON_H
