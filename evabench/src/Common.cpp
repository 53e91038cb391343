//===- Common.cpp - Shared plumbing of the end-to-end benchmark -----------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "eva/frontend/Expr.h"
#include "eva/runtime/CkksExecutor.h"
#include "eva/support/Random.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <sys/resource.h>
#include <unistd.h>

using namespace eva;

namespace evabench {

double nowSeconds() {
  static const auto Epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Epoch)
      .count();
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace {
unsigned threadIndex() {
  static std::atomic<unsigned> Next{0};
  thread_local unsigned Index = Next.fetch_add(1);
  return Index;
}
} // namespace

void Tracer::record(SpanRecord R) {
  std::lock_guard<std::mutex> L(M);
  Spans.push_back(std::move(R));
}

std::vector<SpanRecord> Tracer::take() {
  std::lock_guard<std::mutex> L(M);
  return std::move(Spans);
}

Span::Span(Tracer &T, const char *Name, uint64_t Parent, uint64_t Request)
    : T(T), Open(T.enabled()) {
  if (!Open)
    return;
  Rec.Id = T.newId();
  Rec.Parent = Parent;
  Rec.Request = Request;
  Rec.Thread = threadIndex();
  Rec.Name = Name;
  Rec.Start = nowSeconds();
}

void Span::end() {
  if (!Open)
    return;
  Open = false;
  Rec.End = nowSeconds();
  T.record(std::move(Rec));
}

//===----------------------------------------------------------------------===//
// Process statistics
//===----------------------------------------------------------------------===//

double selfCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec);
}

double procCpuSeconds(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Line;
  if (!std::getline(In, Line))
    return -1;
  // The command name may hold spaces; fields resume after the last ')'.
  size_t Close = Line.rfind(')');
  if (Close == std::string::npos)
    return -1;
  std::istringstream Fields(Line.substr(Close + 2));
  std::string F;
  unsigned long long UTime = 0, STime = 0;
  // Field 3 (state) is the first after ')'; utime and stime are 14 and 15.
  for (int I = 3; I <= 15 && Fields >> F; ++I) {
    if (I == 14)
      UTime = std::stoull(F);
    if (I == 15)
      STime = std::stoull(F);
  }
  return static_cast<double>(UTime + STime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

long procStatusField(pid_t Pid, const char *Field) {
  std::ifstream In(Pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  size_t Len = std::strlen(Field);
  while (std::getline(In, Line))
    if (Line.compare(0, Len, Field) == 0 && Line.size() > Len &&
        Line[Len] == ':')
      return std::atol(Line.c_str() + Len + 1);
  return -1;
}

//===----------------------------------------------------------------------===//
// Raw result document
//===----------------------------------------------------------------------===//

JsonOut &JsonOut::key(const std::string &K) {
  str(K);
  Out += ": ";
  return *this;
}

JsonOut &JsonOut::str(const std::string &S) {
  Out += '"';
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  Out += '"';
  return *this;
}

JsonOut &JsonOut::num(double V) {
  if (!std::isfinite(V)) {
    Out += "null";
    return *this;
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  Out += Buf;
  return *this;
}

JsonOut &JsonOut::nums(const std::vector<double> &Vs) {
  Out += '[';
  for (size_t I = 0; I < Vs.size(); ++I) {
    if (I)
      Out += ", ";
    num(Vs[I]);
  }
  Out += ']';
  return *this;
}

void RawResult::fail(const std::string &Why) {
  ++Failed;
  if (Failures.size() < 8)
    Failures.push_back(Why);
}

std::string renderRaw(const RunOptions &Opts, const RawResult &R,
                      const std::vector<SpanRecord> &Spans) {
  JsonOut J;
  J.raw("{\n  ").key("workload").str(Opts.Workload);
  J.raw(",\n  ").key("seed").num(static_cast<double>(Opts.Seed));
  J.raw(",\n  ").key("trace").num(Opts.Trace ? 1 : 0);
  J.raw(",\n  ").key("attempted").num(static_cast<double>(R.Attempted));
  J.raw(",\n  ").key("failed").num(static_cast<double>(R.Failed));
  J.raw(",\n  ").key("failures").raw("[");
  for (size_t I = 0; I < R.Failures.size(); ++I)
    (I ? J.raw(", ") : J).str(R.Failures[I]);
  J.raw("]");
  J.raw(",\n  ").key("samples").raw("{");
  bool First = true;
  for (const auto &[Name, Vs] : R.Samples) {
    J.raw(First ? "\n    " : ",\n    ").key(Name).nums(Vs);
    First = false;
  }
  J.raw("\n  }");
  J.raw(",\n  ").key("values").raw("{");
  First = true;
  for (const auto &[Name, V] : R.Values) {
    J.raw(First ? "\n    " : ",\n    ").key(Name).num(V);
    First = false;
  }
  J.raw("\n  }");
  for (const std::string &S : R.Sections)
    J.raw(",\n  ").raw(S);
  // Spans as rows: [id, parent, request, thread, name, start_s, end_s].
  J.raw(",\n  ").key("spans").raw("[");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    J.raw(I ? ",\n    [" : "\n    [");
    J.num(static_cast<double>(S.Id)).raw(", ");
    J.num(static_cast<double>(S.Parent)).raw(", ");
    J.num(static_cast<double>(S.Request)).raw(", ");
    J.num(S.Thread).raw(", ").str(S.Name).raw(", ");
    J.num(S.Start).raw(", ").num(S.End).raw("]");
  }
  J.raw("]\n}\n");
  return J.text();
}

//===----------------------------------------------------------------------===//
// CKKS op timing
//===----------------------------------------------------------------------===//

namespace {

/// Minimum time spent timing one CKKS op or the NTT.
constexpr double kOpSeconds = 0.25;

/// Times \p Fn as spans named \p Name until kOpSeconds have passed.
void timeOp(Tracer &T, const char *Name, const std::function<void()> &Fn) {
  double Start = nowSeconds();
  for (int Calls = 0; Calls < 5 || nowSeconds() - Start < kOpSeconds;
       ++Calls) {
    Span S(T, Name);
    Fn();
  }
}

} // namespace

void timeCkksOps(const CompiledProgram &CP, const CkksWorkspace &WS,
                 Tracer &T, RandomSource &Rng) {
  const CkksContext &Ctx = *WS.Context;
  std::vector<double> V(Ctx.slotCount());
  for (double &X : V)
    X = Rng.uniformReal(-1, 1);
  Plaintext Pt;
  WS.Encoder->encode(V, std::exp2(30), Ctx.dataPrimeCount(), Pt);
  Ciphertext A = WS.Enc->encrypt(Pt), B = WS.Enc->encrypt(Pt);
  const Evaluator &E = *WS.Eval;
  Ciphertext M = E.multiply(A, B);
  uint64_t Step = CP.RotationSteps.empty() ? 0 : *CP.RotationSteps.begin();

  timeOp(T, "ckks.op.multiply", [&] { (void)E.multiply(A, B); });
  timeOp(T, "ckks.op.relin", [&] { (void)E.relinearize(M, WS.Rk); });
  if (Step != 0)
    timeOp(T, "ckks.op.rotate", [&] { (void)E.rotateLeft(A, Step, WS.Gk); });
  timeOp(T, "ckks.op.plain_multiply", [&] { (void)E.multiplyPlain(A, Pt); });
  timeOp(T, "ckks.op.rescale", [&] { (void)E.rescale(A); });
  timeOp(T, "ckks.op.add", [&] { (void)E.add(A, B); });

  const NttTables &Ntt = Ctx.ntt(0);
  std::vector<uint64_t> Coeffs(Ctx.polyDegree());
  for (uint64_t &C : Coeffs)
    C = Rng.uniformBelow(Ctx.prime(0).value());
  timeOp(T, "math.ntt_fwd", [&] { Ntt.forward(Coeffs); });
}

//===----------------------------------------------------------------------===//
// Programs
//===----------------------------------------------------------------------===//

std::unique_ptr<Program> buildServiceProgram() {
  ProgramBuilder B("svc_bench", 64);
  Expr X = B.inputCipher("x", 30);
  Expr W = B.inputPlain("w", 20);
  Expr Y = (X * X) + (X << 1) + W;
  B.output("out", Y, 30);
  return B.take();
}

namespace {

Expr sqrtPoly(ProgramBuilder &B, Expr X) {
  Expr X2 = X * X;
  return X * B.constant(2.214, 30) + X2 * B.constant(-1.098, 30) +
         X2 * X * B.constant(0.173, 30);
}

std::unique_ptr<Program> buildPathLength() {
  const uint64_t M = 4096;
  ProgramBuilder B("path3d", M);
  Expr X = B.inputCipher("x", 30), Y = B.inputCipher("y", 30),
       Z = B.inputCipher("z", 30);
  Expr Dx = (X << 1) - X, Dy = (Y << 1) - Y, Dz = (Z << 1) - Z;
  Expr Len = sqrtPoly(B, Dx * Dx + Dy * Dy + Dz * Dz);
  std::vector<double> Valid(M, 1.0);
  Valid[M - 1] = 0.0;
  B.output("len", B.sumSlots(Len * B.constantVector(Valid, 30)), 30);
  return B.take();
}

std::unique_ptr<Program> buildLinearRegression() {
  ProgramBuilder B("linreg", 2048);
  Expr X = B.inputCipher("x", 30), Y = B.inputCipher("y", 30);
  Expr Inv = B.constant(1.0 / 1024.0, 30);
  Expr Sx = B.sumSlots(X) * Inv, Sy = B.sumSlots(Y) * Inv;
  Expr Sxy = B.sumSlots(X * Y) * Inv, Sxx = B.sumSlots(X * X) * Inv;
  Expr Cn = B.constant(2.0, 30);
  B.output("num", Sxy * Cn - Sx * Sy, 30);
  B.output("den", Sxx * Cn - Sx * Sx, 30);
  return B.take();
}

std::unique_ptr<Program> buildPolyRegression() {
  ProgramBuilder B("polyreg", 4096);
  Expr X = B.inputCipher("x", 30);
  Expr X2 = X * X;
  B.output("y",
           X2 * X * B.constant(0.3, 30) + X2 * B.constant(-0.5, 30) +
               X * B.constant(1.1, 30) + B.constant(0.25, 30),
           30);
  return B.take();
}

std::unique_ptr<Program> buildMultivariateRegression() {
  const uint64_t Samples = 128, Features = 16;
  ProgramBuilder B("multireg", Samples * Features);
  Expr X = B.inputCipher("x", 30);
  RandomSource Rng(11);
  std::vector<double> W(Features * Samples);
  for (double &V : W)
    V = Rng.uniformReal(-1, 1);
  Expr Acc = X * B.constantVector(W, 30);
  for (uint64_t Step = Samples; Step < Samples * Features; Step <<= 1)
    Acc = Acc + (Acc << static_cast<int32_t>(Step));
  B.output("y", Acc, 30);
  return B.take();
}

/// The 3x3 Sobel gradients of a W x W image packed row-major.
void sobelGradients(ProgramBuilder &B, Expr Image, int W, int Offset,
                    double Norm, Expr &Ix, Expr &Iy) {
  const double F[3][3] = {{-1, 0, 1}, {-2, 0, 2}, {-1, 0, 1}};
  for (int I = 0; I < 3; ++I)
    for (int J = 0; J < 3; ++J) {
      Expr Rot = Image << ((I + Offset) * W + (J + Offset));
      Expr H = Rot * B.constant(F[I][J] / Norm, 30);
      Expr V = Rot * B.constant(F[J][I] / Norm, 30);
      Ix = (I == 0 && J == 0) ? H : Ix + H;
      Iy = (I == 0 && J == 0) ? V : Iy + V;
    }
}

std::unique_ptr<Program> buildSobel() {
  const int W = 64;
  ProgramBuilder B("sobel", W * W);
  Expr Image = B.inputCipher("image", 30);
  Expr Ix, Iy;
  sobelGradients(B, Image, W, 0, 1.0, Ix, Iy);
  B.output("edges", sqrtPoly(B, Ix * Ix + Iy * Iy), 30);
  return B.take();
}

std::unique_ptr<Program> buildHarris() {
  const int W = 64;
  ProgramBuilder B("harris", W * W);
  Expr Image = B.inputCipher("image", 30);
  Expr Ix, Iy;
  sobelGradients(B, Image, W, -1, 8.0, Ix, Iy);
  auto Box = [&](Expr E) {
    Expr Acc;
    for (int Dy = -1; Dy <= 1; ++Dy)
      for (int Dx = -1; Dx <= 1; ++Dx) {
        Expr R = E << (Dy * W + Dx);
        Acc = (Dy == -1 && Dx == -1) ? R : Acc + R;
      }
    return Acc;
  };
  Expr Sxx = Box(Ix * Ix), Syy = Box(Iy * Iy), Sxy = Box(Ix * Iy);
  Expr Det = Sxx * Syy - Sxy * Sxy;
  Expr Tr = Sxx + Syy;
  B.output("resp", Det - Tr * Tr * B.constant(0.04, 30), 30);
  return B.take();
}

} // namespace

const std::vector<AppBuilder> &tableEightApps() {
  static const std::vector<AppBuilder> Apps = {
      {"path3d", buildPathLength},   {"linreg", buildLinearRegression},
      {"polyreg", buildPolyRegression},
      {"multireg", buildMultivariateRegression},
      {"sobel", buildSobel},         {"harris", buildHarris},
  };
  return Apps;
}

double maxAbsError(const std::vector<double> &A, const std::vector<double> &B,
                   size_t Count) {
  double Max = 0;
  size_t N = std::min({Count, A.size(), B.size()});
  for (size_t I = 0; I < N; ++I)
    Max = std::max(Max, std::abs(A[I] - B[I]));
  if (A.size() < Count || B.size() < Count)
    return INFINITY;
  return Max;
}

double precisionBits(double MaxAbsError) {
  if (!std::isfinite(MaxAbsError))
    return 0.0;
  if (MaxAbsError <= 0)
    return 52.0;
  return std::min(52.0, -std::log2(MaxAbsError));
}

} // namespace evabench
