//===- ServiceSocket.cpp - Workload service_socket ------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
// A separate evaserve process (default flags) serves the svc_bench program;
// four SocketTransport connections, one tenant session each, send requests
// on a seeded Poisson schedule (open loop). Phases: a short warm-up, a
// light rate, a heavy rate, then a rate ladder. Every request is
// encryptInputs + submit + decryptOutputs, timed from its due time, and its
// decrypted output is checked against the reference semantics.
//
// The server's span histograms are read over GET_METRICS before and after
// every phase; evastats.py turns the _sum/_count deltas into exact means.
// Process CPU comes from /proc (server) and getrusage (client).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "eva/api/Runner.h"
#include "eva/serialize/ProtoIO.h"
#include "eva/service/Client.h"
#include "eva/support/Random.h"

#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <optional>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace eva;

namespace evabench {
namespace {

constexpr size_t kConnections = 4;
constexpr double kLightRps = 60;
constexpr double kHeavyRps = 140;
const double kLadderRps[] = {100, 150, 200, 250};
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Largest accepted absolute error of a decrypted output (the tolerance
/// tests/ServiceTest.cpp and tests/ApiTest.cpp hold this program to).
constexpr double kOutputErrorBound = 1e-2;
constexpr size_t kInputPool = 32;

/// The parent span of the transport call in flight on this thread.
thread_local uint64_t CurrentParent = 0;
thread_local uint64_t CurrentRequest = 0;

/// Counts the payload bytes that cross the wire by message kind and times
/// each round trip (socket write, server, socket read) as a child span of
/// the client call that made it.
class CountingTransport final : public Transport {
public:
  CountingTransport(std::unique_ptr<SocketTransport> Inner, Tracer &T)
      : Inner(std::move(Inner)), T(T) {}

  Expected<Frame> roundTrip(MessageType Type,
                            std::string_view Payload) override {
    // Only calls made inside a traced client call get a span.
    std::optional<Span> S;
    if (CurrentParent != 0)
      S.emplace(T, "service.transport", CurrentParent, CurrentRequest);
    Expected<Frame> F = Inner->roundTrip(Type, Payload);
    if (Type == MessageType::Execute) {
      RequestBytes += Payload.size();
      if (F)
        ResponseBytes += F->Payload.size();
      ++Executes;
    } else if (Type == MessageType::OpenSession) {
      KeyBytes += Payload.size();
      ++Opens;
    }
    return F;
  }

  std::atomic<uint64_t> RequestBytes{0}, ResponseBytes{0}, Executes{0};
  std::atomic<uint64_t> KeyBytes{0}, Opens{0};

private:
  std::unique_ptr<SocketTransport> Inner;
  Tracer &T;
};

/// One evaserve child process. Its stdout (the listening banner) comes
/// through a pipe; its stderr (logs and the shutdown metrics dump) goes to
/// a file so it never mixes with the benchmark's own output.
class ServerProcess {
public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;
  ~ServerProcess() { stop(); }

  Status start(const std::string &Exe, const std::string &ProgramPath,
               const std::string &LogPath) {
    int Pipe[2];
    if (pipe(Pipe) != 0)
      return Status::error("pipe: " + std::string(std::strerror(errno)));
    posix_spawn_file_actions_t Fa;
    posix_spawn_file_actions_init(&Fa);
    posix_spawn_file_actions_adddup2(&Fa, Pipe[1], 1);
    posix_spawn_file_actions_addclose(&Fa, Pipe[0]);
    posix_spawn_file_actions_addclose(&Fa, Pipe[1]);
    posix_spawn_file_actions_addopen(&Fa, 2, LogPath.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    std::vector<char *> Argv = {const_cast<char *>(Exe.c_str()),
                                const_cast<char *>(ProgramPath.c_str()),
                                nullptr};
    int Rc = posix_spawn(&Pid, Exe.c_str(), &Fa, nullptr, Argv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&Fa);
    close(Pipe[1]);
    OutFd = Pipe[0];
    if (Rc != 0) {
      Pid = -1;
      return Status::error("spawn " + Exe + ": " + std::strerror(Rc));
    }
    // Lets run.py stop the server should this process die first.
    PidPath = LogPath + ".pid";
    std::ofstream(PidPath) << Pid << "\n";
    // Wait for the banner: "listening on 127.0.0.1:PORT", then the one
    // "serving" line (read too, so the child never writes to a full or
    // closed pipe).
    std::string Out;
    double Deadline = nowSeconds() + 60;
    while (Out.find("serving") == std::string::npos ||
           Out.find('\n', Out.find("serving")) == std::string::npos) {
      double Left = Deadline - nowSeconds();
      pollfd P{OutFd, POLLIN, 0};
      if (Left <= 0 || poll(&P, 1, static_cast<int>(Left * 1000) + 1) <= 0)
        return Status::error("evaserve did not start (see " + LogPath + ")");
      char Buf[512];
      ssize_t N = read(OutFd, Buf, sizeof(Buf));
      if (N <= 0)
        return Status::error("evaserve exited early (see " + LogPath + ")");
      Out.append(Buf, static_cast<size_t>(N));
    }
    size_t At = Out.find("127.0.0.1:");
    if (At == std::string::npos)
      return Status::error("evaserve banner without a port");
    Port = static_cast<uint16_t>(std::atoi(Out.c_str() + At + 10));
    return Status::success();
  }

  /// SIGTERM, then SIGKILL after 20 s; always reaps the child.
  void stop() {
    if (Pid > 0) {
      kill(Pid, SIGTERM);
      int StatusCode = 0;
      double Deadline = nowSeconds() + 20;
      while (waitpid(Pid, &StatusCode, WNOHANG) == 0) {
        if (nowSeconds() > Deadline) {
          kill(Pid, SIGKILL);
          waitpid(Pid, &StatusCode, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      Pid = -1;
      std::remove(PidPath.c_str());
    }
    if (OutFd >= 0) {
      close(OutFd);
      OutFd = -1;
    }
  }

  pid_t pid() const { return Pid; }
  uint16_t port() const { return Port; }

private:
  pid_t Pid = -1;
  int OutFd = -1;
  uint16_t Port = 0;
  std::string PidPath;
};

struct Tenant {
  std::unique_ptr<CountingTransport> Wire;
  std::unique_ptr<ServiceClient> Client;
};

struct Input {
  std::map<std::string, std::vector<double>> Values;
  std::vector<double> Want;
};

/// Spawns the server and opens one session per connection.
Status setUp(const RunOptions &O, Tracer &T, const std::string &ProgramPath,
             uint64_t KeySeed, ServerProcess &Srv,
             std::vector<Tenant> &Tenants) {
  if (Status S = Srv.start(O.EvaservePath, ProgramPath,
                           O.WorkDir + "/evaserve.log");
      !S.ok())
    return S;
  for (size_t K = 0; K < kConnections; ++K) {
    Expected<std::unique_ptr<SocketTransport>> Sock =
        SocketTransport::connectLoopback(Srv.port());
    if (!Sock)
      return Sock.takeStatus();
    Tenant Ten;
    Ten.Wire = std::make_unique<CountingTransport>(std::move(*Sock), T);
    Ten.Client = std::make_unique<ServiceClient>(*Ten.Wire);
    Expected<std::vector<ParamSignature>> Sigs = Ten.Client->listPrograms();
    if (!Sigs)
      return Sigs.takeStatus();
    const ParamSignature *Sig = nullptr;
    for (const ParamSignature &S : *Sigs)
      if (S.ProgramName == "svc_bench")
        Sig = &S;
    if (!Sig)
      return Status::error("server does not serve svc_bench");
    Span S(T, "service.client.open_session");
    if (Status St = Ten.Client->openSession(*Sig, KeySeed + K); !St.ok())
      return St;
    Tenants.push_back(std::move(Ten));
  }
  return Status::success();
}

void tearDown(ServerProcess &Srv, std::vector<Tenant> &Tenants) {
  for (Tenant &Ten : Tenants)
    (void)Ten.Client->closeSession();
  Tenants.clear();
  Srv.stop();
}

/// The server-side counters one phase is judged by, as a JSON object:
/// [count, sum] per span histogram plus the scheduler counters.
std::string metricsJson(const MetricsSnapshot &S) {
  JsonOut J;
  J.raw("{");
  const std::pair<const char *, const char *> Hists[] = {
      {"decode", "eva_request_decode_seconds"},
      {"queue", "eva_request_queue_seconds"},
      {"execute", "eva_request_execute_seconds"},
      {"encode", "eva_request_encode_seconds"},
  };
  for (const auto &[Key, Name] : Hists) {
    const HistogramSnapshot *H = S.histogram(Name);
    J.key(Key).raw("[").num(H ? static_cast<double>(H->Count) : 0);
    J.raw(", ").num(H ? H->Sum : 0).raw("], ");
  }
  uint64_t Errors = 0;
  for (const CounterSnapshot &C : S.Counters)
    if (C.Name.rfind("eva_request_errors_total", 0) == 0)
      Errors += C.Value;
  J.key("requests").num(static_cast<double>(S.counterValue("eva_requests_total")));
  J.raw(", ").key("batches").num(
      static_cast<double>(S.counterValue("eva_scheduler_batches_total")));
  J.raw(", ").key("rejected").num(
      static_cast<double>(S.counterValue("eva_scheduler_rejected_total")));
  J.raw(", ").key("errors").num(static_cast<double>(Errors));
  J.raw("}");
  return J.text();
}

struct Sample {
  double Due = 0, Free = 0, Start = 0, End = 0;
  double Encrypt = 0, Submit = 0, Decrypt = 0;
  bool Ok = false;
};

/// One request, spans around each client call when \p T is enabled.
void serve(Tenant &Ten, const Input &In, Tracer &T, Sample &S,
           RawResult &R, std::mutex &FailM) {
  uint64_t Req = T.enabled() ? T.newId() : 0;
  Span Root(T, "request", 0, Req);
  std::string Why;
  double T0 = nowSeconds();
  Expected<SealedRequest> Sealed = [&] {
    Span Sp(T, "service.client.encrypt", Root.id(), Req);
    return Ten.Client->encryptInputs(In.Values);
  }();
  double T1 = nowSeconds();
  Expected<std::map<std::string, Ciphertext>> Outs =
      Expected<std::map<std::string, Ciphertext>>::error("not submitted");
  if (Sealed) {
    Span Sp(T, "service.client.submit", Root.id(), Req);
    CurrentParent = Sp.id();
    CurrentRequest = Req;
    Outs = Ten.Client->submit(*Sealed);
    CurrentParent = CurrentRequest = 0;
  }
  double T2 = nowSeconds();
  std::map<std::string, std::vector<double>> Dec;
  if (Outs) {
    Span Sp(T, "service.client.decrypt", Root.id(), Req);
    Dec = Ten.Client->decryptOutputs(*Outs);
  }
  double T3 = nowSeconds();
  Root.end();
  S.Encrypt = T1 - T0;
  S.Submit = T2 - T1;
  S.Decrypt = T3 - T2;
  if (!Sealed)
    Why = "encrypt: " + Sealed.message();
  else if (!Outs)
    Why = "submit: " + Outs.message();
  else if (!Dec.count("out"))
    Why = "no output";
  else if (double E = maxAbsError(Dec["out"], In.Want, In.Want.size());
           !(E <= kOutputErrorBound))
    Why = "output error " + std::to_string(E) + " above bound";
  S.Ok = Why.empty();
  if (!S.Ok) {
    std::lock_guard<std::mutex> L(FailM);
    R.fail(Why);
  }
}

struct PhaseSpec {
  std::string Name;
  double Rate;
  double Duration;
  bool Traced;
};

/// Runs one open-loop phase and appends its raw record to \p Phases.
Status runPhase(const PhaseSpec &Ph, ServerProcess &Srv,
                std::vector<Tenant> &Tenants, const std::vector<Input> &Ins,
                RandomSource &Rng, Tracer &T, RawResult &R,
                std::string &Phases) {
  std::vector<double> Due;
  for (double At = 0;;) {
    At += -std::log(1.0 - Rng.uniformReal(0, 1)) / Ph.Rate;
    if (At >= Ph.Duration)
      break;
    Due.push_back(At);
  }
  Tracer Off(false);
  Tracer &PT = Ph.Traced ? T : Off;

  Expected<MetricsSnapshot> Before = Tenants[0].Client->getMetrics();
  if (!Before)
    return Before.takeStatus();
  double SrvCpu0 = procCpuSeconds(Srv.pid()), Cpu0 = selfCpuSeconds();

  std::vector<Sample> Samples(Due.size());
  std::atomic<size_t> Next{0};
  std::mutex FailM;
  double Base = nowSeconds() + 0.02;
  std::vector<std::thread> Workers;
  for (size_t K = 0; K < Tenants.size(); ++K)
    Workers.emplace_back([&, K] {
      for (size_t I; (I = Next.fetch_add(1)) < Due.size();) {
        Sample &S = Samples[I];
        S.Due = Due[I];
        S.Free = nowSeconds() - Base;
        double Wait = Base + Due[I] - nowSeconds();
        if (Wait > 0)
          std::this_thread::sleep_for(std::chrono::duration<double>(Wait));
        S.Start = nowSeconds() - Base;
        serve(Tenants[K], Ins[I % Ins.size()], PT, S, R, FailM);
        S.End = nowSeconds() - Base;
      }
    });
  for (std::thread &W : Workers)
    W.join();
  R.Attempted += Due.size();

  double SrvCpu = procCpuSeconds(Srv.pid()) - SrvCpu0;
  double Cpu = selfCpuSeconds() - Cpu0;
  long Threads = procStatusField(Srv.pid(), "Threads");
  Expected<MetricsSnapshot> After = Tenants[0].Client->getMetrics();
  if (!After)
    return After.takeStatus();

  JsonOut J;
  J.raw(Phases.empty() ? "\n    {" : ",\n    {");
  J.key("name").str(Ph.Name).raw(", ").key("rate").num(Ph.Rate);
  J.raw(", ").key("duration").num(Ph.Duration);
  J.raw(", ").key("traced").num(Ph.Traced ? 1 : 0);
  J.raw(", ").key("server_cpu_s").num(SrvCpu);
  J.raw(", ").key("client_cpu_s").num(Cpu);
  J.raw(", ").key("server_threads").num(static_cast<double>(Threads));
  J.raw(",\n     ").key("metrics_before").raw(metricsJson(*Before));
  J.raw(",\n     ").key("metrics_after").raw(metricsJson(*After));
  // Rows: [due, free, start, end, encrypt, submit, decrypt, ok].
  J.raw(",\n     ").key("samples").raw("[");
  for (size_t I = 0; I < Samples.size(); ++I) {
    const Sample &S = Samples[I];
    J.raw(I ? ", [" : "[").num(S.Due).raw(",").num(S.Free).raw(",");
    J.num(S.Start).raw(",").num(S.End).raw(",").num(S.Encrypt).raw(",");
    J.num(S.Submit).raw(",").num(S.Decrypt).raw(",").num(S.Ok ? 1 : 0);
    J.raw("]");
  }
  J.raw("]}");
  Phases += J.text();
  return Status::success();
}

} // namespace

int runServiceSocket(const RunOptions &O, Tracer &T, RawResult &R) {
  std::unique_ptr<Program> Prog = buildServiceProgram();
  std::string ProgramPath = O.WorkDir + "/svc_bench.evabin";
  if (Status S = saveProgram(*Prog, ProgramPath); !S.ok()) {
    std::fprintf(stderr, "evabench: %s\n", S.message().c_str());
    return 1;
  }

  // Seeded inputs and their reference outputs.
  RandomSource Rng(O.Seed * 1000003 + 29);
  std::unique_ptr<Runner> Reference = Runner::reference(*Prog);
  std::vector<Input> Ins(kInputPool);
  for (Input &In : Ins) {
    std::vector<double> X(Prog->vecSize()), W(Prog->vecSize());
    for (double &V : X)
      V = Rng.uniformReal(-1, 1);
    for (double &V : W)
      V = Rng.uniformReal(-1, 1);
    In.Values = {{"x", X}, {"w", W}};
    Expected<Valuation> Want = Reference->run(Valuation::fromMap(In.Values));
    if (!Want) {
      std::fprintf(stderr, "evabench: reference: %s\n",
                   Want.message().c_str());
      return 1;
    }
    In.Want = Want->vector("out");
  }

  ServerProcess Srv;
  std::vector<Tenant> Tenants;
  int Repeats = O.Trace ? 1 : kSetupRepeats;
  for (int I = 0; I < Repeats; ++I) {
    tearDown(Srv, Tenants);
    double Start = nowSeconds();
    if (Status S = setUp(O, T, ProgramPath, O.Seed * 64 + 8 * I + 1, Srv,
                         Tenants);
        !S.ok()) {
      std::fprintf(stderr, "evabench: set-up: %s\n", S.message().c_str());
      tearDown(Srv, Tenants);
      return 1;
    }
    R.sample("setup_s", nowSeconds() - Start);
  }

  std::vector<PhaseSpec> Phases = {
      {"warmup", 100, 0.5, false},
      {"light", kLightRps, 0.2 * O.Seconds, false},
      {"heavy", kHeavyRps, 0.4 * O.Seconds, false},
  };
  for (double Rate : kLadderRps)
    Phases.push_back({"ladder", Rate, 0.1 * O.Seconds, false});
  if (O.Trace)
    Phases.push_back({"heavy_traced", kHeavyRps, 0.4 * O.Seconds, true});

  std::string PhaseJson;
  for (const PhaseSpec &Ph : Phases)
    if (Status S = runPhase(Ph, Srv, Tenants, Ins, Rng, T, R, PhaseJson);
        !S.ok()) {
      std::fprintf(stderr, "evabench: phase %s: %s\n", Ph.Name.c_str(),
                   S.message().c_str());
      tearDown(Srv, Tenants);
      return 1;
    }
  R.Sections.push_back("\"phases\": [" + PhaseJson + "]");

  uint64_t ReqBytes = 0, RespBytes = 0, Execs = 0, KeyBytes = 0, Opens = 0;
  for (const Tenant &Ten : Tenants) {
    ReqBytes += Ten.Wire->RequestBytes;
    RespBytes += Ten.Wire->ResponseBytes;
    Execs += Ten.Wire->Executes;
    KeyBytes += Ten.Wire->KeyBytes;
    Opens += Ten.Wire->Opens;
  }
  auto PerCall = [](uint64_t Bytes, uint64_t Calls) {
    return Calls ? static_cast<double>(Bytes) / static_cast<double>(Calls) : 0;
  };
  R.Values["serialize.request_bytes"] = PerCall(ReqBytes, Execs);
  R.Values["serialize.response_bytes"] = PerCall(RespBytes, Execs);
  R.Values["serialize.key_upload_bytes"] = PerCall(KeyBytes, Opens);
  R.Values["peak_rss_kb"] =
      static_cast<double>(procStatusField(Srv.pid(), "VmHWM"));
  tearDown(Srv, Tenants);

  if (O.Trace) {
    // The program as the server compiles it, and single-op times at its
    // parameters.
    Expected<CompiledProgram> CP = compile(*Prog, CompilerOptions::eva());
    if (!CP) {
      std::fprintf(stderr, "evabench: compile: %s\n", CP.message().c_str());
      return 1;
    }
    R.Values["core.nodes.svc_bench"] =
        static_cast<double>(CP->Prog->nodeCount());
    R.Values["core.log2_n.svc_bench"] =
        std::log2(static_cast<double>(CP->PolyDegree));
    R.Values["core.modulus_bits.svc_bench"] = CP->TotalModulusBits;
    R.Values["core.rotation_keys.svc_bench"] =
        static_cast<double>(CP->RotationSteps.size());
    Expected<std::shared_ptr<CkksWorkspace>> WS =
        CkksWorkspace::create(*CP, O.Seed);
    if (!WS) {
      std::fprintf(stderr, "evabench: keygen: %s\n", WS.message().c_str());
      return 1;
    }
    timeCkksOps(*CP, **WS, T, Rng);
  }
  return 0;
}

} // namespace evabench
