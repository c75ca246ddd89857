//===- perfbench/driver/EndToEnd.cpp --------------------------------------===//

#include "EndToEnd.h"
#include "Spans.h"

#include "serve/Serve.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <malloc.h>

using namespace perfbench;
using namespace svd;

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

// VmHWM, not getrusage: ru_maxrss survives execve, so it would report a
// launcher's peak when that was larger.
double perfbench::peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return 0.0;
}

void EndToEndStats::record(size_t Program, uint64_t Steps, double Seconds) {
  if (VerdictMs.size() <= Program)
    VerdictMs.resize(Program + 1);
  VerdictMs[Program].push_back(Seconds * 1e3);
  Insts += Steps;
  TimedSeconds += Seconds;
}

size_t EndToEndStats::operations() const {
  size_t N = 0;
  for (const std::vector<double> &V : VerdictMs)
    N += V.size();
  return N;
}

bool EndToEndStats::counted(size_t Program) const {
  size_t Most = 0;
  for (const std::vector<double> &V : VerdictMs)
    Most = std::max(Most, V.size());
  return !VerdictMs[Program].empty() && VerdictMs[Program].size() * 10 >= Most;
}

double EndToEndStats::verdictMs(double P) const {
  size_t Ops = 0;
  for (size_t I = 0; I < VerdictMs.size(); ++I)
    Ops += counted(I) ? VerdictMs[I].size() : 0;
  double Ms = 0.0;
  for (size_t I = 0; I < VerdictMs.size(); ++I)
    if (counted(I))
      Ms += percentile(VerdictMs[I], P) *
            static_cast<double>(VerdictMs[I].size()) /
            static_cast<double>(Ops);
  return Ms;
}

namespace {

/// Resets the process's VmHWM to its current resident set, so the next
/// peakRssMb() reads the peak since this call. False when unsupported.
bool resetPeakRss() {
  std::ofstream Out("/proc/self/clear_refs");
  Out << "5";
  Out.flush();
  return static_cast<bool>(Out);
}

/// Sample seeds per serve batch: with three programs this gives twelve
/// sessions, three per shard at four shards, one of each program.
constexpr uint64_t ServeSeedsPerBatch = 4;

/// One detection round: every program at its PerRound sample seeds.
void detectionRound(const Setup &S, const SeedPlan &Plan, uint64_t Round,
                    const Reference &Ref, VerdictLog &Log, SpanLog *Spans,
                    EndToEndStats &St) {
  for (size_t P = 0; P < S.Subjects.size(); ++P)
    for (uint32_t J = 0; J < S.Subjects[P]->PerRound; ++J) {
      const Subject &Sub = *S.Subjects[P];
      uint64_t Seed = Plan.sampleSeed(Round * Sub.PerRound + J);
      harness::SampleConfig C;
      C.Seed = Seed;
      C.Detector = Sub.Online;
      harness::SampleMetrics M;
      auto T0 = Clock::now();
      {
        SpanLog::Scope Sp(Spans, "e2e.sample", Round + 1);
        M = harness::runSample(Sub.W, "svd", C);
      }
      St.record(P, M.Steps, secondsSince(T0));

      std::string Why = checkSample(Ref, Sub, "svd", Seed, S.CuBudget != 0, M);
      if (Why.empty() && S.Kind == WorkloadKind::Proven) {
        // The proof-free twin: pruning must not change a single report.
        harness::SampleConfig Bare = C;
        Bare.Detector = Sub.OnlineBare;
        if (!sameReports(M, harness::runSample(Sub.W, "svd", Bare)))
          Why = support::formatString(
              "%s/svd/seed %llu: reports differ from the run without static "
              "proofs",
              Sub.W.Name.c_str(), static_cast<unsigned long long>(Seed));
      }
      Log.record(Why);
    }
}

/// One serve round: a batch of sessions through runServe, then each
/// session checked against the committed reference.
void serveRound(const Setup &S, const SeedPlan &Plan, uint64_t Round,
                const Reference &Ref, VerdictLog &Log, SpanLog *Spans,
                EndToEndStats &St) {
  std::vector<serve::SessionInput> Sessions;
  for (uint64_t J = 0; J < ServeSeedsPerBatch; ++J) {
    uint64_t Seed = Plan.sampleSeed(Round * ServeSeedsPerBatch + J);
    for (const auto &Sub : S.Subjects) {
      serve::SessionInput In;
      In.SessionId = static_cast<uint32_t>(Sessions.size());
      In.Work = &Sub->W;
      In.Seed = Seed;
      harness::SampleConfig C;
      C.Seed = Seed;
      In.Machine = harness::machineConfigFor(C);
      Sessions.push_back(In);
    }
  }
  serve::ServeConfig Cfg;
  Cfg.Shards = serveThreads();
  Cfg.Jobs = serveThreads();

  serve::ServeReport R;
  auto T0 = Clock::now();
  {
    SpanLog::Scope Sp(Spans, "e2e.serve_batch", Round + 1);
    R = serve::runServe(Sessions, Cfg);
  }
  double Dt = secondsSince(T0);
  uint64_t Steps = 0;
  for (const serve::SessionReport &SR : R.Sessions)
    Steps += SR.Steps;
  St.record(0, Steps, Dt);

  for (size_t I = 0; I < Sessions.size(); ++I) {
    if (I >= R.Sessions.size() || R.Sessions[I].SessionId != I)
      Log.record(false, support::formatString(
                            "serve session %s/seed %llu: missing from the "
                            "serve report",
                            Sessions[I].Work->Name.c_str(),
                            static_cast<unsigned long long>(Sessions[I].Seed)));
    else
      Log.record(checkSession(Ref, R.Sessions[I]));
  }
}

} // namespace

EndToEndStats perfbench::runEndToEnd(const Setup &S, const SeedPlan &Plan,
                                     uint64_t FirstRound, double Seconds,
                                     uint64_t MaxRounds, const Reference &Ref,
                                     VerdictLog &Log, SpanLog *Spans,
                                     bool TimeSetups) {
  EndToEndStats St;
  auto T0 = Clock::now();
  for (uint64_t Round = FirstRound;
       St.Rounds < MaxRounds && (St.Rounds == 0 || secondsSince(T0) < Seconds);
       ++Round, ++St.Rounds) {
    // Every round starts from a trimmed heap. Otherwise what the
    // allocator kept from earlier rounds (its arenas and its sliding mmap
    // threshold, both set by the first rounds' timing) counts in a
    // round's peak and speed, and moved a serve run's median peak by 12%
    // between runs of one seed.
    malloc_trim(0);
    bool PeakReset = resetPeakRss();
    if (S.Kind == WorkloadKind::Serve)
      serveRound(S, Plan, Round, Ref, Log, Spans, St);
    else
      detectionRound(S, Plan, Round, Ref, Log, Spans, St);
    if (PeakReset)
      St.RoundPeakMb.push_back(peakRssMb());
    if (TimeSetups) {
      auto T1 = Clock::now();
      buildSetup(S.Kind, nullptr);
      St.SetupSeconds.push_back(secondsSince(T1));
    }
  }
  return St;
}
