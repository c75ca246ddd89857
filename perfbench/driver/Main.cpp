//===- perfbench/driver/Main.cpp - svd-perfbench CLI ----------------------===//
//
// svd-perfbench --workload W --seed N --seconds S --trace 0|1
//               --reference FILE [--trace-out FILE]
// svd-perfbench --workload W --write-reference FILE
//
// Prints a host block, one line per metric (name, value, unit), and as
// its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics of the traced run.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "EndToEnd.h"
#include "Layers.h"
#include "Spans.h"
#include "Verdict.h"

#include "support/Cli.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <fstream>

using namespace perfbench;
using namespace svd;

namespace {

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return support::trimString(Line.substr(Colon + 1));
    }
  return "unknown";
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

/// Builds the workload's set-up nine times and returns each build's
/// time; \p Out keeps the last build.
std::vector<double> timeSetup(WorkloadKind K, Setup &Out, SpanLog *Spans) {
  std::vector<double> Times;
  while (Times.size() < 9) {
    SpanLog::Scope Sp(Spans, "setup", 0);
    auto S0 = Clock::now();
    Setup S = buildSetup(K, Spans);
    Times.push_back(secondsSince(S0));
    Out = std::move(S);
  }
  return Times;
}

} // namespace

int main(int Argc, char **Argv) {
  support::ArgParser Args(
      "usage: svd-perfbench --workload servers|proven|sparse_heap|serve\n"
      "         --seed N --seconds S --trace 0|1 --reference FILE\n"
      "         [--trace-out FILE]\n"
      "       svd-perfbench --workload W --write-reference FILE\n");
  std::string WorkloadArg, ReferencePath, TraceOut, WriteReference;
  uint64_t Seed = 1, Seconds = 10, Trace = 0;
  Args.value("--workload", &WorkloadArg);
  Args.value("--seed", &Seed);
  Args.value("--seconds", &Seconds);
  Args.value("--trace", &Trace);
  Args.value("--reference", &ReferencePath);
  Args.value("--trace-out", &TraceOut);
  Args.value("--write-reference", &WriteReference);
  if (!Args.parse(Argc, Argv)) {
    std::fprintf(stderr, "svd-perfbench: %s\n", Args.error().c_str());
    return Args.usageError();
  }

  WorkloadKind K;
  if (!parseWorkload(WorkloadArg, K)) {
    std::fprintf(stderr, "svd-perfbench: unknown --workload '%s'\n",
                 WorkloadArg.c_str());
    return 2;
  }
  if (!WriteReference.empty())
    return writeReference(K, WriteReference);
  if (Trace > 1 || Seconds == 0) {
    std::fprintf(stderr, "svd-perfbench: --trace takes 0 or 1, --seconds "
                         "at least 1\n");
    return 2;
  }
  Reference Ref;
  std::string Err;
  if (!Ref.load(ReferencePath, Err)) {
    std::fprintf(stderr, "svd-perfbench: %s\n", Err.c_str());
    return 2;
  }

  // The host block: a one-core number must never read as a scaling one.
  std::printf("host {\"nproc\":%u,\"serve_threads\":%u,\"build_type\":%s,"
              "\"compiler\":%s,\"cpu\":%s,\"seed_base\":%llu,"
              "\"workload\":%s,\"trace\":%llu}\n",
              nproc(), serveThreads(),
              jsonString(PERFBENCH_BUILD_TYPE).c_str(),
              jsonString(PERFBENCH_COMPILER).c_str(),
              jsonString(cpuModel()).c_str(),
              static_cast<unsigned long long>(Seed),
              jsonString(workloadName(K)).c_str(),
              static_cast<unsigned long long>(Trace));

  SpanLog Spans;
  SpanLog *SpanSink = Trace ? &Spans : nullptr;
  SeedPlan Plan(Seed, seedUniverse(K));
  VerdictLog Log;
  std::vector<Metric> Metrics;

  Setup S;
  std::vector<double> SetupTimes = timeSetup(K, S, SpanSink);

  if (Trace == 0) {
    EndToEndStats St =
        runEndToEnd(S, Plan, 0, static_cast<double>(Seconds), UINT64_MAX,
                    Ref, Log, nullptr, /*TimeSetups=*/true);
    SetupTimes.insert(SetupTimes.end(), St.SetupSeconds.begin(),
                      St.SetupSeconds.end());
    Metrics = {
        {"monitored_insts_per_s", St.instsPerSecond(), "insts/s"},
        {"verdict_ms_p50", St.verdictMs(50), "ms"},
        {"verdict_ms_p90", St.verdictMs(90), "ms"},
        {"setup_s", percentile(SetupTimes, 50), "s"},
        {"peak_rss_mb",
         St.RoundPeakMb.empty() ? peakRssMb() : percentile(St.RoundPeakMb, 50),
         "MB"},
    };
    std::printf("rounds %llu, timed operations %zu, %llu insts in %.3f s "
                "timed\n",
                static_cast<unsigned long long>(St.Rounds), St.operations(),
                static_cast<unsigned long long>(St.Insts), St.TimedSeconds);
    // Verdict percentiles are per program, so each count is the sample
    // count behind that program's p50 and p90.
    for (size_t P = 0; P < St.VerdictMs.size(); ++P)
      std::printf("  %s: %zu timed operations, verdict p50 %.3f ms, p90 "
                  "%.3f ms%s\n",
                  S.Kind == WorkloadKind::Serve
                      ? "serve batch"
                      : S.Subjects[P]->W.Name.c_str(),
                  St.VerdictMs[P].size(), percentile(St.VerdictMs[P], 50),
                  percentile(St.VerdictMs[P], 90),
                  St.counted(P) ? "" : " (too few to count)");
  } else {
    Metrics = runLayers(S, Plan, static_cast<double>(Seconds), Ref, Log, Spans);
    if (!TraceOut.empty() && !Spans.writeChromeTrace(TraceOut))
      std::fprintf(stderr, "svd-perfbench: cannot write '%s'\n",
                   TraceOut.c_str());
  }

  double ErrorRate = Log.attempted() == 0
                         ? 0.0
                         : static_cast<double>(Log.failed()) /
                               static_cast<double>(Log.attempted());
  std::printf("error_rate %.6f (%llu failed of %llu attempted)\n", ErrorRate,
              static_cast<unsigned long long>(Log.failed()),
              static_cast<unsigned long long>(Log.attempted()));
  for (const std::string &D : Log.diagnostics())
    std::printf("FAILED: %s\n", D.c_str());
  for (const Metric &M : Metrics)
    std::printf("%-34s %.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());

  std::string J = support::formatString(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      Log.failed() == 0 && Log.attempted() > 0 ? "true" : "false",
      static_cast<unsigned long long>(Log.attempted()),
      static_cast<unsigned long long>(Log.failed()));
  for (size_t I = 0; I < Metrics.size(); ++I)
    J += support::formatString("%s%s: {\"value\": %.17g, \"unit\": %s}",
                               I ? ", " : "",
                               jsonString(Metrics[I].Name).c_str(),
                               Metrics[I].Value,
                               jsonString(Metrics[I].Unit).c_str());
  J += "}}";
  std::printf("%s\n", J.c_str());
  return 0;
}
