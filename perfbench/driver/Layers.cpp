//===- perfbench/driver/Layers.cpp ----------------------------------------===//

#include "Layers.h"
#include "EndToEnd.h"
#include "Spans.h"

#include "analysis/Escape.h"
#include "analysis/StaticCu.h"
#include "analysis/StaticLockset.h"
#include "analysis/ValueFlow.h"
#include "cu/CuPartition.h"
#include "isa/Cfg.h"
#include "obs/Obs.h"
#include "pdg/Pdg.h"
#include "serve/Frame.h"
#include "serve/Ring.h"
#include "serve/Serve.h"
#include "shadow/Shadow.h"
#include "support/StringUtils.h"
#include "svd/OfflineDetector.h"
#include "trace/Trace.h"
#include "vm/Machine.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>

using namespace perfbench;
using namespace svd;

namespace {

/// The no-op observer of the dispatch baseline; it only counts callbacks.
class CountingObserver final : public vm::ExecutionObserver {
public:
  uint64_t Events = 0;
  void onLoad(const vm::EventCtx &, isa::Addr, isa::Word) override {
    ++Events;
  }
  void onStore(const vm::EventCtx &, isa::Addr, isa::Word) override {
    ++Events;
  }
  void onAlu(const vm::EventCtx &) override { ++Events; }
  void onBranch(const vm::EventCtx &, bool, uint32_t) override { ++Events; }
  void onLock(const vm::EventCtx &, uint32_t) override { ++Events; }
  void onUnlock(const vm::EventCtx &, uint32_t) override { ++Events; }
  void onThreadFinished(const vm::EventCtx &) override { ++Events; }
};

/// Records the memory-access stream as (address << 1 | is-store).
class AddressRecorder final : public vm::ExecutionObserver {
public:
  std::vector<uint64_t> Stream;
  void onLoad(const vm::EventCtx &, isa::Addr A, isa::Word) override {
    Stream.push_back(uint64_t(A) << 1);
  }
  void onStore(const vm::EventCtx &, isa::Addr A, isa::Word) override {
    Stream.push_back(uint64_t(A) << 1 | 1);
  }
};

/// A counter of \p R, or 0 when the detector did not export it.
uint64_t counter(const obs::Registry &R, const std::string &Name) {
  for (const auto &[Key, Value] : R.counters())
    if (Key == Name)
      return Value;
  return 0;
}

/// Per-address metadata of the shadow replay: the size of a typical
/// detector's last-access record.
struct ReplayCell {
  uint64_t LastAccess = 0;
  uint32_t Stores = 0;
  uint32_t Loads = 0;
};

/// Events per frame, as serve::ServeConfig::EventsPerFrame defaults.
constexpr size_t FrameEvents = 256;

/// Deterministic counts of one pass; every pass must reproduce them.
struct Counts {
  uint64_t Insts = 0, ObservedEvents = 0, MemEvents = 0;
  uint64_t SvdEvents = 0, Pruned = 0, Filtered = 0, Cus = 0, Reports = 0;
  uint64_t HwCus = 0, HwReports = 0;
  uint64_t ShadowPages = 0, ShadowBytes = 0, BudgetEvictions = 0;
  uint64_t Accesses = 0, DistinctAddrs = 0, ReplayStoredLoads = 0;
  uint64_t ProvenCus = 0, ThreadLocalSites = 0;
  uint64_t TraceEvents = 0, Frames = 0, WireBytes = 0, OfflineReports = 0;
  uint64_t ServeEvents = 0, ServeMaxShardEvents = 0, ServeShards = 0;
  uint64_t BackoffWaits = 0;

  bool operator==(const Counts &) const = default;
};

/// Wall time per layer name in one pass, ns.
using Times = std::map<std::string, double>;

class Pass {
public:
  Pass(const Setup &S, const Reference &Ref, VerdictLog &Log, SpanLog &L)
      : S(S), Ref(Ref), Log(Log), L(L) {}

  Times T;
  Counts C;

  void staticLayers();
  void sample(const Subject &Sub, uint64_t Seed, uint64_t Id);
  void serveRun();

private:
  /// Runs \p F inside a span and adds its duration to T[Name].
  template <typename Fn>
  double timed(const char *Name, uint64_t Id, Fn &&F) {
    size_t I = L.spans().size();
    {
      SpanLog::Scope Sp(&L, Name, Id);
      F();
    }
    double Ns = static_cast<double>(L.spans()[I].durNs());
    T[Name] += Ns;
    return Ns;
  }

  const Setup &S;
  const Reference &Ref;
  VerdictLog &Log;
  SpanLog &L;
  std::vector<serve::SessionInput> Sessions;
  std::vector<uint64_t> SessionEvents; ///< recorded trace size per session
};

void Pass::staticLayers() {
  timed("isa.assemble", 0, [&] { buildPrograms(S.Kind); });
  for (const auto &Sub : S.Subjects) {
    const isa::Program &P = Sub->W.Program;
    analysis::AccessTable Table;
    analysis::CuProofs Proofs;
    timed("analysis.access_table", 0,
          [&] { Table = analysis::buildAccessTable(P); });
    timed("analysis.atomic_proof", 0,
          [&] { Proofs = analysis::proveAtomicCus(P); });
    timed("analysis.value_flow", 0,
          [&] { analysis::ValueFlowAnalysis VF(P); });
    for (isa::ThreadId Tid = 0; Tid < P.numThreads(); ++Tid) {
      const std::vector<isa::Instruction> &Code = P.Threads[Tid].Code;
      std::unique_ptr<isa::ThreadCfg> Cfg;
      std::unique_ptr<analysis::EscapeAnalysis> EA;
      timed("isa.cfg", 0,
            [&] { Cfg = std::make_unique<isa::ThreadCfg>(Code); });
      timed("analysis.escape", 0, [&] {
        EA = std::make_unique<analysis::EscapeAnalysis>(*Cfg, Code, Tid);
      });
      timed("analysis.lockset", 0, [&] {
        analysis::StaticLockset LS(*Cfg, Code,
                                   static_cast<uint32_t>(P.Mutexes.size()));
      });
      timed("analysis.static_cu", 0, [&] {
        analysis::StaticCuInference U(*Cfg, Code, *EA, [&](uint32_t Pc) {
          return Table.classify(Tid, Pc) != analysis::AccessClass::ThreadLocal;
        });
      });
    }
    timed("vm.translate_build", 0, [&] { vm::TransCache TC(P); });
    C.ProvenCus += Proofs.proven().size();
    C.ThreadLocalSites += analysis::countAccessSites(
        P, Table, analysis::AccessClass::ThreadLocal);
  }
}

void Pass::sample(const Subject &Sub, uint64_t Seed, uint64_t Id) {
  SpanLog::Scope SampleSpan(&L, "sample", Id);
  const isa::Program &P = Sub.W.Program;
  harness::SampleConfig SC;
  SC.Seed = Seed;
  const vm::MachineConfig MC = harness::machineConfigFor(SC);
  std::string Where =
      support::formatString("%s/seed %llu", Sub.W.Name.c_str(),
                            static_cast<unsigned long long>(Seed));

  std::unique_ptr<vm::Machine> M;
  auto Build = [&](const vm::MachineConfig &Cfg) {
    timed("vm.build", Id, [&] {
      M.reset();
      M = std::make_unique<vm::Machine>(P, Cfg);
    });
  };
  // Every run replays the same execution; a step count that differs
  // between them is an engine or observer bug.
  uint64_t Steps = 0;
  auto SameSteps = [&](const char *Run) {
    if (M->steps() != Steps)
      Log.record(false, Where + ": " + Run + " run took a different number "
                                             "of steps than the bare run");
  };

  // vm: bare interpreter, no-op observer dispatch, translated engine.
  Build(MC);
  timed("vm.interp_run", Id, [&] { M->run(); });
  Steps = M->steps();
  C.Insts += Steps;
  C.MemEvents += M->counters().Loads + M->counters().Stores;

  Build(MC);
  CountingObserver Noop;
  M->addObserver(&Noop);
  double NoopNs = timed("vm.noop_run", Id, [&] { M->run(); });
  C.ObservedEvents += Noop.Events;
  SameSteps("no-op observer");

  vm::MachineConfig XMC = MC;
  XMC.Translate = true;
  XMC.Cache = Sub.Cache.get();
  Build(XMC);
  timed("vm.translated_run", Id, [&] { M->run(); });
  SameSteps("translated");

  // svd: the online detector, then the hardware detector, each as the
  // end-to-end loop runs it (the subject's registry config through
  // runSample). The detector's own run + finish time is DetectorSeconds.
  for (const char *D : {"svd", "hwsvd"}) {
    bool Online = std::string(D) == "svd";
    harness::SampleConfig DC = SC;
    DC.Detector = Online ? Sub.Online : Sub.Hw;
    obs::Registry Stats;
    DC.Obs = &Stats;
    harness::SampleMetrics Ms;
    timed(Online ? "svd.online_sample" : "svd.hw_sample", Id,
          [&] { Ms = harness::runSample(Sub.W, D, DC); });
    T[Online ? "svd.online_run" : "svd.hw_run"] += Ms.DetectorSeconds * 1e9;
    timed("bench.check", Id, [&] {
      Log.record(checkSample(Ref, Sub, D, Seed, S.CuBudget != 0, Ms));
    });
    if (!Online) {
      C.HwCus += Ms.CusFormed;
      C.HwReports += Ms.DynamicReports;
      continue;
    }
    C.SvdEvents += counter(Stats, "detect.svd.events");
    C.Pruned += counter(Stats, "svd.cu_pruned_events");
    C.Filtered += counter(Stats, "detect.svd.filtered_loads") +
                  counter(Stats, "detect.svd.filtered_stores");
    C.Cus += Ms.CusFormed;
    C.Reports += Ms.DynamicReports;
    C.ShadowPages += counter(Stats, "shadow.svd.pages");
    C.ShadowBytes += counter(Stats, "shadow.svd.bytes");
    C.BudgetEvictions += Ms.DetectorEvictions;
  }

  // shadow: replay this execution's address stream through one table.
  Build(MC);
  AddressRecorder Addrs;
  M->addObserver(&Addrs);
  timed("shadow.address_record", Id, [&] { M->run(); });
  timed("shadow.replay", Id, [&] {
    shadow::Table<ReplayCell> Tab(P.MemoryWords);
    for (size_t I = 0; I < Addrs.Stream.size(); ++I) {
      uint64_t A = Addrs.Stream[I] >> 1;
      if (Addrs.Stream[I] & 1) {
        ReplayCell &Cell = Tab.touch(A);
        Cell.LastAccess = I;
        ++Cell.Stores;
      } else {
        C.ReplayStoredLoads += Tab.peek(A).Stores != 0;
      }
    }
  });
  timed("bench.check", Id, [&] {
    std::vector<bool> Seen(P.MemoryWords, false);
    for (uint64_t E : Addrs.Stream)
      if (!Seen[E >> 1]) {
        Seen[E >> 1] = true;
        ++C.DistinctAddrs;
      }
    C.Accesses += Addrs.Stream.size();
  });
  timed("vm.teardown", Id, [&] {
    M.reset();
    Addrs.Stream = {};
  });

  if (Steps > OfflineStepCap)
    return;

  // trace, serve codec and ring, PDG, CUs, offline detection.
  T["vm.noop_run.offline"] += NoopNs;
  Build(MC);
  trace::TraceRecorder Rec(P);
  M->addObserver(&Rec);
  timed("trace.record_run", Id, [&] { M->run(); });
  std::optional<trace::ProgramTrace> Trace;
  timed("vm.teardown", Id, [&] {
    Trace.emplace(Rec.takeTrace());
    M.reset();
  });
  const trace::ProgramTrace &Tr = *Trace;
  C.TraceEvents += Tr.size();

  std::string Err;
  bool Valid = false;
  timed("trace.validate", Id, [&] { Valid = trace::validate(Tr, Err); });

  serve::FrameCodec Codec(P, static_cast<uint32_t>(Id));
  std::vector<std::vector<uint8_t>> Frames;
  timed("serve.encode", Id, [&] {
    uint32_t Seq = 0;
    Frames.push_back(Codec.encodeHello());
    for (size_t I = 0; I < Tr.size(); I += FrameEvents)
      Frames.push_back(Codec.encodeEvents(Tr.events().data() + I,
                                          std::min(FrameEvents, Tr.size() - I),
                                          ++Seq));
    Frames.push_back(Codec.encodeEnd(++Seq, Tr.size()));
  });
  C.Frames += Frames.size();
  for (const std::vector<uint8_t> &F : Frames)
    C.WireBytes += F.size();

  std::vector<std::vector<uint8_t>> Delivered;
  timed("serve.ring", Id, [&] {
    serve::SpscRing<std::vector<uint8_t>> Ring(8);
    std::vector<uint8_t> F;
    for (size_t I = 0; I < Frames.size();) {
      while (I < Frames.size() && Ring.tryPush(std::move(Frames[I])))
        ++I;
      while (Ring.tryPop(F))
        Delivered.push_back(std::move(F));
    }
  });

  uint64_t Decoded = 0;
  bool DecodeOk = true;
  timed("serve.decode", Id, [&] {
    serve::DecodedFrame D;
    for (const std::vector<uint8_t> &F : Delivered) {
      DecodeOk &= Codec.decode(F, 0, D).Ok;
      if (D.Op == serve::Opcode::Events)
        Decoded += D.Events.size();
    }
  });

  std::optional<pdg::DynamicPdg> G;
  std::optional<cu::CuPartition> Cus;
  std::vector<detect::Violation> Offline;
  timed("pdg.build", Id, [&] { G.emplace(pdg::DynamicPdg::build(Tr)); });
  timed("cu.partition", Id,
        [&] { Cus.emplace(cu::CuPartition::compute(Tr, *G)); });
  timed("svd.offline_detect", Id,
        [&] { Offline = detect::detectOffline(Tr, *Cus); });
  uint64_t CuCount = Cus->units().size();
  C.OfflineReports += Offline.size();
  timed("trace.teardown", Id, [&] {
    Cus.reset();
    G.reset();
    Delivered = {};
  });

  const Signature *Want = Ref.find(Sub.W.Name, "offline", Seed);
  if (!Valid)
    Log.record(false, Where + ": recorded trace is invalid: " + Err);
  else if (!DecodeOk || Decoded != Tr.size())
    Log.record(false, Where + ": frames did not decode back to the trace");
  else if (!Want)
    Log.record(false, Where + ": no offline reference signature");
  else
    Log.record(Offline.size() == Want->Reports && CuCount == Want->Cus &&
                   Steps == Want->Steps,
               support::formatString(
                   "%s: offline pass differs from the reference (reports "
                   "%zu vs %llu, cus %llu vs %llu)",
                   Where.c_str(), Offline.size(),
                   static_cast<unsigned long long>(Want->Reports),
                   static_cast<unsigned long long>(CuCount),
                   static_cast<unsigned long long>(Want->Cus)));

  serve::SessionInput In;
  In.SessionId = static_cast<uint32_t>(Sessions.size());
  In.Work = &Sub.W;
  In.Seed = Seed;
  In.Machine = MC;
  Sessions.push_back(In);
  SessionEvents.push_back(Tr.size());
}

void Pass::serveRun() {
  if (Sessions.empty())
    return;
  serve::ServeConfig Cfg;
  Cfg.Shards = serveThreads();
  Cfg.Jobs = serveThreads();
  serve::ServeReport R;
  timed("serve.run", 0, [&] { R = serve::runServe(Sessions, Cfg); });
  for (size_t I = 0; I < R.Sessions.size(); ++I) {
    const serve::SessionReport &SR = R.Sessions[I];
    C.ServeEvents += SR.EventsIngested;
    C.BackoffWaits += SR.BackoffWaits;
    std::string Why = checkSession(Ref, SR);
    if (Why.empty() && SR.EventsIngested != SessionEvents[SR.SessionId])
      Why = support::formatString(
          "serve probe session %s/seed %llu: %llu of %llu events ingested",
          SR.Workload.c_str(), static_cast<unsigned long long>(SR.Seed),
          static_cast<unsigned long long>(SR.EventsIngested),
          static_cast<unsigned long long>(SessionEvents[SR.SessionId]));
    Log.record(Why);
  }
  for (const serve::ShardReport &Sh : R.Shards)
    C.ServeMaxShardEvents = std::max(C.ServeMaxShardEvents, Sh.EventsIngested);
  C.ServeShards = R.Shards.size();
}

double ratio(double Num, double Den) { return Den == 0.0 ? 0.0 : Num / Den; }

/// The per-layer metrics of one pass.
std::vector<Metric> derive(const Times &T, const Counts &C) {
  auto Ns = [&](const char *Name) {
    auto It = T.find(Name);
    return It == T.end() ? 0.0 : It->second;
  };
  double Insts = static_cast<double>(C.Insts);
  double Events = static_cast<double>(C.ObservedEvents);
  double TraceEvents = static_cast<double>(C.TraceEvents);
  double Noop = Ns("vm.noop_run");
  double ShardMean = ratio(static_cast<double>(C.ServeEvents),
                           static_cast<double>(C.ServeShards));
  return {
      {"isa.assemble_ms", Ns("isa.assemble") / 1e6, "ms"},
      {"analysis.access_table_ms", Ns("analysis.access_table") / 1e6, "ms"},
      {"analysis.atomic_proof_ms", Ns("analysis.atomic_proof") / 1e6, "ms"},
      {"analysis.escape_ms", Ns("analysis.escape") / 1e6, "ms"},
      {"analysis.value_flow_ms", Ns("analysis.value_flow") / 1e6, "ms"},
      {"analysis.lockset_ms", Ns("analysis.lockset") / 1e6, "ms"},
      {"analysis.static_cu_ms", Ns("analysis.static_cu") / 1e6, "ms"},
      {"analysis.proven_cus", static_cast<double>(C.ProvenCus), "count"},
      {"analysis.thread_local_sites", static_cast<double>(C.ThreadLocalSites),
       "count"},
      {"vm.interp_ns_per_inst", ratio(Ns("vm.interp_run"), Insts), "ns"},
      {"vm.dispatch_ns_per_event", ratio(Noop - Ns("vm.interp_run"), Events),
       "ns"},
      {"vm.translated_ns_per_inst", ratio(Ns("vm.translated_run"), Insts),
       "ns"},
      {"vm.translate_build_us", Ns("vm.translate_build") / 1e3, "us"},
      {"vm.insts", Insts, "count"},
      {"svd.online_ns_per_event", ratio(Ns("svd.online_run") - Noop, Events),
       "ns"},
      {"svd.hw_ns_per_event", ratio(Ns("svd.hw_run") - Noop, Events), "ns"},
      {"svd.hw_insts_per_s", ratio(Insts, Ns("svd.hw_run") / 1e9), "insts/s"},
      {"svd.events", static_cast<double>(C.SvdEvents), "count"},
      {"svd.pruned_events", static_cast<double>(C.Pruned), "count"},
      {"svd.filtered_events", static_cast<double>(C.Filtered), "count"},
      {"svd.cus_formed", static_cast<double>(C.Cus), "count"},
      {"svd.reports", static_cast<double>(C.Reports), "count"},
      {"svd.skip_ratio",
       ratio(static_cast<double>(C.Pruned + C.Filtered),
             static_cast<double>(C.MemEvents)),
       "ratio"},
      {"svd.skipped_event_share",
       ratio(static_cast<double>(C.Pruned + C.Filtered),
             static_cast<double>(C.SvdEvents)),
       "ratio"},
      {"svd.offline_detect_ns_per_event",
       ratio(Ns("svd.offline_detect"), TraceEvents), "ns"},
      {"shadow.touch_ns",
       ratio(Ns("shadow.replay"), static_cast<double>(C.Accesses)), "ns"},
      {"shadow.pages", static_cast<double>(C.ShadowPages), "count"},
      {"shadow.bytes_per_addr",
       ratio(static_cast<double>(C.ShadowBytes),
             static_cast<double>(C.DistinctAddrs)),
       "bytes"},
      {"shadow.budget_evictions", static_cast<double>(C.BudgetEvictions),
       "count"},
      {"trace.record_ns_per_event",
       ratio(Ns("trace.record_run") - Ns("vm.noop_run.offline"), TraceEvents),
       "ns"},
      {"trace.validate_ns_per_event", ratio(Ns("trace.validate"), TraceEvents),
       "ns"},
      {"serve.encode_ns_per_event", ratio(Ns("serve.encode"), TraceEvents),
       "ns"},
      {"serve.decode_ns_per_event", ratio(Ns("serve.decode"), TraceEvents),
       "ns"},
      {"serve.ring_ns_per_frame",
       ratio(Ns("serve.ring"), static_cast<double>(C.Frames)), "ns"},
      {"serve.frames", static_cast<double>(C.Frames), "count"},
      {"serve.wire_bytes", static_cast<double>(C.WireBytes), "bytes"},
      {"serve.shard_skew",
       ratio(static_cast<double>(C.ServeMaxShardEvents), ShardMean), "ratio"},
      {"serve.backoff_waits", static_cast<double>(C.BackoffWaits), "count"},
      {"serve.events_per_s",
       ratio(static_cast<double>(C.ServeEvents), Ns("serve.run") / 1e9),
       "events/s"},
      {"pdg.build_ns_per_event", ratio(Ns("pdg.build"), TraceEvents), "ns"},
      {"cu.partition_ns_per_event", ratio(Ns("cu.partition"), TraceEvents),
       "ns"},
  };
}

/// Probe sample seeds per program: enough work per pass to time each
/// layer, few enough for several passes in a run.
uint64_t probeSeeds(WorkloadKind K) {
  return K == WorkloadKind::SparseHeap ? 1 : 2;
}

} // namespace

std::vector<Metric> perfbench::runLayers(const Setup &S, const SeedPlan &Plan,
                                         double Seconds, const Reference &Ref,
                                         VerdictLog &Log, SpanLog &Spans) {
  auto T0 = Clock::now();
  size_t FirstSpan = Spans.spans().size();
  std::vector<std::vector<Metric>> PerPass;
  std::optional<Counts> First;
  const size_t MinPasses = 2, MaxPasses = 25;
  while (PerPass.size() < MinPasses ||
         (PerPass.size() < MaxPasses && secondsSince(T0) < 0.7 * Seconds)) {
    Pass P(S, Ref, Log, Spans);
    {
      SpanLog::Scope Sp(&Spans, "pass", 0);
      P.staticLayers();
      uint64_t Id = 0;
      for (uint64_t K = 0; K < probeSeeds(S.Kind); ++K)
        for (const auto &Sub : S.Subjects)
          P.sample(*Sub, Plan.sampleSeed(K), ++Id);
      P.serveRun();
    }
    if (!First)
      First = P.C;
    Log.record(P.C == *First,
               support::formatString("pass %zu: layer counts differ from "
                                     "the first pass",
                                     PerPass.size()));
    PerPass.push_back(derive(P.T, P.C));
  }

  // Each layer's span self time, and how much of each probe sample's
  // wall time the layer spans account for.
  uint64_t SampleNs = 0, CoveredNs = 0;
  for (size_t I = FirstSpan; I < Spans.spans().size(); ++I)
    if (Spans.spans()[I].Name == "sample") {
      SampleNs += Spans.spans()[I].durNs();
      CoveredNs += Spans.childNs(I);
    }
  double Coverage = ratio(static_cast<double>(CoveredNs),
                          static_cast<double>(SampleNs));
  Log.record(Coverage >= 0.95,
             support::formatString("layer spans cover only %.3f of the "
                                   "probe samples' wall time",
                                   Coverage));
  std::printf("layer self time over %zu passes (ms):\n", PerPass.size());
  for (const auto &[Name, Ns] : Spans.selfTimeByName(FirstSpan))
    std::printf("  %-28s %12.3f\n", Name.c_str(),
                static_cast<double>(Ns) / 1e6);

  std::vector<Metric> Out;
  for (size_t M = 0; M < PerPass.front().size(); ++M) {
    std::vector<double> V;
    for (const std::vector<Metric> &P : PerPass)
      V.push_back(P[M].Value);
    Metric Med = PerPass.front()[M];
    Med.Value = percentile(V, 50);
    Out.push_back(Med);
  }
  Out.push_back({"bench.layer_passes", static_cast<double>(PerPass.size()),
                 "count"});
  Out.push_back({"bench.span_coverage", Coverage, "ratio"});

  // Tracing overhead: the same end-to-end rounds untraced and traced,
  // alternating so drift on the host hits both sides alike.
  uint64_t InstsOff = 0, InstsOn = 0;
  double SecOff = 0.0, SecOn = 0.0;
  for (uint64_t Round = 0; Round < 2 || secondsSince(T0) < Seconds; ++Round) {
    EndToEndStats Off = runEndToEnd(S, Plan, Round, 0.0, 1, Ref, Log, nullptr);
    EndToEndStats On = runEndToEnd(S, Plan, Round, 0.0, 1, Ref, Log, &Spans);
    InstsOff += Off.Insts;
    SecOff += Off.TimedSeconds;
    InstsOn += On.Insts;
    SecOn += On.TimedSeconds;
  }
  double RateOff = ratio(static_cast<double>(InstsOff), SecOff);
  double RateOn = ratio(static_cast<double>(InstsOn), SecOn);
  Out.push_back({"bench.trace_overhead_pct",
                 100.0 * ratio(RateOff - RateOn, RateOff), "%"});
  return Out;
}
