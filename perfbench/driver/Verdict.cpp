//===- perfbench/driver/Verdict.cpp ---------------------------------------===//

#include "Verdict.h"

#include "support/StringUtils.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

using namespace perfbench;
using namespace svd;

void VerdictLog::record(bool Ok, const std::string &Why) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Diags.size() < 16)
    Diags.push_back(Why);
}

namespace {

class Fnv {
public:
  void add(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xFF;
      H *= 0x100000001B3ULL;
    }
  }
  uint64_t value() const { return H; }

private:
  uint64_t H = 0xCBF29CE484222325ULL;
};

Signature finish(uint64_t Steps, uint64_t Reports, uint64_t Cus,
                 bool Manifested, const std::vector<uint64_t> &TrueKeys,
                 const std::vector<uint64_t> &FalseKeys) {
  Signature S;
  S.Steps = Steps;
  S.Reports = Reports;
  S.Cus = Cus;
  S.Manifested = Manifested;
  Fnv F;
  F.add(Steps);
  F.add(Reports);
  F.add(Cus);
  F.add(Manifested);
  F.add(TrueKeys.size());
  for (uint64_t K : TrueKeys)
    F.add(K);
  F.add(FalseKeys.size());
  for (uint64_t K : FalseKeys)
    F.add(K);
  S.Hash = F.value();
  return S;
}

} // namespace

Signature perfbench::signatureOf(const harness::SampleMetrics &M) {
  return finish(M.Steps, M.DynamicReports, M.CusFormed, M.Manifested,
                M.StaticTrueKeys, M.StaticFalseKeys);
}

Signature perfbench::signatureOf(const serve::SessionReport &R) {
  return finish(R.Steps, R.DynamicReports, R.CusFormed, R.Manifested,
                R.StaticTrueKeys, R.StaticFalseKeys);
}

bool Reference::load(const std::string &Path, std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot read verdict reference '" + Path + "'";
    return false;
  }
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream L(Line);
    std::string Program, Detector, HashHex;
    uint64_t Seed = 0;
    Signature S;
    int Manifested = 0;
    if (!(L >> Program >> Detector >> Seed >> S.Steps >> S.Reports >>
          S.Cus >> Manifested >> HashHex)) {
      Err = support::formatString("%s:%zu: malformed reference line",
                                  Path.c_str(), LineNo);
      return false;
    }
    S.Manifested = Manifested != 0;
    S.Hash = std::strtoull(HashHex.c_str(), nullptr, 16);
    set(Program, Detector, Seed, S);
  }
  if (Sigs.empty()) {
    Err = "verdict reference '" + Path + "' is empty";
    return false;
  }
  return true;
}

const Signature *Reference::find(const std::string &Program,
                                 const std::string &Detector,
                                 uint64_t Seed) const {
  auto It = Sigs.find({Program, Detector, Seed});
  return It == Sigs.end() ? nullptr : &It->second;
}

void Reference::set(const std::string &Program, const std::string &Detector,
                    uint64_t Seed, const Signature &S) {
  Sigs[{Program, Detector, Seed}] = S;
}

std::string Reference::serialize() const {
  std::string Out = "# program detector seed steps reports cus manifested "
                    "signature-hash\n";
  for (const auto &[Key, S] : Sigs)
    Out += support::formatString(
        "%s %s %llu %llu %llu %llu %d %016llx\n", std::get<0>(Key).c_str(),
        std::get<1>(Key).c_str(),
        static_cast<unsigned long long>(std::get<2>(Key)),
        static_cast<unsigned long long>(S.Steps),
        static_cast<unsigned long long>(S.Reports),
        static_cast<unsigned long long>(S.Cus), S.Manifested ? 1 : 0,
        static_cast<unsigned long long>(S.Hash));
  return Out;
}

namespace {

std::string compare(const Reference &Ref, const std::string &Where,
                    const std::string &Program, const std::string &Detector,
                    uint64_t Seed, const Signature &Got) {
  const Signature *Want = Ref.find(Program, Detector, Seed);
  if (!Want)
    return Where + ": no reference signature";
  if (!(*Want == Got))
    return support::formatString(
        "%s: signature differs from the reference (steps %llu vs %llu, "
        "reports %llu vs %llu, cus %llu vs %llu)",
        Where.c_str(), static_cast<unsigned long long>(Got.Steps),
        static_cast<unsigned long long>(Want->Steps),
        static_cast<unsigned long long>(Got.Reports),
        static_cast<unsigned long long>(Want->Reports),
        static_cast<unsigned long long>(Got.Cus),
        static_cast<unsigned long long>(Want->Cus));
  return "";
}

} // namespace

std::string perfbench::checkSample(const Reference &Ref, const Subject &Sub,
                                   const std::string &Detector,
                                   uint64_t Seed, bool BudgetSet,
                                   const harness::SampleMetrics &M) {
  std::string Where = support::formatString(
      "%s/%s/seed %llu", Sub.W.Name.c_str(), Detector.c_str(),
      static_cast<unsigned long long>(Seed));
  if (M.Stop != vm::StopReason::AllHalted)
    return Where + ": run did not stop AllHalted";
  if (M.DetectorDegraded && !BudgetSet)
    return Where + ": detector degraded without a budget";
  return compare(Ref, Where, Sub.W.Name, Detector, Seed, signatureOf(M));
}

std::string perfbench::checkSession(const Reference &Ref,
                                    const serve::SessionReport &R) {
  std::string Where = support::formatString(
      "serve session %s/seed %llu", R.Workload.c_str(),
      static_cast<unsigned long long>(R.Seed));
  if (R.Outcome != serve::SessionOutcome::Ok)
    return Where + ": outcome " + serve::sessionOutcomeName(R.Outcome);
  return compare(Ref, Where, R.Workload, "offline", R.Seed, signatureOf(R));
}

bool perfbench::sameReports(const harness::SampleMetrics &A,
                            const harness::SampleMetrics &B) {
  return A.Steps == B.Steps && A.DynamicReports == B.DynamicReports &&
         A.DynamicTrue == B.DynamicTrue && A.DynamicFalse == B.DynamicFalse &&
         A.StaticTrueKeys == B.StaticTrueKeys &&
         A.StaticFalseKeys == B.StaticFalseKeys;
}

int perfbench::writeReference(WorkloadKind K, const std::string &Path) {
  Setup S = buildSetup(K, nullptr);
  struct Job {
    const Subject *Sub;
    const char *Detector;
    uint64_t Seed;
  };
  Reference Ref;
  std::mutex M;
  auto RunAll = [&](const std::vector<Job> &Jobs) {
    std::atomic<size_t> Next{0};
    auto Worker = [&] {
      for (size_t I; (I = Next.fetch_add(1)) < Jobs.size();) {
        const Job &J = Jobs[I];
        harness::SampleConfig C;
        C.Seed = J.Seed;
        std::string D = J.Detector;
        if (D == "svd")
          C.Detector = J.Sub->Online;
        else if (D == "hwsvd")
          C.Detector = J.Sub->Hw;
        harness::SampleMetrics Ms = harness::runSample(J.Sub->W, D, C);
        std::lock_guard<std::mutex> G(M);
        Ref.set(J.Sub->W.Name, D, J.Seed, signatureOf(Ms));
      }
    };
    std::vector<std::thread> Ts;
    for (unsigned T = 0; T < nproc(); ++T)
      Ts.emplace_back(Worker);
    for (std::thread &T : Ts)
      T.join();
  };

  std::vector<Job> Online;
  for (const auto &Sub : S.Subjects)
    for (const char *D : {"svd", "hwsvd"})
      for (uint64_t Seed = 1; Seed <= seedUniverse(K); ++Seed)
        Online.push_back({Sub.get(), D, Seed});
  RunAll(Online);
  // The offline rows, for the samples the offline path takes.
  std::vector<Job> Offline;
  for (const auto &Sub : S.Subjects)
    for (uint64_t Seed = 1; Seed <= seedUniverse(K); ++Seed)
      if (Ref.find(Sub->W.Name, "svd", Seed)->Steps <= OfflineStepCap)
        Offline.push_back({Sub.get(), "offline", Seed});
  RunAll(Offline);

  std::ofstream Out(Path);
  Out << Ref.serialize();
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return 1;
  }
  return 0;
}
