//===- perfbench/driver/Verdict.h - Verdict checks --------------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every operation the benchmark times is also checked, and a failed
/// check counts against `failed` / `attempted`:
///
///  * a detection sample must stop AllHalted, must not degrade unless a
///    CU budget is set, and its signature (steps, dynamic reports, CUs
///    formed, manifested, static true / false report keys) must equal the
///    committed reference for (program, detector, sample seed);
///  * on `proven`, its reports must also equal the same sample run
///    without static proofs;
///  * a serve session must end Ok, and its detection signature must equal
///    the committed reference of the batch "offline" detector for
///    (program, seed).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_VERDICT_H
#define PERFBENCH_VERDICT_H

#include "Bench.h"

#include "harness/Harness.h"
#include "serve/Serve.h"

#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace perfbench {

/// Failed / attempted operations of one run, plus the first diagnostics.
class VerdictLog {
public:
  void record(bool Ok, const std::string &Why);
  /// Records an operation that failed when \p Why is non-empty.
  void record(const std::string &Why) { record(Why.empty(), Why); }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  const std::vector<std::string> &diagnostics() const { return Diags; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Diags;
};

/// The deterministic outcome of one detection sample.
struct Signature {
  uint64_t Steps = 0;
  uint64_t Reports = 0;
  uint64_t Cus = 0;
  bool Manifested = false;
  /// FNV-1a over all fields above plus the sorted static report keys.
  uint64_t Hash = 0;

  bool operator==(const Signature &O) const {
    return Steps == O.Steps && Reports == O.Reports && Cus == O.Cus &&
           Manifested == O.Manifested && Hash == O.Hash;
  }
};

/// Signature of a harness::runSample result.
Signature signatureOf(const svd::harness::SampleMetrics &M);

/// Signature of a serve session: the same fields, so a session compares
/// against the reference row of the "offline" detector.
Signature signatureOf(const svd::serve::SessionReport &R);

/// The committed reference: one signature per (program, detector, seed).
class Reference {
public:
  /// Loads a file written by serialize(); false with \p Err on failure.
  bool load(const std::string &Path, std::string &Err);
  const Signature *find(const std::string &Program,
                        const std::string &Detector, uint64_t Seed) const;
  void set(const std::string &Program, const std::string &Detector,
           uint64_t Seed, const Signature &S);
  std::string serialize() const;

private:
  std::map<std::tuple<std::string, std::string, uint64_t>, Signature> Sigs;
};

/// Checks one detection sample: clean stop, no degradation without a
/// budget, and the reference signature. Returns why it failed, or an
/// empty string when it passed.
std::string checkSample(const Reference &Ref, const Subject &Sub,
                        const std::string &Detector, uint64_t Seed,
                        bool BudgetSet,
                        const svd::harness::SampleMetrics &M);

/// Checks one serve session: outcome Ok and the reference signature of
/// the "offline" detector for its (program, seed). Returns why it
/// failed, or an empty string when it passed.
std::string checkSession(const Reference &Ref,
                         const svd::serve::SessionReport &R);

/// True when two runs of one sample produced the same reports.
bool sameReports(const svd::harness::SampleMetrics &A,
                 const svd::harness::SampleMetrics &B);

/// Regenerates the reference of workload \p K into \p Path: "svd" and
/// "hwsvd" for every program and seed in the universe, and "offline"
/// wherever the sample is short enough for the offline path (at most
/// OfflineStepCap steps).
int writeReference(WorkloadKind K, const std::string &Path);

} // namespace perfbench

#endif // PERFBENCH_VERDICT_H
