//===- tools/bench_diff.cpp - Compare perf-bench JSON baselines -----------===//
//
// Compares two `svd-bench --suite table1 --perf --json` documents —
// typically the committed BENCH_table1.json baseline against a fresh
// run — field by field:
//
//   svd-bench-diff BASELINE.json CURRENT.json
//
// Every field in a row is deterministic (a pure function of the
// workload and the fixed perf seed) except the wall-clock rates.
// Deterministic fields must match byte-for-byte: row names, order and
// count, threads, static_instrs, dynamic_instrs, known_bug, events,
// pruned_events, filtered_events, proven_cus and pruned_pct. Any
// *_per_sec field (insts_per_sec, vm_insts_per_sec, the serve
// suite's events_per_sec) is advisory — its drift is printed but never
// fails the diff (CI machines differ; the committed number is a point
// of reference, not a contract).
//
// Exit status: 0 when the deterministic fields match, 1 when they
// drifted, 2 on usage errors or malformed input.
//
//===----------------------------------------------------------------------===//

#include "support/Cli.h"
#include "support/Json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

using namespace svd;

namespace {

const char *Usage =
    "usage: svd-bench-diff BASELINE.json CURRENT.json\n"
    "  Compares two `svd-bench --suite <suite> --perf --json` documents.\n"
    "  Deterministic fields must match exactly; *_per_sec drift is\n"
    "  reported but never fails the diff.\n";

/// One row as ordered (key, raw-value) pairs; raw values keep their
/// JSON spelling so the comparison is a plain string equality.
using Row = std::vector<std::pair<std::string, std::string>>;

/// Reads \p Path fully; exits with a diagnostic when unreadable.
std::string readFileOrDie(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    std::fprintf(stderr, "svd-bench-diff: cannot read '%s'\n", Path.c_str());
    std::exit(support::ExitUsage);
  }
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fclose(F);
  return Out;
}

[[noreturn]] void malformed(const std::string &Path, const char *What) {
  std::fprintf(stderr, "svd-bench-diff: '%s' is not a perf-bench document: %s\n",
               Path.c_str(), What);
  std::exit(support::ExitUsage);
}

/// Parses the flat (key, scalar) pairs of one row object. Row values
/// are scalars only — strings without escapes, numbers, booleans — so
/// a linear scan suffices.
Row parseRow(const std::string &Doc, size_t Begin, size_t End,
             const std::string &Path) {
  Row R;
  size_t I = Begin;
  while (I < End) {
    size_t KeyStart = Doc.find('"', I);
    if (KeyStart == std::string::npos || KeyStart >= End)
      break;
    size_t KeyEnd = Doc.find('"', KeyStart + 1);
    if (KeyEnd == std::string::npos || KeyEnd >= End)
      malformed(Path, "unterminated row key");
    std::string Key = Doc.substr(KeyStart + 1, KeyEnd - KeyStart - 1);
    size_t Colon = Doc.find(':', KeyEnd);
    if (Colon == std::string::npos || Colon >= End)
      malformed(Path, "row key without value");
    size_t ValStart = Colon + 1;
    size_t ValEnd;
    if (Doc[ValStart] == '"') {
      ValEnd = Doc.find('"', ValStart + 1);
      if (ValEnd == std::string::npos || ValEnd >= End)
        malformed(Path, "unterminated row string value");
      ++ValEnd;
    } else {
      ValEnd = Doc.find_first_of(",}", ValStart);
      if (ValEnd == std::string::npos || ValEnd > End)
        malformed(Path, "unterminated row value");
    }
    R.emplace_back(std::move(Key), Doc.substr(ValStart, ValEnd - ValStart));
    I = ValEnd + 1;
  }
  if (R.empty())
    malformed(Path, "empty row object");
  return R;
}

/// Extracts the rows array of a validated perf-bench document.
std::vector<Row> parseRows(const std::string &Doc, const std::string &Path) {
  std::string Err;
  if (!support::jsonValidate(Doc, &Err))
    malformed(Path, Err.c_str());
  size_t RowsAt = Doc.find("\"rows\":[");
  if (RowsAt == std::string::npos)
    malformed(Path, "no \"rows\" array");
  std::vector<Row> Rows;
  size_t I = RowsAt + 8;
  while (I < Doc.size() && Doc[I] != ']') {
    if (Doc[I] != '{') {
      ++I;
      continue;
    }
    size_t Close = Doc.find('}', I);
    if (Close == std::string::npos)
      malformed(Path, "unterminated row object");
    Rows.push_back(parseRow(Doc, I + 1, Close, Path));
    I = Close + 1;
  }
  if (Rows.empty())
    malformed(Path, "empty \"rows\" array");
  return Rows;
}

const std::string *findField(const Row &R, const std::string &Key) {
  for (const auto &KV : R)
    if (KV.first == Key)
      return &KV.second;
  return nullptr;
}

std::string rowName(const Row &R) {
  const std::string *N = findField(R, "name");
  return N ? *N : "<unnamed>";
}

} // namespace

int main(int Argc, char **Argv) {
  support::ArgParser P(Usage);
  if (!P.parse(Argc, Argv) || P.positional().size() != 2)
    return P.usageError();
  const std::string &BasePath = P.positional()[0];
  const std::string &CurPath = P.positional()[1];

  std::vector<Row> Base = parseRows(readFileOrDie(BasePath), BasePath);
  std::vector<Row> Cur = parseRows(readFileOrDie(CurPath), CurPath);

  unsigned Drifts = 0;
  if (Base.size() != Cur.size()) {
    std::printf("DRIFT row count: baseline has %zu rows, current has %zu\n",
                Base.size(), Cur.size());
    ++Drifts;
  }
  size_t N = Base.size() < Cur.size() ? Base.size() : Cur.size();
  for (size_t I = 0; I < N; ++I) {
    const Row &B = Base[I];
    const Row &C = Cur[I];
    // Keys and their order are part of the schema: a field appearing,
    // vanishing, or moving is drift even when shared fields agree.
    for (size_t K = 0; K < B.size() || K < C.size(); ++K) {
      if (K >= B.size() || K >= C.size() ||
          B[K].first != C[K].first) {
        std::printf("DRIFT row %zu (%s): field set differs at position %zu "
                    "(baseline %s, current %s)\n",
                    I, rowName(B).c_str(), K,
                    K < B.size() ? B[K].first.c_str() : "<absent>",
                    K < C.size() ? C[K].first.c_str() : "<absent>");
        ++Drifts;
        break;
      }
      const std::string &Key = B[K].first;
      const std::string &BV = B[K].second;
      const std::string &CV = C[K].second;
      if (Key.find("_per_sec") != std::string::npos) {
        double BR = std::atof(BV.c_str());
        double CR = std::atof(CV.c_str());
        double Pct = BR > 0 ? 100.0 * (CR - BR) / BR : 0.0;
        std::printf("note  row %zu (%s): %s %s -> %s (%+.1f%%, "
                    "advisory)\n",
                    I, rowName(B).c_str(), Key.c_str(), BV.c_str(),
                    CV.c_str(), Pct);
        continue;
      }
      if (BV != CV) {
        std::printf("DRIFT row %zu (%s): %s was %s, now %s\n", I,
                    rowName(B).c_str(), Key.c_str(), BV.c_str(), CV.c_str());
        ++Drifts;
      }
    }
  }

  if (Drifts) {
    std::printf("svd-bench-diff: %u deterministic field(s) drifted from %s\n",
                Drifts, BasePath.c_str());
    return support::ExitFindings;
  }
  std::printf("svd-bench-diff: deterministic fields match %s\n",
              BasePath.c_str());
  return support::ExitClean;
}
