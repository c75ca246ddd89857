//===- perfbench/driver/Spans.cpp -----------------------------------------===//

#include "Spans.h"

#include "obs/ChromeTrace.h"

#include <fstream>

using namespace perfbench;

SpanLog::Scope::Scope(SpanLog *L, const char *Name, uint64_t Id) : Log(L) {
  if (!Log)
    return;
  Span S;
  S.Name = Name;
  S.Parent = Log->Open;
  S.Id = Id;
  Index = static_cast<int32_t>(Log->Spans.size());
  Log->Spans.push_back(std::move(S));
  Log->ChildNs.push_back(0);
  Log->Open = Index;
  // Stamp last so the bookkeeping above is not inside the span.
  Log->Spans[static_cast<size_t>(Index)].StartNs = Log->nowNs();
}

SpanLog::Scope::~Scope() {
  if (!Log)
    return;
  uint64_t End = Log->nowNs();
  Span &S = Log->Spans[static_cast<size_t>(Index)];
  S.EndNs = End;
  if (S.Parent >= 0)
    Log->ChildNs[static_cast<size_t>(S.Parent)] += S.durNs();
  Log->Open = S.Parent;
}

uint64_t SpanLog::nowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Epoch)
          .count());
}

uint64_t SpanLog::selfNs(size_t I) const {
  uint64_t Dur = Spans[I].durNs();
  return Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
}

std::map<std::string, uint64_t> SpanLog::selfTimeByName(size_t From) const {
  std::map<std::string, uint64_t> Out;
  for (size_t I = From; I < Spans.size(); ++I)
    Out[Spans[I].Name] += selfNs(I);
  return Out;
}

bool SpanLog::writeChromeTrace(const std::string &Path) const {
  svd::obs::TraceCollector C;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    svd::obs::TraceSpan T;
    T.Name = S.Name;
    T.Cat = "perfbench";
    T.Track = static_cast<uint32_t>(S.Id);
    T.StartNs = S.StartNs;
    T.DurNs = S.durNs();
    T.Args = {{"span", std::to_string(I)},
              {"parent", std::to_string(S.Parent)},
              {"self_ns", std::to_string(selfNs(I))}};
    C.add(std::move(T));
  }
  std::ofstream Out(Path);
  Out << C.chromeTraceJson();
  return static_cast<bool>(Out);
}
