//===- perfbench/driver/Layers.h - Traced per-layer run ---------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run. It times every layer from outside, one span around
/// each public call, over a fixed probe set of the workload's programs
/// and sample seeds, and repeats that pass until its time is up:
///
///  * timings are the median over passes, per-event costs are the
///    difference between runs that add one layer (bare machine, no-op
///    observer, detector) divided by the events of the probe set;
///  * counts must repeat bit-for-bit in every pass, or the run fails;
///  * the end-to-end loop then runs twice over the same rounds, untraced
///    and traced, and the difference is the tracing overhead.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Bench.h"
#include "Verdict.h"

#include <vector>

namespace perfbench {

/// Runs the traced layer passes for about \p Seconds and returns every
/// per-layer metric. Failed checks go to \p Log; spans to \p Spans.
std::vector<Metric> runLayers(const Setup &S, const SeedPlan &Plan,
                              double Seconds, const Reference &Ref,
                              VerdictLog &Log, SpanLog &Spans);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
