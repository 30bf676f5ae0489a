// The traced run's per-layer metrics: the traced round's request stream
// replayed one layer deeper at a time through each module's public
// functions, plus the engine-level paths measured cell by cell.
#pragma once

#include <cstddef>
#include <vector>

#include "bench.h"
#include "workloads.h"

namespace perfbench {

/// Appends every per-layer metric to `out`. `traced` are the traced rounds
/// (the last one still holds its plan and stack); `untraced` the rounds
/// run with tracing off, for the tracing overhead. Failed replay checks
/// (bytes that differ from what the socket returned) are added to
/// `*failed`.
void measure_layers(const RoundSet& untraced, RoundSet& traced,
                    Tracer& tracer,
                    std::vector<Metric>* out, std::size_t* failed);

}  // namespace perfbench
