//===----------------------------------------------------------------------===//
//
// Part of the convgen benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads. Each builds its inputs and oracle outputs from the
/// seed (untimed), sets the program up RunConfig::setupReps() times from an
/// empty cache directory (timed; the median is setup_s), then measures for
/// RunConfig::Seconds. A traced run measures half the time untraced and
/// half with spans, and reports the per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Harness.h"

namespace perfbench {

/// Paper Table 3: seven pairs over the 21 Table 2 stand-ins, generated
/// routine (warm PlanCache::jit handle, runRaw) against the SPARSKIT and
/// MKL-like ports, one OpenMP thread.
Outcome runTable3(const RunConfig &Cfg, Tally &Ops);

/// Small requests through ConversionService::convert from two closed-loop
/// clients.
Outcome runServiceMix(const RunConfig &Cfg, Tally &Ops);

/// Large order-3 CSF assembly through ConversionService::convert from one
/// client.
Outcome runTensor3(const RunConfig &Cfg, Tally &Ops);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
