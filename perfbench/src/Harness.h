//===----------------------------------------------------------------------===//
//
// Part of the convgen benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing of the benchmark binary: run configuration, the metric
/// tables, output checking against the oracle, order statistics, per-run
/// cache isolation, and the span recorder of the traced run.
///
/// Spans are recorded only by the benchmark, around its calls into each
/// layer's public functions; nothing inside libconvgen is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "convert/PlanCache.h"
#include "jit/Jit.h"
#include "service/ConversionService.h"
#include "tensor/SparseTensor.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Smoke-test sizes: every workload at a few thousand nonzeros.
  bool Tiny = false;
  /// Flips one value of one expected output (proves the checker fires).
  bool CorruptOracle = false;
  /// Fresh, empty cache directories are created below this root.
  std::string CacheRoot;
  std::string SpansOut;
  /// Timed set-ups per run; setup_s is their median.
  int setupReps() const { return Tiny ? 1 : 3; }
};

/// Name -> (value, unit), in emission order.
class Metrics {
public:
  void set(const std::string &Name, double Value);
  /// NaN when \p Name was never set, so a metric a workload forgets to
  /// compute fails the result check instead of reading 0.
  double get(const std::string &Name) const;
  bool has(const std::string &Name) const;
  /// Sets to 0 every per-layer metric that starts with one of \p Prefixes
  /// and is still unset: the layers a workload bypasses.
  void bypass(std::initializer_list<const char *> Prefixes);
  /// The JSON object body `"name": {"value": v, "unit": "u"}, ...`;
  /// non-finite values print as NaN / Infinity.
  std::string json() const;

private:
  std::vector<std::pair<std::string, double>> Items;
};

/// Every end-to-end metric (printed with tracing off) and every per-layer
/// metric (printed by the traced run), with units. Each workload reports
/// all of them; a layer a workload bypasses reads 0 (Metrics::bypass).
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/// Operations attempted / failed. A failure is an error Status, an output
/// that is not bit-identical to the oracle, or a run served by a degraded
/// (interpreter-backed) handle.
struct Tally {
  std::atomic<uint64_t> Attempted{0};
  std::atomic<uint64_t> Failed{0};
  void record(bool Ok) {
    Attempted.fetch_add(1, std::memory_order_relaxed);
    if (!Ok)
      Failed.fetch_add(1, std::memory_order_relaxed);
  }
};

struct Outcome {
  bool Correct = true;
  std::vector<std::string> Problems;
  Metrics EndToEnd;
  Metrics PerLayer;
  void fail(const std::string &Why) {
    Correct = false;
    Problems.push_back(Why);
  }
};

/// Bit-exact comparison of two tensors: format name, dims, every level's
/// pos/crd/perm arrays and size parameter, and the value bits.
bool sameTensor(const convgen::tensor::SparseTensor &A,
                const convgen::tensor::SparseTensor &B);

/// Bytes of every stored array of \p T (pos/crd/perm int32, vals double).
double tensorBytes(const convgen::tensor::SparseTensor &T);

/// Returns a copy of \p T with its first stored value changed.
std::shared_ptr<convgen::tensor::SparseTensor>
corrupted(const convgen::tensor::SparseTensor &T);

double median(std::vector<double> V);
/// Linear-interpolated quantile, \p Q in [0, 1].
double quantile(std::vector<double> V, double Q);
double geomean(const std::vector<double> &V);

/// A cell's time: the lower quartile of its samples. On a shared host,
/// other tenants' load comes in bursts of seconds; the lower quartile
/// still reads the cell's own cost while a burst covers up to three
/// quarters of the run, where the median would not.
inline double cellTime(std::vector<double> Samples) {
  return quantile(std::move(Samples), 0.25);
}

/// The program's own resident memory, read from /proc/self (Linux).
/// mark() records the resident size as the baseline: the benchmark's
/// inputs and oracle outputs, built before it. restart() returns freed heap
/// to the system and resets the kernel's resident high-water mark. note()
/// returns the high-water mark since then above the baseline, in MiB (NaN
/// without a baseline), and folds it into peakMiB().
class RssPeak {
public:
  bool mark();
  bool restart();
  double note();
  double peakMiB() const { return Peak; }

private:
  double BaseKiB = -1;
  double Peak = std::numeric_limits<double>::quiet_NaN();
};

/// rss_mb_geomean, the geomean of the per-operation marks \p MiB (each
/// RssPeak::note() after one operation run alone), and peak_rss_mb, the
/// largest mark of the run (set-up included).
void setMemoryMetrics(Outcome &Out, const RssPeak &Rss,
                      const std::vector<double> &MiB);

/// Gives \p V room for \p N elements and touches it, so that recording up
/// to N samples later allocates nothing. Called before RssPeak::mark(),
/// it keeps the benchmark's own sample logs out of peak_rss_mb.
template <typename T> void presize(std::vector<T> &V, size_t N) {
  V.assign(N, T());
  V.clear();
}

/// Points the process at a fresh, empty cache directory and drops every
/// in-memory plan, JIT handle and planner outcome, so the next
/// acquisitions run codegen and the external compiler as a new process
/// would. Returns false when the directory cannot be created.
bool isolateCache(const std::string &Dir);

/// Counter deltas over a measured interval.
convgen::convert::PlanCacheStats
cacheDelta(const convgen::convert::PlanCacheStats &Before,
           const convgen::convert::PlanCacheStats &After);

/// What the timed set-up repetitions of one run measured.
struct SetupLog {
  std::vector<double> Seconds;  ///< Per repetition.
  std::vector<double> PlanMs;   ///< Per PlanCache::tryPlan miss.
  std::vector<double> CompileS; ///< Per repetition: external-compiler time.
  std::vector<double> Compiles; ///< Per repetition: tryJit misses that ran
                                ///< the compiler.
  double RepCompileS = 0, RepCompiles = 0;
  void endRep(double Seconds);
  /// setup_s, codegen.plan_ms, jit.compile_s and jit.compiles.
  void report(Outcome &Out) const;
};

/// PlanCache::tryPlan, timing a miss into \p Log. False (and \p Out
/// failed) on an error.
bool acquirePlan(const convgen::formats::Format &Src,
                 const convgen::formats::Format &Dst,
                 const convgen::codegen::Options &Opts, SetupLog &Log,
                 Outcome &Out);

/// Acquires the JIT handle for one plan as the runtime would (tryPlan,
/// then tryJit), timing the plan miss and counting the compile in \p Log.
/// Returns null (and fails \p Out) on an error or a degraded handle.
std::shared_ptr<convgen::jit::JitConversion>
acquireHandle(const convgen::formats::Format &Src,
              const convgen::formats::Format &Dst,
              const convgen::codegen::Options &Opts, SetupLog &Log,
              Outcome &Out);

/// 64-bit mix of the workload seed with a stable label.
uint64_t mixSeed(uint64_t Seed, const std::string &Label);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// One recorded layer call. Spans of one request share Req; Parent is the
/// Id of the enclosing span (0 for a request's root).
struct Span {
  uint64_t Req = 0;
  uint32_t Id = 0;
  uint32_t Parent = 0;
  const char *Name = "";
  Clock::time_point Start, End;
  double seconds() const { return secondsBetween(Start, End); }
};

/// Per-thread in-memory span buffer.
class Tracer {
public:
  void beginRequest(uint64_t Req) {
    CurReq = Req;
    NextId = 1;
  }
  uint32_t open(const char *Name, uint32_t Parent) {
    Span S;
    S.Req = CurReq;
    S.Id = NextId++;
    S.Parent = Parent;
    S.Name = Name;
    Spans.push_back(S);
    Spans.back().Start = Clock::now();
    return S.Id;
  }
  /// Ends the span \p Id of the current request.
  void close(uint32_t Id);
  std::vector<Span> Spans;

private:
  uint64_t CurReq = 0;
  uint32_t NextId = 1;
};

/// RAII span; a null tracer records nothing.
class Scoped {
public:
  Scoped(Tracer *T, const char *Name, uint32_t Parent)
      : T(T), Id(T ? T->open(Name, Parent) : 0) {}
  ~Scoped() {
    if (T)
      T->close(Id);
  }
  uint32_t id() const { return Id; }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  Tracer *T;
  uint32_t Id;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Keyed by span name, in seconds.
std::map<std::string, std::vector<double>>
selfTimes(const std::vector<Span> &Spans);

/// Writes the spans as tab-separated lines (req, id, parent, name,
/// start_ns, end_ns relative to the first span).
bool writeSpans(const std::string &Path, const std::vector<Span> &Spans);

/// Per-phase seconds of a JIT routine, read from its exported phase clock
/// (all zeros when the object exports none).
struct PhaseClock {
  double S[convgen::jit::kNumPhases] = {};
  static PhaseClock read(const convgen::jit::JitConversion &H);
  void addDelta(const PhaseClock &Before, const PhaseClock &After);
};

/// Sets the routine-phase metrics from accumulated phase seconds over
/// \p Runs conversions.
void setPhaseMetrics(Metrics &M, const PhaseClock &Sum, uint64_t Runs);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
