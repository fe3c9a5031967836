//===----------------------------------------------------------------------===//
//
// Part of the convgen benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <sys/stat.h>

using namespace convgen;

namespace perfbench {

void Metrics::set(const std::string &Name, double Value) {
  for (auto &Item : Items)
    if (Item.first == Name) {
      Item.second = Value;
      return;
    }
  Items.emplace_back(Name, Value);
}

double Metrics::get(const std::string &Name) const {
  for (const auto &Item : Items)
    if (Item.first == Name)
      return Item.second;
  return std::nan("");
}

bool Metrics::has(const std::string &Name) const {
  for (const auto &Item : Items)
    if (Item.first == Name)
      return true;
  return false;
}

void Metrics::bypass(std::initializer_list<const char *> Prefixes) {
  for (const auto &Entry : perLayerMetrics())
    for (const char *P : Prefixes)
      if (Entry.first.rfind(P, 0) == 0 && !has(Entry.first))
        set(Entry.first, 0);
}

std::string Metrics::json() const {
  std::map<std::string, std::string> Units;
  for (const auto &Table : {endToEndMetrics(), perLayerMetrics()})
    for (const auto &[Name, Unit] : Table)
      Units[Name] = Unit;
  std::string Out;
  char Buf[64];
  for (const auto &[Name, Value] : Items) {
    // All digits: the result is a measurement, not a rounded display.
    if (std::isnan(Value))
      std::snprintf(Buf, sizeof(Buf), "NaN");
    else if (std::isinf(Value))
      std::snprintf(Buf, sizeof(Buf), Value > 0 ? "Infinity" : "-Infinity");
    else
      std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
    if (!Out.empty())
      Out += ", ";
    Out += "\"" + Name + "\": {\"value\": " + Buf + ", \"unit\": \"" +
           Units[Name] + "\"}";
  }
  return Out;
}

const std::vector<std::pair<std::string, std::string>> &endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"setup_s", "s"},
      {"conv_ms_geomean", "ms"},
      {"request_p50_ms", "ms"},
      {"rss_mb_geomean", "MiB"},
  };
  return M;
}

const std::vector<std::pair<std::string, std::string>> &perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      // End-to-end in kind, but too sensitive to other tenants' load on a
      // shared host to carry a regression bound; reported from the
      // untraced half of the traced run.
      {"request_p99_ms", "ms"},
      {"throughput_rps", "req/s"},
      // The largest single-operation mark behind rss_mb_geomean: one
      // input's structure moves it, so it carries no bound either.
      {"peak_rss_mb", "MiB"},
      {"fail_frac", "fraction"},
      {"codegen.plan_ms", "ms"},
      {"jit.compile_s", "s"},
      {"jit.compiles", "count"},
      {"jit.marshal_us", "us"},
      {"jit.run_ms", "ms"},
      {"jit.collect_us", "us"},
      {"jit.gbps_computed", "GB/s"},
      {"phase.analysis_ms", "ms"},
      {"phase.edge_ms", "ms"},
      {"phase.insert_ms", "ms"},
      {"phase.finalize_ms", "ms"},
      {"phase.collect_ms", "ms"},
      {"phase.sort_ms", "ms"},
      {"phase.pos_ms", "ms"},
      {"phase.crd_ms", "ms"},
      {"plancache.hit_us", "us"},
      {"plancache.hits", "count"},
      {"plancache.misses", "count"},
      {"plancache.coalesced", "count"},
      {"plancache.disk_hits", "count"},
      {"planner.decide_us", "us"},
      {"planner.engaged", "count"},
      {"planner.forced", "count"},
      {"planner.two_hop", "count"},
      {"planner.measured", "count"},
      {"planner.chosen.disengaged", "count"},
      {"planner.chosen.direct", "count"},
      {"planner.chosen.direct_sorted", "count"},
      {"planner.chosen.rank_sorted", "count"},
      {"planner.chosen.rank_hashed", "count"},
      {"planner.chosen.sort_merge", "count"},
      {"planner.chosen.nosharedsort", "count"},
      {"planner.chosen.via_coo", "count"},
      {"planner.chosen.other", "count"},
      {"service.overhead_us", "us"},
      {"service.shed", "count"},
      {"service.deadline_expired", "count"},
      {"service.request_errors", "count"},
      {"service.degraded_runs", "count"},
      {"baselines.skit_ms_geomean", "ms"},
      {"baselines.mkl_ms_geomean", "ms"},
      {"table3.vs_skit_geomean", "ratio"},
      {"table3.vs_mkl_geomean", "ratio"},
      {"table3.coo_csr.vs_skit", "ratio"},
      {"table3.coo_dia.vs_skit", "ratio"},
      {"table3.csr_csc.vs_skit", "ratio"},
      {"table3.csr_dia.vs_skit", "ratio"},
      {"table3.csr_ell.vs_skit", "ratio"},
      {"table3.csc_dia.vs_skit", "ratio"},
      {"table3.csc_ell.vs_skit", "ratio"},
      {"trace.overhead_frac", "fraction"},
  };
  return M;
}

namespace {

template <typename T>
bool sameArray(const tensor::OwnedArray<T> &A, const tensor::OwnedArray<T> &B) {
  return A.size() == B.size() &&
         (A.size() == 0 ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(T)) == 0);
}

} // namespace

bool sameTensor(const tensor::SparseTensor &A, const tensor::SparseTensor &B) {
  if (A.Format.Name != B.Format.Name || A.Dims != B.Dims ||
      A.Levels.size() != B.Levels.size() || !sameArray(A.Vals, B.Vals))
    return false;
  for (size_t L = 0; L < A.Levels.size(); ++L) {
    const tensor::LevelStorage &X = A.Levels[L], &Y = B.Levels[L];
    if (X.SizeParam != Y.SizeParam || !sameArray(X.Pos, Y.Pos) ||
        !sameArray(X.Crd, Y.Crd) || !sameArray(X.Perm, Y.Perm))
      return false;
  }
  return true;
}

double tensorBytes(const tensor::SparseTensor &T) {
  double Bytes = 8.0 * static_cast<double>(T.Vals.size());
  for (const tensor::LevelStorage &L : T.Levels)
    Bytes += 4.0 * static_cast<double>(L.Pos.size() + L.Crd.size() +
                                       L.Perm.size());
  return Bytes;
}

std::shared_ptr<tensor::SparseTensor>
corrupted(const tensor::SparseTensor &T) {
  auto Copy = std::make_shared<tensor::SparseTensor>(T);
  if (Copy->Vals.size() > 0)
    Copy->Vals.data()[0] += 1.0;
  else
    Copy->Dims.push_back(1);
  return Copy;
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double geomean(const std::vector<double> &V) {
  double LogSum = 0;
  size_t N = 0;
  for (double X : V)
    if (X > 0) {
      LogSum += std::log(X);
      ++N;
    }
  return N ? std::exp(LogSum / static_cast<double>(N)) : 0;
}

namespace {

/// A "Vm...:" line of /proc/self/status in KiB, or -1.
double procStatusKiB(const char *Field) {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return -1;
  char Line[256];
  double KiB = -1;
  size_t Len = std::strlen(Field);
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, Field, Len) == 0 && Line[Len] == ':') {
      KiB = std::atof(Line + Len + 1);
      break;
    }
  std::fclose(F);
  return KiB;
}

} // namespace

bool RssPeak::restart() {
  malloc_trim(0);
  std::FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return false;
  // "5" resets the peak resident set size to the current one.
  bool Ok = std::fputs("5", F) >= 0;
  return std::fclose(F) == 0 && Ok;
}

bool RssPeak::mark() {
  BaseKiB = restart() ? procStatusKiB("VmRSS") : -1;
  return BaseKiB >= 0;
}

void setMemoryMetrics(Outcome &Out, const RssPeak &Rss,
                      const std::vector<double> &MiB) {
  Out.EndToEnd.set("rss_mb_geomean", geomean(MiB));
  Out.PerLayer.set("peak_rss_mb", Rss.peakMiB());
}

double RssPeak::note() {
  double HighKiB = procStatusKiB("VmHWM");
  if (BaseKiB < 0 || HighKiB < 0)
    return std::nan("");
  double MiB = (HighKiB - BaseKiB) / 1024.0;
  Peak = std::isnan(Peak) ? MiB : std::max(Peak, MiB);
  return MiB;
}

bool isolateCache(const std::string &Dir) {
  if (::mkdir(Dir.c_str(), 0755) != 0 && errno != EEXIST)
    return false;
  ::setenv("CONVGEN_CACHE_DIR", Dir.c_str(), 1);
  convert::PlanCache::instance().clearMemory();
  convert::PlanCache::instance().resetOutcomes();
  return true;
}

convert::PlanCacheStats cacheDelta(const convert::PlanCacheStats &B,
                                   const convert::PlanCacheStats &A) {
  convert::PlanCacheStats D;
  D.PlanHits = A.PlanHits - B.PlanHits;
  D.PlanMisses = A.PlanMisses - B.PlanMisses;
  D.PlanCoalesced = A.PlanCoalesced - B.PlanCoalesced;
  D.JitHits = A.JitHits - B.JitHits;
  D.JitMisses = A.JitMisses - B.JitMisses;
  D.JitCoalesced = A.JitCoalesced - B.JitCoalesced;
  D.DiskHits = A.DiskHits - B.DiskHits;
  return D;
}

void SetupLog::endRep(double S) {
  Seconds.push_back(S);
  CompileS.push_back(RepCompileS);
  Compiles.push_back(RepCompiles);
  RepCompileS = RepCompiles = 0;
}

void SetupLog::report(Outcome &Out) const {
  Out.EndToEnd.set("setup_s", median(Seconds));
  Out.PerLayer.set("codegen.plan_ms", median(PlanMs) * 1e3);
  Out.PerLayer.set("jit.compile_s", median(CompileS));
  Out.PerLayer.set("jit.compiles", median(Compiles));
}

bool acquirePlan(const formats::Format &Src, const formats::Format &Dst,
                 const codegen::Options &Opts, SetupLog &Log, Outcome &Out) {
  convert::PlanCache &Cache = convert::PlanCache::instance();
  uint64_t Misses = Cache.stats().PlanMisses;
  Clock::time_point T0 = Clock::now();
  auto Plan = Cache.tryPlan(Src, Dst, Opts);
  Clock::time_point T1 = Clock::now();
  if (!Plan.ok()) {
    Out.fail(Src.Name + "->" + Dst.Name + ": " + Plan.status().toString());
    return false;
  }
  if (Cache.stats().PlanMisses > Misses)
    Log.PlanMs.push_back(secondsBetween(T0, T1));
  return true;
}

std::shared_ptr<jit::JitConversion>
acquireHandle(const formats::Format &Src, const formats::Format &Dst,
              const codegen::Options &Opts, SetupLog &Log, Outcome &Out) {
  if (!acquirePlan(Src, Dst, Opts, Log, Out))
    return nullptr;
  convert::PlanCache &Cache = convert::PlanCache::instance();
  convert::PlanCacheStats S1 = Cache.stats();
  auto Handle = Cache.tryJit(Src, Dst, Opts);
  convert::PlanCacheStats D = cacheDelta(S1, Cache.stats());
  if (!Handle.ok()) {
    Out.fail(Src.Name + "->" + Dst.Name + ": " + Handle.status().toString());
    return nullptr;
  }
  if (D.JitMisses > D.DiskHits) {
    Log.RepCompileS += (*Handle)->compileSeconds();
    Log.RepCompiles += static_cast<double>(D.JitMisses - D.DiskHits);
  }
  if ((*Handle)->degraded()) {
    // Interpreter timings must never pass as JIT timings.
    Out.fail(Src.Name + "->" + Dst.Name + ": degraded JIT handle (" +
             (*Handle)->degradationReason() + ")");
    return nullptr;
  }
  return Handle.take();
}

uint64_t mixSeed(uint64_t Seed, const std::string &Label) {
  uint64_t H = 1469598103934665603ULL; // FNV-1a over the label
  for (unsigned char C : Label)
    H = (H ^ C) * 1099511628211ULL;
  uint64_t Z = Seed * 0x9E3779B97F4A7C15ULL ^ H; // splitmix64 finalizer
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

void Tracer::close(uint32_t Id) {
  // Ids of one request are dense and opened in order, so the span sits
  // Id - 1 slots after the request's first span.
  size_t First = Spans.size();
  while (First > 0 && Spans[First - 1].Req == CurReq)
    --First;
  Spans[First + Id - 1].End = Clock::now();
}

std::map<std::string, std::vector<double>>
selfTimes(const std::vector<Span> &Spans) {
  std::map<std::string, std::vector<double>> Out;
  size_t Begin = 0;
  while (Begin < Spans.size()) {
    size_t End = Begin;
    while (End < Spans.size() && Spans[End].Req == Spans[Begin].Req)
      ++End;
    for (size_t I = Begin; I < End; ++I) {
      const Span &P = Spans[I];
      std::vector<std::pair<Clock::time_point, Clock::time_point>> Kids;
      for (size_t J = Begin; J < End; ++J)
        if (Spans[J].Parent == P.Id)
          Kids.emplace_back(std::max(Spans[J].Start, P.Start),
                            std::min(Spans[J].End, P.End));
      std::sort(Kids.begin(), Kids.end());
      double Covered = 0;
      Clock::time_point Reach = P.Start;
      for (const auto &[S, E] : Kids) {
        Clock::time_point From = std::max(S, Reach);
        if (E > From) {
          Covered += secondsBetween(From, E);
          Reach = E;
        }
      }
      Out[P.Name].push_back(P.seconds() - Covered);
    }
    Begin = End;
  }
  return Out;
}

bool writeSpans(const std::string &Path, const std::vector<Span> &Spans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "req\tid\tparent\tname\tstart_ns\tend_ns\n");
  Clock::time_point T0 = Spans.empty() ? Clock::now() : Spans[0].Start;
  for (const Span &S : Spans) {
    auto Ns = [&](Clock::time_point T) {
      return static_cast<long long>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(T - T0)
              .count());
    };
    std::fprintf(F, "%llu\t%u\t%u\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(S.Req), S.Id, S.Parent,
                 S.Name, Ns(S.Start), Ns(S.End));
  }
  return std::fclose(F) == 0;
}

PhaseClock PhaseClock::read(const jit::JitConversion &H) {
  PhaseClock C;
  if (const double *P = H.phaseSeconds())
    for (int I = 0; I < jit::kNumPhases; ++I)
      C.S[I] = P[I];
  return C;
}

void PhaseClock::addDelta(const PhaseClock &Before, const PhaseClock &After) {
  for (int I = 0; I < jit::kNumPhases; ++I)
    S[I] += After.S[I] - Before.S[I];
}

void setPhaseMetrics(Metrics &M, const PhaseClock &Sum, uint64_t Runs) {
  static const char *const Names[jit::kNumPhases] = {
      "phase.analysis_ms", "phase.edge_ms", "phase.insert_ms",
      "phase.finalize_ms", "phase.collect_ms", "phase.sort_ms",
      "phase.pos_ms",      "phase.crd_ms"};
  for (int I = 0; I < jit::kNumPhases; ++I)
    M.set(Names[I], Runs ? Sum.S[I] * 1e3 / static_cast<double>(Runs) : 0);
}

} // namespace perfbench
