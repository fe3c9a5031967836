//===----------------------------------------------------------------------===//
//
// Part of the convgen benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The served workloads: closed-loop clients send a seeded request stream
/// through ConversionService::convert, each waiting for its reply and
/// bit-comparing it against the oracle before sending the next. The stream
/// is a sequence of rounds, each visiting every cell once in a seeded
/// order, so every seed sends the same mix.
///
/// The traced run follows each convert() with a replay of the same request
/// through the layers it is built from — planner::decide, PlanCache::tryJit,
/// jit::marshalInput, JitConversion::runRaw, jit::collectOutput — with a
/// span around each call. service.overhead_us is the convert() span minus
/// the replayed parts.
///
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Workloads.h"

#include "planner/Planner.h"

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <thread>

using namespace convgen;

namespace perfbench {

namespace {

/// The path a request takes: the planner's choice when it engages, the
/// dims-routed direct plan otherwise (what convert() runs).
struct Route {
  std::string Label;
  std::vector<planner::Hop> Hops;
  /// A variant path first checks the input against the direct plan.
  std::vector<planner::Hop> Checked;
  std::string Key;
};

Route routeOf(const planner::Decision &D, const Cell &C) {
  Route R;
  if (D.Engaged) {
    R.Label = D.Chosen.Label;
    R.Hops = D.Chosen.Hops;
    if (R.Label != "direct")
      for (const planner::Candidate &Cand : D.Considered)
        if (Cand.Label == "direct")
          R.Checked = Cand.Hops;
  } else {
    R.Label = "disengaged";
    R.Hops.push_back(planner::Hop{
        C.Src, C.Dst,
        codegen::optionsForDims(C.Src, C.Dst, codegen::Options(),
                                C.In->Dims)});
  }
  for (const planner::Hop &H : R.Hops)
    R.Key += convert::planKey(H.Src, H.Dst, H.Opts) + "|";
  return R;
}

planner::Decision decide(const Cell &C) {
  return planner::decide(C.Src, C.Dst, codegen::Options(),
                         planner::InputStats::fromTensor(*C.In));
}

/// planner.chosen.<label> metric suffix for a candidate label.
std::string chosenMetric(const std::string &Label) {
  static const std::map<std::string, std::string> Names = {
      {"disengaged", "disengaged"},   {"direct", "direct"},
      {"direct+sorted", "direct_sorted"}, {"rank=sorted", "rank_sorted"},
      {"rank=hashed", "rank_hashed"}, {"sort=merge", "sort_merge"},
      {"nosharedsort", "nosharedsort"}, {"via-coo", "via_coo"},
  };
  auto It = Names.find(Label);
  return "planner.chosen." + (It == Names.end() ? "other" : It->second);
}

convert::ConversionRequest requestFor(const Cell &C) {
  convert::ConversionRequest Req;
  Req.Source = C.Src;
  Req.Target = C.Dst;
  Req.Input = C.In.get();
  return Req;
}

/// What one client saw during one measuring segment.
struct ClientLog {
  std::vector<double> Latency;
  std::vector<size_t> CellOf;
  uint64_t Completed = 0;
  Tracer Spans;
  std::map<std::string, uint64_t> Chosen;
  double RunSecs = 0, Bytes = 0;
  PhaseClock Phases;
  uint64_t Runs = 0;
};

/// Replays \p C through the layers under spans and checks the result.
void replay(const Cell &C, Tracer &T, uint32_t Parent, bool ReadPhases,
            ClientLog &L, Tally &Ops) {
  Scoped Rp(&T, "replay", Parent);
  planner::Decision D = [&] {
    Scoped S(&T, "decide", Rp.id());
    return decide(C);
  }();
  Route R = routeOf(D, C);
  ++L.Chosen[chosenMetric(R.Label)];
  const tensor::SparseTensor *Cur = C.In.get();
  tensor::SparseTensor Staged;
  bool Ok = true;
  for (const planner::Hop &H : R.Hops) {
    auto Handle = [&] {
      Scoped S(&T, "tryJit", Rp.id());
      return convert::PlanCache::instance().tryJit(H.Src, H.Dst, H.Opts);
    }();
    if (!Handle.ok() || (*Handle)->degraded()) {
      Ok = false;
      break;
    }
    const jit::JitConversion &Conv = **Handle;
    jit::CTensor A, B;
    {
      Scoped S(&T, "marshalInput", Rp.id());
      jit::marshalInput(*Cur, &A);
    }
    PhaseClock Before = ReadPhases ? PhaseClock::read(Conv) : PhaseClock();
    Clock::time_point T0 = Clock::now();
    {
      Scoped S(&T, "runRaw", Rp.id());
      Conv.runRaw(&A, &B);
    }
    L.RunSecs += secondsBetween(T0, Clock::now());
    if (ReadPhases)
      L.Phases.addDelta(Before, PhaseClock::read(Conv));
    ++L.Runs;
    tensor::SparseTensor Out;
    {
      Scoped S(&T, "collectOutput", Rp.id());
      Out = jit::collectOutput(H.Dst, Cur->Dims, &B);
    }
    L.Bytes += tensorBytes(*Cur) + tensorBytes(Out);
    Staged = std::move(Out);
    Cur = &Staged;
  }
  Ops.record(Ok && sameTensor(*Cur, *C.Expect));
}

/// Samples one client records in one segment without allocating.
constexpr size_t kLogCapacity = size_t(1) << 18;

/// One ClientLog per client, presized (see presize()).
std::vector<ClientLog> clientLogs(int Clients) {
  std::vector<ClientLog> Logs(static_cast<size_t>(Clients));
  for (ClientLog &L : Logs) {
    presize(L.Latency, kLogCapacity);
    presize(L.CellOf, kLogCapacity);
  }
  return Logs;
}

/// Runs one closed-loop client per entry of \p Logs over \p Stream for
/// \p Seconds.
void measure(convert::ConversionService &Svc, const std::vector<Cell> &Cells,
             const std::vector<size_t> &Stream, std::vector<ClientLog> &Logs,
             double Seconds, bool Traced, Tally &Ops) {
  const size_t Clients = Logs.size();
  std::atomic<size_t> Next{0};
  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  auto client = [&](ClientLog &L) {
    Tracer *T = Traced ? &L.Spans : nullptr;
    while (Clock::now() < Deadline) {
      size_t Req = Next.fetch_add(1);
      size_t I = Stream[Req % Stream.size()];
      const Cell &C = Cells[I];
      if (T)
        T->beginRequest(Req + 1);
      Scoped Root(T, "request", 0);
      Clock::time_point T0 = Clock::now();
      StatusOr<tensor::SparseTensor> Out = [&] {
        Scoped S(T, "convert", Root.id());
        return Svc.convert(requestFor(C));
      }();
      L.Latency.push_back(secondsBetween(T0, Clock::now()));
      L.CellOf.push_back(I);
      bool Ok = Out.ok() && sameTensor(*Out, *C.Expect);
      Ops.record(Ok);
      L.Completed += Ok;
      if (T)
        replay(C, *T, Root.id(), Clients == 1, L, Ops);
    }
  };
  if (Clients == 1) {
    // On the loading thread, so the routines' phase clocks are readable.
    client(Logs[0]);
  } else {
    std::vector<std::thread> Threads;
    for (ClientLog &L : Logs)
      Threads.emplace_back(client, std::ref(L));
    for (std::thread &Th : Threads)
      Th.join();
  }
}

double convGeomeanMs(const std::vector<ClientLog> &Logs, size_t NumCells) {
  std::vector<std::vector<double>> PerCell(NumCells);
  for (const ClientLog &L : Logs)
    for (size_t I = 0; I < L.Latency.size(); ++I)
      PerCell[L.CellOf[I]].push_back(L.Latency[I]);
  std::vector<double> Times;
  for (const std::vector<double> &V : PerCell)
    if (!V.empty())
      Times.push_back(cellTime(V));
  return geomean(Times) * 1e3;
}

/// convert() minus the replayed layer calls, per traced request.
std::vector<double> serviceOverheads(const std::vector<Span> &Spans) {
  std::vector<double> Out;
  size_t Begin = 0;
  while (Begin < Spans.size()) {
    size_t End = Begin;
    double Convert = 0, Parts = 0;
    uint32_t ReplayId = 0;
    for (; End < Spans.size() && Spans[End].Req == Spans[Begin].Req; ++End) {
      const Span &S = Spans[End];
      if (std::string(S.Name) == "convert")
        Convert = S.seconds();
      else if (std::string(S.Name) == "replay")
        ReplayId = S.Id;
      else if (ReplayId && S.Parent == ReplayId)
        Parts += S.seconds();
    }
    Out.push_back(Convert - Parts);
    Begin = End;
  }
  return Out;
}

Outcome runServed(const RunConfig &Cfg, Tally &Ops, std::vector<Cell> Cells,
                  int Clients, int RoundsInStream) {
  Outcome Out;
  if (Cfg.CorruptOracle)
    Cells[0].Expect = corrupted(*Cells[0].Expect);
  std::vector<size_t> Stream;
  std::mt19937_64 Rng(mixSeed(Cfg.Seed, Cfg.Workload + "-stream"));
  std::vector<size_t> Round(Cells.size());
  for (size_t I = 0; I < Round.size(); ++I)
    Round[I] = I;
  for (int R = 0; R < RoundsInStream; ++R) {
    std::shuffle(Round.begin(), Round.end(), Rng);
    Stream.insert(Stream.end(), Round.begin(), Round.end());
  }

  convert::ServiceLimits Limits;
  Limits.MaxInflight = Clients;
  Limits.QueueDepth = Clients;
  Limits.DefaultDeadlineMs = 0;

  std::vector<ClientLog> Plain = clientLogs(Clients);
  std::vector<ClientLog> Traced = clientLogs(Cfg.Trace ? Clients : 0);
  RssPeak Rss;
  if (!Rss.mark()) {
    Out.fail("cannot reset the resident-set high-water mark");
    return Out;
  }

  // Set-up: service construction, every plan and JIT handle the requests
  // route to, and one warm-up request per distinct route.
  SetupLog Log;
  std::unique_ptr<convert::ConversionService> Svc;
  uint64_t Degraded = 0;
  for (int Rep = 0; Rep < Cfg.setupReps(); ++Rep) {
    if (Svc)
      Degraded += Svc->stats().DegradedRuns;
    Svc.reset();
    if (!isolateCache(Cfg.CacheRoot + "/setup-" + std::to_string(Rep))) {
      Out.fail("cannot create a cache directory under " + Cfg.CacheRoot);
      return Out;
    }
    Clock::time_point T0 = Clock::now();
    Svc = std::make_unique<convert::ConversionService>(Limits);
    std::set<std::string> Warm;
    for (const Cell &C : Cells) {
      Route R = routeOf(decide(C), C);
      for (const planner::Hop &H : R.Checked)
        if (!acquirePlan(H.Src, H.Dst, H.Opts, Log, Out))
          return Out;
      for (const planner::Hop &H : R.Hops)
        if (!acquireHandle(H.Src, H.Dst, H.Opts, Log, Out))
          return Out;
      if (Warm.insert(R.Key).second) {
        StatusOr<tensor::SparseTensor> W = Svc->convert(requestFor(C));
        Ops.record(W.ok() && sameTensor(*W, *C.Expect));
      }
    }
    Log.endRep(secondsBetween(T0, Clock::now()));
  }
  Log.report(Out);
  Rss.note();
  // The memory metrics' per-request marks: every cell once more through
  // the service, one at a time and untimed, restarting Rss before each so
  // that each mark is what the set-up left resident plus that request's own
  // footprint. Before measuring: what the program retains after thousands
  // of concurrent requests depends on their timing, and is not steady.
  std::vector<double> MiB;
  for (const Cell &C : Cells) {
    Rss.restart();
    StatusOr<tensor::SparseTensor> R = Svc->convert(requestFor(C));
    MiB.push_back(Rss.note());
    Ops.record(R.ok() && sameTensor(*R, *C.Expect));
  }
  setMemoryMetrics(Out, Rss, MiB);

  double Untraced = Cfg.Trace ? Cfg.Seconds / 2 : Cfg.Seconds;
  convert::ServiceStats Sv0 = Svc->stats();
  convert::PlanCacheStats Pc0 = convert::PlanCache::instance().stats();
  Clock::time_point M0 = Clock::now();
  measure(*Svc, Cells, Stream, Plain, Untraced, false, Ops);
  double Wall = secondsBetween(M0, Clock::now());
  convert::ServiceStats Sv1 = Svc->stats();
  convert::PlanCacheStats Pc =
      cacheDelta(Pc0, convert::PlanCache::instance().stats());

  std::vector<double> All;
  uint64_t Completed = 0;
  for (const ClientLog &L : Plain) {
    All.insert(All.end(), L.Latency.begin(), L.Latency.end());
    Completed += L.Completed;
  }
  double PlainGeo = convGeomeanMs(Plain, Cells.size());
  double P99 = quantile(All, 0.99);
  size_t Beyond = 0;
  for (double V : All)
    Beyond += V > P99;
  if (Beyond < 10)
    Out.Problems.push_back(
        "request_p99_ms rests on " + std::to_string(Beyond) +
        " samples beyond it (of " + std::to_string(All.size()) + ")");
  Out.EndToEnd.set("conv_ms_geomean", PlainGeo);
  Out.EndToEnd.set("request_p50_ms", quantile(All, 0.50) * 1e3);
  Out.PerLayer.set("request_p99_ms", P99 * 1e3);
  Out.PerLayer.set("throughput_rps", static_cast<double>(Completed) / Wall);

  // Counters, from the untraced segment: the service's own traffic.
  Out.PerLayer.set("plancache.hits",
                   static_cast<double>(Pc.PlanHits + Pc.JitHits));
  Out.PerLayer.set("plancache.misses",
                   static_cast<double>(Pc.PlanMisses + Pc.JitMisses));
  Out.PerLayer.set("plancache.coalesced",
                   static_cast<double>(Pc.PlanCoalesced + Pc.JitCoalesced));
  Out.PerLayer.set("plancache.disk_hits", static_cast<double>(Pc.DiskHits));
  auto Delta = [](uint64_t A, uint64_t B) {
    return static_cast<double>(B - A);
  };
  Out.PerLayer.set("planner.engaged",
                   Delta(Sv0.PlannerEngaged, Sv1.PlannerEngaged));
  Out.PerLayer.set("planner.forced", Delta(Sv0.PlannerForcedStrategy,
                                           Sv1.PlannerForcedStrategy));
  Out.PerLayer.set("planner.two_hop",
                   Delta(Sv0.PlannerTwoHop, Sv1.PlannerTwoHop));
  Out.PerLayer.set("planner.measured",
                   Delta(Sv0.PlannerMeasured, Sv1.PlannerMeasured));
  Out.PerLayer.set("service.shed", Delta(Sv0.Shed, Sv1.Shed));
  Out.PerLayer.set("service.deadline_expired",
                   Delta(Sv0.DeadlineExpired, Sv1.DeadlineExpired));
  Out.PerLayer.set("service.request_errors",
                   Delta(Sv0.RequestErrors, Sv1.RequestErrors));
  Out.PerLayer.set("service.degraded_runs",
                   Delta(Sv0.DegradedRuns, Sv1.DegradedRuns));

  if (Cfg.Trace) {
    measure(*Svc, Cells, Stream, Traced, Cfg.Seconds / 2, true, Ops);
    std::vector<Span> Spans;
    ClientLog Sum;
    for (ClientLog &L : Traced) {
      Spans.insert(Spans.end(), L.Spans.Spans.begin(), L.Spans.Spans.end());
      for (const auto &[Name, N] : L.Chosen)
        Sum.Chosen[Name] += N;
      Sum.RunSecs += L.RunSecs;
      Sum.Bytes += L.Bytes;
      Sum.Runs += L.Runs;
      Sum.Phases.addDelta(PhaseClock(), L.Phases);
    }
    std::map<std::string, std::vector<double>> Self = selfTimes(Spans);
    Out.PerLayer.set("planner.decide_us", median(Self["decide"]) * 1e6);
    Out.PerLayer.set("plancache.hit_us", median(Self["tryJit"]) * 1e6);
    Out.PerLayer.set("jit.marshal_us", median(Self["marshalInput"]) * 1e6);
    Out.PerLayer.set("jit.run_ms", median(Self["runRaw"]) * 1e3);
    Out.PerLayer.set("jit.collect_us", median(Self["collectOutput"]) * 1e6);
    Out.PerLayer.set("jit.gbps_computed", Sum.Bytes / Sum.RunSecs / 1e9);
    setPhaseMetrics(Out.PerLayer, Sum.Phases, Clients == 1 ? Sum.Runs : 0);
    Out.PerLayer.set("service.overhead_us",
                     median(serviceOverheads(Spans)) * 1e6);
    for (const auto &[Name, N] : Sum.Chosen)
      Out.PerLayer.set(Name, static_cast<double>(N));
    Out.PerLayer.bypass({"planner.chosen."}); // Labels never chosen.
    Out.PerLayer.set("trace.overhead_frac",
                     convGeomeanMs(Traced, Cells.size()) / PlainGeo - 1);
    if (!Cfg.SpansOut.empty() && !writeSpans(Cfg.SpansOut, Spans))
      Out.fail("cannot write " + Cfg.SpansOut);
  }

  // The library ports and the paper's ratios belong to table3 alone.
  Out.PerLayer.bypass({"baselines.", "table3."});

  // Requests a degraded (interpreter-backed) handle served are failures.
  Degraded += Svc->stats().DegradedRuns;
  Ops.Failed += Degraded;
  return Out;
}

} // namespace

Outcome runServiceMix(const RunConfig &Cfg, Tally &Ops) {
  return runServed(Cfg, Ops, serviceMixCells(Cfg.Seed, Cfg.Tiny),
                   /*Clients=*/2, /*RoundsInStream=*/4096);
}

Outcome runTensor3(const RunConfig &Cfg, Tally &Ops) {
  return runServed(Cfg, Ops, tensor3Cells(Cfg.Seed, Cfg.Tiny),
                   /*Clients=*/1, /*RoundsInStream=*/512);
}

} // namespace perfbench
