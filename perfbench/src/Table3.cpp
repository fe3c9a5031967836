//===----------------------------------------------------------------------===//
//
// Part of the convgen benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The table3 workload: paper Table 3's seven pairs over the Table 2
/// stand-ins, following the §7.2 rules — csr_csc only for non-symmetric
/// matrices, symmetric csc_* served by the csr_* path (CSC == CSR), DIA and
/// ELL targets skipped when padding would exceed 75%. Each round times, per
/// cell, the generated routine (runRaw on a warm PlanCache::jit handle) and
/// the SPARSKIT and MKL-like ports back to back. Neither side's time
/// includes freeing its output. Every generated output is bit-compared
/// against the oracle outside the timed region; each port's output is
/// checked once per cell before measuring.
///
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Workloads.h"

#include "baselines/Baselines.h"
#include "formats/Standard.h"
#include "tensor/Oracle.h"

#include <algorithm>
#include <functional>
#include <random>

using namespace convgen;
using namespace convgen::baselines;

namespace perfbench {

namespace {

/// Fraction of the paper's matrix sizes. Large enough that the biggest
/// stand-ins leave the last-level cache; small enough that a round over
/// every cell takes well under a second.
constexpr double kScale = 0.1;
constexpr double kTinyScale = 0.01;
/// Rounds one measuring segment records per cell without allocating; a
/// round over every cell takes a tenth of a second or more.
constexpr size_t kLogCapacity = 1024;

struct PairDef {
  const char *Name, *Src, *Dst;
};
const PairDef kPairs[] = {
    {"coo_csr", "coo", "csr"}, {"coo_dia", "coo", "dia"},
    {"csr_csc", "csr", "csc"}, {"csr_dia", "csr", "dia"},
    {"csr_ell", "csr", "ell"}, {"csc_dia", "csc", "dia"},
    {"csc_ell", "csc", "ell"},
};
constexpr int kNumPairs = 7;
enum { CooCsr, CooDia, CsrCsc, CsrDia, CsrEll, CscDia, CscEll };

/// One matrix in the formats the cells read, plus its oracle outputs.
struct Matrix {
  tensor::SparseTensor Coo, Csr, Csc, Dia, Ell;
};

/// One library conversion (a SPARSKIT or MKL-like port). Returns the
/// seconds of the conversion calls alone; with \p Check non-null it then
/// reads the output into *Check. Either way the output is freed outside
/// the timed region, as the generated routine's is. A two-step library
/// path frees its intermediate inside the timed region: that is a
/// temporary of the conversion, like the ones runRaw frees itself.
using Port = std::function<double(tensor::SparseTensor *Check)>;

template <typename Raw, typename Convert, typename Read>
Port port(Convert Conv, Read ToTensor) {
  return [=](tensor::SparseTensor *Check) {
    Clock::time_point T0 = Clock::now();
    Raw B = Conv();
    double Secs = secondsBetween(T0, Clock::now());
    if (Check)
      *Check = ToTensor(B);
    B.release();
    return Secs;
  };
}

struct TableCell {
  int Pair = 0;   ///< Table 3 column (kPairs index).
  int Handle = 0; ///< Generated routine that serves it (csr_* for
                  ///< symmetric csc_* cells).
  const tensor::SparseTensor *In = nullptr;
  std::shared_ptr<const tensor::SparseTensor> Expect;
  Port Skit, Mkl;
  std::vector<double> Gen, SkitT, MklT;
};

bool viable(int64_t Nnz, int64_t PerRow, int64_t Rows) {
  double Stored = static_cast<double>(PerRow) * static_cast<double>(Rows);
  return Stored > 0 && static_cast<double>(Nnz) >= 0.25 * Stored;
}

// The skip rules read the scaled Table 2 statistics, not the generated
// matrix's, so that every seed runs the same cells.
bool diaViable(const StandIn &S) {
  return viable(S.TargetNnz, S.TargetDiags, S.TargetRows);
}
bool ellViable(const StandIn &S) {
  return viable(S.TargetNnz, S.TargetMaxRow, S.TargetRows);
}

std::shared_ptr<const tensor::SparseTensor>
borrow(const tensor::SparseTensor &T) {
  return {std::shared_ptr<const tensor::SparseTensor>(), &T};
}

/// Builds every cell of \p M (whose storage must outlive the cells).
void addCells(const StandIn &S, Matrix &M, std::vector<TableCell> &Cells) {
  bool Dia = diaViable(S);
  bool Ell = ellViable(S);
  RawCoo Coo = viewCoo(M.Coo);
  RawCsr Csr = viewCsr(M.Csr);
  RawCsr CscT = viewCscAsTransposedCsr(M.Csc);
  auto add = [&](int Pair, int Handle, const tensor::SparseTensor &In,
                 const tensor::SparseTensor &Expect, Port Skit, Port Mkl) {
    TableCell C;
    C.Pair = Pair;
    C.Handle = Handle;
    C.In = &In;
    C.Expect = borrow(Expect);
    C.Skit = std::move(Skit);
    C.Mkl = std::move(Mkl);
    Cells.push_back(std::move(C));
  };
  // The library paths: one port call, or two through CSR.
  auto csr = [](auto Conv) { return port<RawCsr>(Conv, toCsrTensor); };
  auto csc = [](auto Conv) { return port<RawCsr>(Conv, toCscTensor); };
  auto dia = [](auto Conv) { return port<RawDia>(Conv, toDiaTensor); };
  auto ell = [](auto Conv) { return port<RawEll>(Conv, toEllTensor); };
  auto viaCsr = [](auto First, auto Second, auto A) {
    return [=] {
      RawCsr Mid = First(A);
      auto B = Second(Mid);
      Mid.release();
      return B;
    };
  };

  add(CooCsr, CooCsr, M.Coo, M.Csr, csr([=] { return skitCooCsr(Coo); }),
      csr([=] { return mklCooCsr(Coo); }));
  if (Dia)
    add(CooDia, CooDia, M.Coo, M.Dia,
        dia(viaCsr(skitCooCsr, skitCsrDia, Coo)),
        dia(viaCsr(mklCooCsr, mklCsrDia, Coo)));
  if (!S.Symmetric)
    add(CsrCsc, CsrCsc, M.Csr, M.Csc, csc([=] { return skitCsrCsc(Csr); }),
        csc([=] { return mklCsrCsc(Csr); }));
  Port SkitDia = dia([=] { return skitCsrDia(Csr); });
  Port MklDia = dia([=] { return mklCsrDia(Csr); });
  Port SkitEll = ell([=] { return skitCsrEll(Csr); });
  if (Dia)
    add(CsrDia, CsrDia, M.Csr, M.Dia, SkitDia, MklDia);
  if (Ell)
    add(CsrEll, CsrEll, M.Csr, M.Ell, SkitEll, nullptr);
  if (Dia) {
    if (S.Symmetric)
      add(CscDia, CsrDia, M.Csr, M.Dia, SkitDia, MklDia);
    else
      add(CscDia, CscDia, M.Csc, M.Dia,
          dia(viaCsr(skitCsrCsc, skitCsrDia, CscT)),
          dia(viaCsr(mklCsrCsc, mklCsrDia, CscT)));
  }
  if (Ell) {
    if (S.Symmetric)
      add(CscEll, CsrEll, M.Csr, M.Ell, SkitEll, nullptr);
    else
      add(CscEll, CscEll, M.Csc, M.Ell,
          ell(viaCsr(skitCsrCsc, skitCsrEll, CscT)), nullptr);
  }
}

/// Runs every port of every cell once, untimed, and compares its output
/// with the oracle's: bit for bit, or else entry by entry (value bits
/// included), because a port may pick its own ELL padding or order the
/// entries within a row differently.
void checkPorts(const std::vector<TableCell> &Cells, Outcome &Out,
                Tally &Ops) {
  uint64_t Bad = 0;
  for (const TableCell &C : Cells) {
    for (const Port *P : {&C.Skit, &C.Mkl}) {
      if (!*P)
        continue;
      tensor::SparseTensor Got;
      (*P)(&Got);
      bool Ok = sameTensor(Got, *C.Expect) ||
                tensor::equal(tensor::toTriplets(Got),
                              tensor::toTriplets(*C.Expect));
      Ops.record(Ok);
      Bad += !Ok;
    }
  }
  if (Bad)
    Out.Problems.push_back(std::to_string(Bad) +
                           " library port outputs differ from the oracle");
}

/// What one measuring segment saw.
struct Segment {
  /// Generated-routine seconds of each whole round over the corpus.
  std::vector<double> RoundSums;
  double GenSum = 0;
  PhaseClock Phases;
  uint64_t Runs = 0;
  double Bytes = 0;
  Tracer Spans;

  static double convGeomeanMs(const std::vector<TableCell> &Cells) {
    std::vector<double> Times;
    for (const TableCell &C : Cells)
      Times.push_back(cellTime(C.Gen));
    return geomean(Times) * 1e3;
  }
};

/// Runs whole rounds over every cell until \p Seconds have passed.
Segment measure(std::vector<TableCell> &Cells,
                const std::vector<std::shared_ptr<jit::JitConversion>> &H,
                double Seconds, bool Traced, uint64_t Seed, Tally &Ops) {
  Segment Seg;
  Tracer *T = Traced ? &Seg.Spans : nullptr;
  for (TableCell &C : Cells)
    C.Gen.clear(), C.SkitT.clear(), C.MklT.clear();
  std::mt19937_64 Rng(mixSeed(Seed, Traced ? "table3-traced" : "table3"));
  std::vector<size_t> Order(Cells.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  uint64_t Req = 0;
  Clock::time_point Start = Clock::now();
  do {
    std::shuffle(Order.begin(), Order.end(), Rng);
    double Round = 0;
    for (size_t Idx : Order) {
      TableCell &C = Cells[Idx];
      const jit::JitConversion &Conv = *H[static_cast<size_t>(C.Handle)];
      if (T)
        T->beginRequest(++Req);
      Scoped Op(T, "conversion", 0);
      jit::CTensor A, B;
      {
        Scoped S(T, "marshalInput", Op.id());
        jit::marshalInput(*C.In, &A);
      }
      PhaseClock Before = T ? PhaseClock::read(Conv) : PhaseClock();
      double Secs;
      {
        Scoped S(T, "runRaw", Op.id());
        Clock::time_point T0 = Clock::now();
        Conv.runRaw(&A, &B);
        Secs = secondsBetween(T0, Clock::now());
      }
      if (T)
        Seg.Phases.addDelta(Before, PhaseClock::read(Conv));
      // Out frees the output's arrays after the timed region, like Port.
      tensor::SparseTensor Out;
      {
        Scoped S(T, "collectOutput", Op.id());
        Out = jit::collectOutput(Conv.conversion().Target, C.In->Dims, &B);
      }
      Ops.record(sameTensor(Out, *C.Expect) && !Conv.degraded());
      C.Gen.push_back(Secs);
      Round += Secs;
      Seg.Bytes += tensorBytes(*C.In) + tensorBytes(Out);
      ++Seg.Runs;
      C.SkitT.push_back(C.Skit(nullptr));
      if (C.Mkl)
        C.MklT.push_back(C.Mkl(nullptr));
    }
    Seg.RoundSums.push_back(Round);
    Seg.GenSum += Round;
  } while (secondsBetween(Start, Clock::now()) < Seconds);
  return Seg;
}

/// The memory metrics' per-conversion marks: every cell's generated routine
/// once more, one at a time and untimed, restarting \p Rss before each so
/// that each mark is what the set-up left resident plus that conversion's
/// own footprint.
std::vector<double>
memoryPerConversion(const std::vector<TableCell> &Cells,
                    const std::vector<std::shared_ptr<jit::JitConversion>> &H,
                    RssPeak &Rss, Tally &Ops) {
  std::vector<double> MiB;
  for (const TableCell &C : Cells) {
    const jit::JitConversion &Conv = *H[static_cast<size_t>(C.Handle)];
    Rss.restart();
    jit::CTensor A, B;
    jit::marshalInput(*C.In, &A);
    Conv.runRaw(&A, &B);
    tensor::SparseTensor Out =
        jit::collectOutput(Conv.conversion().Target, C.In->Dims, &B);
    MiB.push_back(Rss.note());
    Ops.record(sameTensor(Out, *C.Expect) && !Conv.degraded());
  }
  return MiB;
}

} // namespace

Outcome runTable3(const RunConfig &Cfg, Tally &Ops) {
  Outcome Out;
  std::vector<std::string> Fidelity;
  std::vector<StandIn> Stand =
      table2StandIns(Cfg.Tiny ? kTinyScale : kScale, Cfg.Seed, Fidelity);
  // The tolerances hold at the benchmark's scale; smoke-test matrices are
  // too small for them, so there a miss is only reported.
  for (const std::string &P : Fidelity) {
    if (Cfg.Tiny)
      Out.Problems.push_back("Table 2 fidelity: " + P);
    else
      Out.fail("Table 2 fidelity: " + P);
  }

  // Inputs and oracle outputs (untimed).
  std::vector<std::unique_ptr<Matrix>> Mats;
  std::vector<TableCell> Cells;
  for (StandIn &S : Stand) {
    auto M = std::make_unique<Matrix>();
    M->Coo = tensor::buildFromTriplets(formats::makeCOO(), S.T);
    M->Csr = tensor::buildFromTriplets(formats::makeCSR(), S.T);
    M->Csc = tensor::buildFromTriplets(formats::makeCSC(), S.T);
    if (diaViable(S))
      M->Dia = tensor::buildFromTriplets(formats::makeDIA(), S.T);
    if (ellViable(S))
      M->Ell = tensor::buildFromTriplets(formats::makeELL(), S.T);
    addCells(S, *M, Cells);
    S.T = tensor::Triplets();
    Mats.push_back(std::move(M));
  }
  if (Cfg.CorruptOracle)
    Cells[0].Expect = corrupted(*Cells[0].Expect);
  checkPorts(Cells, Out, Ops);
  for (TableCell &C : Cells)
    for (std::vector<double> *Log : {&C.Gen, &C.SkitT, &C.MklT})
      presize(*Log, kLogCapacity);

  RssPeak Rss;
  if (!Rss.mark()) {
    Out.fail("cannot reset the resident-set high-water mark");
    return Out;
  }

  // Set-up: every generated routine from an empty cache, then one warm-up
  // run each on its smallest input.
  bool Used[kNumPairs] = {};
  for (const TableCell &C : Cells)
    Used[C.Handle] = true;
  SetupLog Log;
  std::vector<std::shared_ptr<jit::JitConversion>> H(kNumPairs);
  for (int Rep = 0; Rep < Cfg.setupReps(); ++Rep) {
    if (!isolateCache(Cfg.CacheRoot + "/setup-" + std::to_string(Rep))) {
      Out.fail("cannot create a cache directory under " + Cfg.CacheRoot);
      return Out;
    }
    Clock::time_point T0 = Clock::now();
    for (int P = 0; P < kNumPairs; ++P) {
      if (!Used[P])
        continue;
      H[P] = acquireHandle(formats::standardFormatOrDie(kPairs[P].Src),
                           formats::standardFormatOrDie(kPairs[P].Dst),
                           codegen::Options(), Log, Out);
      if (!H[P])
        return Out;
      const TableCell *Smallest = nullptr;
      for (const TableCell &C : Cells)
        if (C.Handle == P &&
            (!Smallest || C.In->storedSize() < Smallest->In->storedSize()))
          Smallest = &C;
      jit::CTensor A, B;
      jit::marshalInput(*Smallest->In, &A);
      H[P]->runRaw(&A, &B);
      jit::freeOutput(&B);
    }
    Log.endRep(secondsBetween(T0, Clock::now()));
  }
  Log.report(Out);
  Rss.note();
  setMemoryMetrics(Out, Rss, memoryPerConversion(Cells, H, Rss, Ops));
  // The service, its planner and the plan-cache hit path are bypassed.
  Out.PerLayer.bypass({"planner.", "plancache.", "service."});

  double Untraced = Cfg.Trace ? Cfg.Seconds / 2 : Cfg.Seconds;
  Segment Plain = measure(Cells, H, Untraced, false, Cfg.Seed, Ops);
  double PlainGeo = Segment::convGeomeanMs(Cells);
  Out.EndToEnd.set("conv_ms_geomean", PlainGeo);
  // Cell sizes span three orders of magnitude, so a percentile over raw
  // calls would jump between the largest cells. The percentiles are taken
  // over every call's time relative to its cell's, scaled by the geomean:
  // the time distribution of a typical conversion.
  std::vector<double> Relative;
  for (const TableCell &C : Cells) {
    double Time = cellTime(C.Gen);
    for (double S : C.Gen)
      Relative.push_back(S / Time);
  }
  Out.EndToEnd.set("request_p50_ms", quantile(Relative, 0.50) * PlainGeo);
  Out.PerLayer.set("request_p99_ms", quantile(Relative, 0.99) * PlainGeo);
  Out.PerLayer.set("throughput_rps", static_cast<double>(Cells.size()) /
                                         cellTime(Plain.RoundSums));

  // Baselines and the paper's ratios, from the untraced segment.
  std::vector<double> SkitMs, MklMs, VsSkit, VsMkl;
  std::vector<double> PairVsSkit[kNumPairs];
  for (const TableCell &C : Cells) {
    double Gen = cellTime(C.Gen), Skit = cellTime(C.SkitT);
    SkitMs.push_back(Skit * 1e3);
    VsSkit.push_back(Skit / Gen);
    PairVsSkit[C.Pair].push_back(Skit / Gen);
    if (C.Mkl) {
      double Mkl = cellTime(C.MklT);
      MklMs.push_back(Mkl * 1e3);
      VsMkl.push_back(Mkl / Gen);
    }
  }
  Out.PerLayer.set("baselines.skit_ms_geomean", geomean(SkitMs));
  Out.PerLayer.set("baselines.mkl_ms_geomean", geomean(MklMs));
  Out.PerLayer.set("table3.vs_skit_geomean", geomean(VsSkit));
  Out.PerLayer.set("table3.vs_mkl_geomean", geomean(VsMkl));
  for (int P = 0; P < kNumPairs; ++P)
    Out.PerLayer.set(std::string("table3.") + kPairs[P].Name + ".vs_skit",
                     geomean(PairVsSkit[P]));
  if (!Cfg.Trace)
    return Out;

  Segment Traced = measure(Cells, H, Cfg.Seconds / 2, true, Cfg.Seed, Ops);
  std::map<std::string, std::vector<double>> Self =
      selfTimes(Traced.Spans.Spans);
  Out.PerLayer.set("jit.marshal_us", median(Self["marshalInput"]) * 1e6);
  Out.PerLayer.set("jit.run_ms", median(Self["runRaw"]) * 1e3);
  Out.PerLayer.set("jit.collect_us", median(Self["collectOutput"]) * 1e6);
  Out.PerLayer.set("jit.gbps_computed", Traced.Bytes / Traced.GenSum / 1e9);
  setPhaseMetrics(Out.PerLayer, Traced.Phases, Traced.Runs);
  Out.PerLayer.set("trace.overhead_frac",
                   Segment::convGeomeanMs(Cells) / PlainGeo - 1);
  if (!Cfg.SpansOut.empty() && !writeSpans(Cfg.SpansOut, Traced.Spans.Spans))
    Out.fail("cannot write " + Cfg.SpansOut);
  return Out;
}

} // namespace perfbench
