//===----------------------------------------------------------------------===//
//
// Part of the convgen benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "Harness.h"

#include "formats/Standard.h"
#include "support/StringUtils.h"
#include "tensor/Corpus.h"
#include "tensor/Generators.h"
#include "tensor/Oracle.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <set>

using namespace convgen;
using namespace convgen::tensor;

namespace perfbench {

namespace {

enum class Family { Stencil, Banded, Scattered, PowerLaw };

/// The structural family of each Table 2 matrix. mac_econ_fwd500 has 511
/// nonzero diagonals, so it is banded, not scattered.
Family familyOf(const std::string &Name) {
  static const std::map<std::string, Family> Families = {
      {"pdb1HYS", Family::Banded},         {"jnlbrng1", Family::Stencil},
      {"obstclae", Family::Stencil},       {"chem_master1", Family::Stencil},
      {"rma10", Family::Banded},           {"dixmaanl", Family::Stencil},
      {"cant", Family::Banded},            {"shyy161", Family::Stencil},
      {"consph", Family::Banded},          {"denormal", Family::Stencil},
      {"Baumann", Family::Stencil},        {"cop20k_A", Family::Scattered},
      {"shipsec1", Family::Banded},        {"majorbasis", Family::Stencil},
      {"scircuit", Family::Scattered},     {"mac_econ_fwd500", Family::Banded},
      {"pwtk", Family::Banded},            {"Lin", Family::Stencil},
      {"ecology1", Family::Stencil},       {"webbase-1M", Family::PowerLaw},
      {"atmosmodd", Family::Stencil},
  };
  auto It = Families.find(Name);
  return It == Families.end() ? Family::Scattered : It->second;
}

int64_t scaled(int64_t V, double Scale) {
  return std::max<int64_t>(
      1, std::llround(static_cast<double>(V) * Scale));
}

/// Grid-stencil offsets: 5- and 7-point stencils, a 13-point stencil with
/// three near and three grid strides, and a generic split otherwise.
std::vector<int64_t> stencilOffsets(int64_t Grid, int64_t Diags) {
  std::vector<int64_t> Out;
  if (Diags == 5)
    return {-Grid, -1, 0, 1, Grid};
  if (Diags == 7)
    return {-Grid * Grid, -Grid, -1, 0, 1, Grid, Grid * Grid};
  int64_t Near = Diags == 13 ? 7 : Diags / 2 + 1;
  for (int64_t K = -(Near / 2); static_cast<int64_t>(Out.size()) < Near; ++K)
    Out.push_back(K);
  for (int64_t Stride = Grid; static_cast<int64_t>(Out.size()) < Diags;
       Stride += Grid) {
    Out.push_back(Stride);
    if (static_cast<int64_t>(Out.size()) < Diags)
      Out.push_back(-Stride);
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

double valueAt(int64_t Row, int64_t Col) {
  return 1.0 + static_cast<double>((Row * 31 + Col * 17) % 97) / 97.0;
}

/// Gives row \p Row exactly \p Count entries, adding columns from
/// \p Candidates (in a seeded order) that the row does not hold yet.
void fillRow(Triplets &T, int64_t Row, std::vector<int64_t> Candidates,
             int64_t Count, uint64_t Seed) {
  std::set<int64_t> Have;
  for (const Entry &E : T.Entries)
    if (E.Row == Row)
      Have.insert(E.Col);
  std::mt19937_64 Rng(Seed);
  std::shuffle(Candidates.begin(), Candidates.end(), Rng);
  for (int64_t Col : Candidates) {
    if (static_cast<int64_t>(Have.size()) >= Count)
      break;
    if (Have.insert(Col).second)
      T.Entries.push_back(Entry{Row, Col, valueAt(Row, Col)});
  }
  T.sortRowMajor();
}

std::vector<int64_t> columnRange(int64_t Lo, int64_t Hi) {
  std::vector<int64_t> Out;
  for (int64_t C = Lo; C < Hi; ++C)
    Out.push_back(C);
  return Out;
}

StandIn generate(const CorpusEntry &E, double Scale, uint64_t Seed) {
  StandIn S;
  S.Name = E.Name;
  S.Symmetric = E.Symmetric;
  int64_t R = scaled(E.Rows, Scale);
  S.TargetRows = R;
  S.TargetNnz = scaled(E.Nnz, Scale);
  S.TargetMaxRow = std::min(E.MaxNnzPerRow, R);
  // A scaled matrix holds at most 2R - 1 diagonals.
  S.TargetDiags = std::min(E.Diagonals, 2 * R - 1);
  uint64_t MatSeed = mixSeed(Seed, E.Name);
  int64_t FullRow = R / 2;
  double Avg = static_cast<double>(E.Nnz) / static_cast<double>(E.Rows);
  switch (familyOf(E.Name)) {
  case Family::Stencil: {
    double Root = E.Diagonals == 7 ? std::cbrt(static_cast<double>(R))
                                   : std::sqrt(static_cast<double>(R));
    int64_t Grid = std::max<int64_t>(2, std::llround(Root));
    std::vector<int64_t> Offsets = stencilOffsets(Grid, E.Diagonals);
    // Fill each diagonal with the probability that meets the published
    // nnz: stencils whose rows are not all full (majorbasis, shyy161,
    // dixmaanl) keep their diagonals but thin out.
    double Full = 0;
    for (int64_t Off : Offsets)
      Full += static_cast<double>(std::max<int64_t>(0, R - std::abs(Off)));
    double Fill = std::min(1.0, static_cast<double>(S.TargetNnz) / Full);
    S.T = genDiagonals(R, R, Offsets, Fill, MatSeed);
    std::vector<int64_t> Cols;
    for (int64_t Off : Offsets)
      if (FullRow + Off >= 0 && FullRow + Off < R)
        Cols.push_back(FullRow + Off);
    fillRow(S.T, FullRow, Cols, S.TargetMaxRow, MatSeed + 1);
    break;
  }
  case Family::Banded: {
    int64_t HalfBand = std::max<int64_t>(E.Diagonals / 2,
                                         (E.MaxNnzPerRow + 1) / 2);
    S.T = genBandedRandom(R, R, Avg, E.MaxNnzPerRow, HalfBand, MatSeed);
    fillRow(S.T, FullRow,
            columnRange(std::max<int64_t>(0, FullRow - HalfBand),
                        std::min(R, FullRow + HalfBand + 1)),
            S.TargetMaxRow, MatSeed + 1);
    break;
  }
  case Family::Scattered:
    S.T = genRandomUniform(R, R, Avg, E.MaxNnzPerRow, MatSeed);
    fillRow(S.T, FullRow, columnRange(0, R), S.TargetMaxRow, MatSeed + 1);
    break;
  case Family::PowerLaw:
    S.T = genPowerLawRows(R, R, S.TargetNnz, E.MaxNnzPerRow, MatSeed);
    fillRow(S.T, FullRow, columnRange(0, R), S.TargetMaxRow, MatSeed + 1);
    break;
  }
  S.Diagonals = S.T.countDiagonals();
  S.MaxRow = S.T.maxRowCount();
  return S;
}

bool within(int64_t Got, int64_t Want, double Tolerance) {
  return std::fabs(static_cast<double>(Got - Want)) <=
         Tolerance * static_cast<double>(Want);
}

/// The \p K quantiles (I + 1/2) / K of the log-uniform distribution over
/// [Lo, Hi]: the same size ladder on every seed, so runs with different
/// seeds see the same mix of sizes and only the matrices' structure varies.
std::vector<int64_t> logUniformLadder(int K, int64_t Lo, int64_t Hi) {
  double A = std::log(static_cast<double>(Lo));
  double B = std::log(static_cast<double>(Hi));
  std::vector<int64_t> Out;
  for (int I = 0; I < K; ++I)
    Out.push_back(std::llround(std::exp(A + (I + 0.5) / K * (B - A))));
  return Out;
}

std::shared_ptr<const SparseTensor> build(const formats::Format &F,
                                          const Triplets &T) {
  return std::make_shared<const SparseTensor>(buildFromTriplets(F, T));
}

Cell cell(const std::string &Pair, const formats::Format &Src,
          const formats::Format &Dst, const Triplets &T) {
  Cell C;
  C.Pair = Pair;
  C.Src = Src;
  C.Dst = Dst;
  C.In = build(Src, T);
  C.Expect = build(Dst, T);
  return C;
}

} // namespace

std::vector<StandIn> table2StandIns(double Scale, uint64_t Seed,
                                    std::vector<std::string> &Problems) {
  std::vector<StandIn> Out;
  for (const CorpusEntry &E : table2Corpus()) {
    StandIn S = generate(E, Scale, Seed);
    auto Check = [&](const char *Stat, int64_t Got, int64_t Want,
                     double Tol) {
      if (!within(Got, Want, Tol))
        Problems.push_back(strfmt("%s: %s %lld outside %.0f%% of the scaled "
                                  "Table 2 target %lld",
                                  S.Name.c_str(), Stat,
                                  static_cast<long long>(Got), Tol * 100,
                                  static_cast<long long>(Want)));
    };
    Check("rows", S.T.NumRows, S.TargetRows, 0);
    Check("cols", S.T.NumCols, S.TargetRows, 0);
    Check("nnz", S.T.nnz(), S.TargetNnz, kNnzTolerance);
    Check("diagonals", S.Diagonals, S.TargetDiags, kDiagTolerance);
    Check("max nnz/row", S.MaxRow, S.TargetMaxRow, kMaxRowTolerance);
    Out.push_back(std::move(S));
  }
  return Out;
}

std::vector<Cell> serviceMixCells(uint64_t Seed, bool Tiny) {
  const int K = Tiny ? 2 : 12;
  const int64_t Lo = 4096, Hi = 131072;
  // Sizes and shapes (rows, average row length) are the same on every seed,
  // so every run sends the same mix of work; the seed places the nonzeros.
  std::mt19937_64 Rng(mixSeed(Seed, "service_mix"));
  std::mt19937_64 Shape(mixSeed(0, "service_mix-shape"));
  std::uniform_real_distribution<double> AvgDist(4.0, 12.0);
  formats::Format Coo = formats::makeCOO(), Csr = formats::makeCSR();
  std::vector<Cell> Cells;
  const std::vector<int64_t> Sizes = logUniformLadder(K, Lo, Hi);
  auto Rows = [](int64_t Nnz, double Avg) {
    return std::max<int64_t>(16, std::llround(static_cast<double>(Nnz) / Avg));
  };

  for (int64_t Nnz : Sizes) {
    double Avg = AvgDist(Shape);
    int64_t R = Rows(Nnz, Avg);
    Cells.push_back(cell("coo_csr", Coo, Csr,
                         genRandomUniform(R, R, Avg, 4 * 12 + 8, Rng())));
  }
  for (int64_t Nnz : Sizes) {
    double Avg = AvgDist(Shape);
    int64_t R = Rows(Nnz, Avg);
    Cells.push_back(cell("csr_csc", Csr, formats::makeCSC(),
                         genBandedRandom(R, R, Avg, 32, 128, Rng())));
  }
  for (int64_t Nnz : Sizes) {
    int64_t R = Rows(Nnz, AvgDist(Shape));
    Cells.push_back(cell("csr_coo", Csr, Coo,
                         genPowerLawRows(R, R, Nnz, 256, Rng())));
  }
  for (int64_t Nnz : Sizes) {
    int64_t R = Rows(Nnz, 7 * 0.9);
    int64_t G = std::max<int64_t>(2, std::llround(std::sqrt(double(R))));
    Cells.push_back(cell("csr_dia", Csr, formats::makeDIA(),
                         genDiagonals(R, R, {-2 * G, -G, -1, 0, 1, G, 2 * G},
                                      0.9, Rng())));
  }
  for (int64_t Nnz : Sizes) {
    double Avg = AvgDist(Shape);
    int64_t R = Rows(Nnz, Avg);
    Cells.push_back(cell("csr_ell", Csr, formats::makeELL(),
                         genBandedRandom(R, R, Avg, 16, 64, Rng())));
  }
  for (int64_t Nnz : Sizes) {
    int64_t Side = std::max<int64_t>(
        8, std::llround(std::cbrt(4.0 * static_cast<double>(Nnz))));
    Cells.push_back(cell("coo3_csf", formats::makeCOO(3), formats::makeCSF(3),
                         genRandomTensor3(Side, Side, Side, Nnz, Rng())));
  }
  return Cells;
}

std::vector<Cell> tensor3Cells(uint64_t Seed, bool Tiny) {
  std::vector<int64_t> Sizes = Tiny ? std::vector<int64_t>{16384, 65536}
                                    : std::vector<int64_t>{262144, 1048576};
  formats::Format Coo3 = formats::makeCOO(3), Csf = formats::makeCSF(3);
  formats::Format Csf102 = formats::makeCSFPermuted({1, 0, 2});
  std::vector<Cell> Cells;
  for (int64_t Nnz : Sizes) {
    int64_t Side = std::llround(std::cbrt(16.0 * static_cast<double>(Nnz)));
    auto seedFor = [&](const char *Family) {
      return mixSeed(Seed, strfmt("%s%lld", Family,
                                  static_cast<long long>(Nnz)));
    };
    const int64_t Huge = int64_t(1) << 20;
    std::vector<Triplets> Inputs;
    Inputs.push_back(genRandomTensor3(Side, Side, Side, Nnz, seedFor("u")));
    Inputs.push_back(genSliceSkewed3(1024, 1024, 1024, Nnz, seedFor("s")));
    Inputs.push_back(
        genHyperSparse3(2 * Huge, Huge, Huge, Nnz, seedFor("h")));
    for (const Triplets &T : Inputs) {
      auto InCoo = build(Coo3, T), InCsf = build(Csf, T);
      Cells.push_back(Cell{"coo3_csf", Coo3, Csf, InCoo, InCsf});
      Cells.push_back(Cell{"csf_csf102", Csf, Csf102, InCsf, build(Csf102, T)});
      Cells.push_back(Cell{"csf_coo3", Csf, Coo3, InCsf, InCoo});
    }
  }
  return Cells;
}

} // namespace perfbench
