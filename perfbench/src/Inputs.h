//===----------------------------------------------------------------------===//
//
// Part of the convgen benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded workload inputs. Every tensor here is a function of the workload
/// seed; the program under test only ever receives the generated tensors.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "formats/Format.h"
#include "tensor/SparseTensor.h"
#include "tensor/Triplets.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One Table 2 stand-in, regenerated from table2Corpus()'s published
/// statistics with the tensor/Generators.h family of its matrix and the
/// workload seed mixed in.
struct StandIn {
  std::string Name;
  bool Symmetric = true;
  convgen::tensor::Triplets T;
  /// Scaled Table 2 targets and what the generated matrix achieved.
  int64_t TargetRows = 0, TargetNnz = 0, TargetDiags = 0, TargetMaxRow = 0;
  int64_t Diagonals = 0, MaxRow = 0;
};

/// Fidelity tolerances against the scaled Table 2 statistics: rows and
/// columns exact; nnz, diagonals and max nnz/row within these relative
/// bounds.
constexpr double kNnzTolerance = 0.05;
constexpr double kDiagTolerance = 0.35;
constexpr double kMaxRowTolerance = 0.0;

/// All 21 stand-ins at \p Scale, in the paper's order. Appends one line
/// per statistic outside its tolerance to \p Problems.
std::vector<StandIn> table2StandIns(double Scale, uint64_t Seed,
                                    std::vector<std::string> &Problems);

/// One (pair, input) cell of a served workload: the request's formats,
/// its input, and the oracle's expected output.
struct Cell {
  std::string Pair;
  convgen::formats::Format Src, Dst;
  std::shared_ptr<const convgen::tensor::SparseTensor> In;
  std::shared_ptr<const convgen::tensor::SparseTensor> Expect;
};

/// service_mix: coo->csr, csr->csc, csr->coo, csr->dia, csr->ell and
/// coo3->csf, nnz on a log-uniform ladder over [4096, 131072] (the same
/// sizes on every seed).
std::vector<Cell> serviceMixCells(uint64_t Seed, bool Tiny);

/// tensor3_csf: coo3->csf, csf->csf_102 and csf->coo3 over uniform,
/// slice-skewed and hyper-sparse order-3 tensors of 256k and 1M nnz.
std::vector<Cell> tensor3Cells(uint64_t Seed, bool Tiny);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
