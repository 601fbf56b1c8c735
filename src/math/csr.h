// Compressed sparse row matrix over binary/weighted relations.
//
// Used for the user-item interaction matrix X, the item-tag matrix A (Ψ in
// the paper), and the normalized bipartite propagation operators of the GCN.
#ifndef TAXOREC_MATH_CSR_H_
#define TAXOREC_MATH_CSR_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "math/matrix.h"

namespace taxorec {

/// Immutable CSR matrix built from (row, col[, weight]) triplets.
class CsrMatrix {
 public:
  CsrMatrix() : rows_(0), cols_(0) {}

  /// Builds from unweighted edges (all weights 1.0). Duplicate edges are
  /// collapsed (weights summed).
  static CsrMatrix FromPairs(size_t rows, size_t cols,
                             std::vector<std::pair<uint32_t, uint32_t>> edges);

  /// Builds from weighted triplets (row, col, weight); duplicates summed.
  static CsrMatrix FromTriplets(
      size_t rows, size_t cols,
      std::vector<std::tuple<uint32_t, uint32_t, double>> triplets);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return col_idx_.size(); }

  /// Column indices of row r (sorted ascending).
  std::span<const uint32_t> RowCols(size_t r) const {
    TAXOREC_DCHECK(r < rows_);
    return std::span<const uint32_t>(col_idx_.data() + row_ptr_[r],
                                     row_ptr_[r + 1] - row_ptr_[r]);
  }
  /// Weights of row r, aligned with RowCols(r).
  std::span<const double> RowWeights(size_t r) const {
    TAXOREC_DCHECK(r < rows_);
    return std::span<const double>(weights_.data() + row_ptr_[r],
                                   row_ptr_[r + 1] - row_ptr_[r]);
  }

  size_t RowNnz(size_t r) const {
    TAXOREC_DCHECK(r < rows_);
    return row_ptr_[r + 1] - row_ptr_[r];
  }

  /// True if (r, c) is an explicit entry (binary membership test).
  bool Contains(uint32_t r, uint32_t c) const;

  /// Transposed copy (cols × rows).
  CsrMatrix Transposed() const;

  /// out = this * dense  (rows × d). dense must have cols() rows.
  void Multiply(const Matrix& dense, Matrix* out) const;

  /// out += alpha * this * dense.
  void MultiplyAccum(const Matrix& dense, double alpha, Matrix* out) const;

  /// A GCN layer's finish (nn/gcn.h), which MultiplyAdd applies to each
  /// output element v as its row kernel stores it: out = v * 0.5, plus
  /// add's element when `add` is set (the backward pass's upstream); then,
  /// when `sum` is set, sum = (first ? +0.0 : sum) + out (the forward
  /// layer sum). `add` and `sum` have out's shape.
  struct LayerFinish {
    const Matrix* add = nullptr;
    Matrix* sum = nullptr;
    bool first = false;
  };

  /// out = init + alpha * this * dense, the SpMM behind Multiply and
  /// MultiplyAccum, with `finish` (when set) applied as it is stored.
  /// `init` is a matrix of out's shape (it may be `out` itself) or null for
  /// zero; `out` must already have its shape. `rows` (null: every row)
  /// lists the output rows to compute, ascending and distinct; every other
  /// row of `out` and of the finish's `sum` is left as it is, and
  /// `taxorec.spmm.rows` counts only the rows computed. Every output
  /// element is computed by the same double operations on every kernel,
  /// thread count and row list: start from init (or +0.0), then add
  /// (alpha * w_k) * dense(c_k, j) for the row's nonzeros in column order,
  /// each product and sum rounded separately (no FMA), then the finish.
  /// Chunks of rows run in parallel with one writer per row.
  void MultiplyAdd(const Matrix& dense, double alpha, const Matrix* init,
                   Matrix* out, const LayerFinish* finish = nullptr,
                   const std::vector<uint32_t>* rows = nullptr) const;

  /// Name of the row kernel MultiplyAdd runs at the active SIMD level
  /// (math/simd.h): "avx512", "avx2" or "portable".
  static const char* KernelName();

  /// Returns a copy whose rows are L1-normalized (each nonzero row sums
  /// to 1) — the 1/|N| propagation operator of Eq. 13.
  CsrMatrix RowNormalized() const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<size_t> row_ptr_;     // size rows_+1
  std::vector<uint32_t> col_idx_;   // size nnz
  std::vector<double> weights_;     // size nnz
};

}  // namespace taxorec

#endif  // TAXOREC_MATH_CSR_H_
