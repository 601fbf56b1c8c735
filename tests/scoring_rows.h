// Hand-built scoring rows for the serving tests: the native kernel
// families, rows with the geometry trained embeddings have, and an owner of
// the matrices that hands out the ScoringSnapshot view over them
// (serve/snapshot.h). A view points into its owner, so the owner must
// outlive every view, FrozenModel and BatchServer built on it.
#ifndef TAXOREC_TESTS_SCORING_ROWS_H_
#define TAXOREC_TESTS_SCORING_ROWS_H_

#include <cmath>
#include <cstdint>
#include <ostream>
#include <vector>

#include "math/matrix.h"
#include "math/rng.h"
#include "serve/snapshot.h"

namespace taxorec {

/// A native scoring family: the metric, and whether the rows carry a tag
/// channel (TaxoRec's alpha_u-weighted second distance, Eq. 17).
struct KernelFamily {
  ScoreKernel kernel;
  bool tags = false;
};

inline std::ostream& operator<<(std::ostream& os, const KernelFamily& f) {
  return os << static_cast<int>(f.kernel) << (f.tags ? "+tags" : "");
}

inline constexpr KernelFamily kTwoChannelLorentz{
    ScoreKernel::kNegLorentzSqDist, /*tags=*/true};
inline constexpr KernelFamily kTwoChannelEuclid{ScoreKernel::kNegSqDist,
                                                /*tags=*/true};

inline constexpr KernelFamily kNativeKernels[] = {
    {ScoreKernel::kDot}, {ScoreKernel::kNegSqDist},
    {ScoreKernel::kNegLorentzSqDist}, kTwoChannelLorentz, kTwoChannelEuclid,
};

/// Fills `m` with Gaussian rows; Lorentz channels get spatial Gaussians
/// lifted onto the hyperboloid (x0 = sqrt(1 + ||spatial||^2)), matching
/// how trained Lorentz embeddings look.
inline void FillRows(Matrix* m, bool lorentz, double spread, Rng* rng) {
  for (size_t r = 0; r < m->rows(); ++r) {
    auto row = m->row(r);
    double sq = 0.0;
    for (size_t c = lorentz ? 1 : 0; c < row.size(); ++c) {
      row[c] = spread * rng->NextGaussian();
      sq += row[c] * row[c];
    }
    if (lorentz) row[0] = std::sqrt(1.0 + sq);
  }
}

/// Scoring rows a test owns. The tag rows and alpha stay empty without a
/// tag channel.
struct OwnedRows {
  ScoreKernel kernel = ScoreKernel::kDot;
  Matrix users, items;
  Matrix users_tg, items_tg;
  std::vector<double> alpha;

  /// The view over these rows, as a model's scoring_rows() declares it.
  ScoringSnapshot view() const {
    if (alpha.empty()) return {kernel, &users, &items};
    return {kernel, &users, &items, &users_tg, &items_tg, alpha};
  }
};

/// Rows with realistic geometry for every kernel family. Families with
/// tags get a tag channel and a per-user alpha that is 0 for every third
/// user (exercising the hoisted alpha branch both ways).
inline OwnedRows MakeRows(KernelFamily family, size_t users, size_t items,
                          size_t dim, size_t tag_dim, uint64_t seed) {
  Rng rng(seed);
  OwnedRows rows;
  rows.kernel = family.kernel;
  rows.users = Matrix(users, dim);
  rows.items = Matrix(items, dim);
  const bool lorentz = family.kernel == ScoreKernel::kNegLorentzSqDist;
  FillRows(&rows.users, lorentz, 0.6, &rng);
  FillRows(&rows.items, lorentz, 0.6, &rng);
  if (family.tags) {
    rows.users_tg = Matrix(users, tag_dim);
    rows.items_tg = Matrix(items, tag_dim);
    FillRows(&rows.users_tg, lorentz, 0.4, &rng);
    FillRows(&rows.items_tg, lorentz, 0.4, &rng);
    rows.alpha.resize(users);
    for (size_t u = 0; u < users; ++u) {
      rows.alpha[u] = (u % 3 == 0) ? 0.0 : rng.UniformReal(0.2, 1.0);
    }
  }
  return rows;
}

}  // namespace taxorec

#endif  // TAXOREC_TESTS_SCORING_ROWS_H_
