// Numerical-health monitoring for hyperbolic training runs.
//
// Hyperbolic optimization is numerically fragile: Poincaré points drift
// toward the ball boundary and Lorentz inner products leave the acosh
// domain, so a single overflowing step can silently poison an entire run.
// A HealthMonitor scans parameter matrices and per-epoch losses for
// NaN/Inf and off-manifold drift (ball norm >= 1 - eps; hyperboloid
// constraint residual |<x,x>_L + 1| > tol) and produces a structured
// HealthReport that the training loop uses to trigger checkpoint rollback
// (see core/trainer.h).
#ifndef TAXOREC_COMMON_HEALTH_H_
#define TAXOREC_COMMON_HEALTH_H_

#include <string>
#include <string_view>
#include <vector>

#include "math/matrix.h"

namespace taxorec {

struct HealthOptions {
  /// When > 0, losses with |loss| above this are flagged (non-finite
  /// losses are always flagged).
  double max_abs_loss = 0.0;
};

/// One finding: which matrix (or "loss"), which row (epoch for losses),
/// how the value is bad, and the offending value (norm, residual, or loss;
/// NaN for non-finite findings). Feeds divergence Status messages,
/// telemetry events and HealthReport::ToString.
struct HealthIssue {
  std::string matrix;  // parameter matrix name, or "loss"
  size_t row = 0;      // row index (epoch number for loss issues)
  /// Value class: "nan", "inf", "ball-escape", "lorentz-residual",
  /// "loss-nan", "loss-inf", or "loss-explosion".
  std::string kind;
  double value = 0.0;

  /// "users_ir row 17: nan (value nan)" one-liner.
  std::string ToString() const;
};

/// Aggregated findings of one monitoring pass.
struct HealthReport {
  size_t values_scanned = 0;
  size_t nonfinite_values = 0;
  size_t off_manifold_rows = 0;
  size_t bad_losses = 0;
  /// The first eight findings in scan order (the first entry is the first
  /// defect the scan encountered).
  std::vector<HealthIssue> structured_issues;

  bool healthy() const {
    return nonfinite_values == 0 && off_manifold_rows == 0 && bad_losses == 0;
  }
  /// The most actionable defect: the first one found in a parameter
  /// matrix when any exists (matrix defects localize the blow-up; a bad
  /// loss is usually a downstream symptom), else the first recorded
  /// issue. nullptr when healthy.
  const HealthIssue* first_issue() const {
    for (const HealthIssue& issue : structured_issues) {
      if (issue.matrix != "loss") return &issue;
    }
    return structured_issues.empty() ? nullptr : &structured_issues.front();
  }
  /// "healthy" or a compact summary of the counters plus the first issues.
  std::string ToString() const;
};

/// Accumulates checks into a HealthReport. Not thread-safe; create one per
/// scan (they are cheap).
class HealthMonitor {
 public:
  explicit HealthMonitor(HealthOptions options = {});

  /// Flags NaN/Inf entries anywhere in `m`.
  void CheckFinite(std::string_view name, const Matrix& m);

  /// Flags non-finite rows and rows escaping the Poincaré ball
  /// (||row|| > 1 - poincare::kBallEps, plus slack for the rounding of
  /// ProjectToBall's rescale: a freshly projected row sits exactly at that
  /// radius and is not flagged).
  void CheckBallRows(std::string_view name, const Matrix& m);

  /// Flags non-finite rows and rows off the hyperboloid
  /// (|<row,row>_L + 1| > 1e-6). Rows are d+1 Lorentz points.
  void CheckLorentzRows(std::string_view name, const Matrix& m);

  /// Flags non-finite (and, if configured, exploding) epoch losses.
  void CheckLoss(int epoch, double loss);

  bool healthy() const { return report_.healthy(); }
  const HealthReport& report() const { return report_; }
  void Reset() { report_ = HealthReport(); }

 private:
  void AddIssue(HealthIssue issue);

  HealthOptions options_;
  HealthReport report_;
};

}  // namespace taxorec

#endif  // TAXOREC_COMMON_HEALTH_H_
