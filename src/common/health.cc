#include "common/health.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "hyperbolic/lorentz.h"
#include "hyperbolic/poincare.h"
#include "math/vec_ops.h"

namespace taxorec {
namespace {

// Poincaré rows are flagged past 1 - kBallEps + kBallSlack; the slack
// covers the rounding of ProjectToBall's rescale.
constexpr double kBallSlack = 1e-9;
// Lorentz rows are flagged when |<x,x>_L + 1| exceeds this.
constexpr double kLorentzTol = 1e-6;
// Findings kept per report (all of them are counted).
constexpr size_t kMaxIssues = 8;

bool AllFinite(std::span<const double> row) {
  for (double v : row) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// First non-finite entry of `row` ("nan" beats "inf" only by position).
double FirstNonFinite(std::span<const double> row) {
  for (double v : row) {
    if (!std::isfinite(v)) return v;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

std::string NonFiniteKind(double v) { return std::isnan(v) ? "nan" : "inf"; }

}  // namespace

std::string HealthIssue::ToString() const {
  std::ostringstream out;
  out << matrix << " row " << row << ": " << kind << " (value " << value
      << ")";
  return out.str();
}

std::string HealthReport::ToString() const {
  if (healthy()) return "healthy";
  std::ostringstream out;
  out << "unhealthy: " << nonfinite_values << " non-finite value(s), "
      << off_manifold_rows << " off-manifold row(s), " << bad_losses
      << " bad loss(es)";
  for (const HealthIssue& issue : structured_issues) {
    out << "; " << issue.ToString();
  }
  return out.str();
}

HealthMonitor::HealthMonitor(HealthOptions options)
    : options_(options) {}

void HealthMonitor::AddIssue(HealthIssue issue) {
  if (report_.structured_issues.size() < kMaxIssues) {
    report_.structured_issues.push_back(std::move(issue));
  }
}

void HealthMonitor::CheckFinite(std::string_view name, const Matrix& m) {
  report_.values_scanned += m.rows() * m.cols();
  for (size_t r = 0; r < m.rows(); ++r) {
    size_t bad = 0;
    for (double v : m.row(r)) {
      if (!std::isfinite(v)) ++bad;
    }
    if (bad > 0) {
      report_.nonfinite_values += bad;
      const double v = FirstNonFinite(m.row(r));
      AddIssue({std::string(name), r, NonFiniteKind(v), v});
    }
  }
}

void HealthMonitor::CheckBallRows(std::string_view name, const Matrix& m) {
  report_.values_scanned += m.rows() * m.cols();
  const double max_norm = 1.0 - poincare::kBallEps + kBallSlack;
  for (size_t r = 0; r < m.rows(); ++r) {
    const auto row = m.row(r);
    if (!AllFinite(row)) {
      ++report_.nonfinite_values;
      const double v = FirstNonFinite(row);
      AddIssue({std::string(name), r, NonFiniteKind(v), v});
      continue;
    }
    const double n = vec::Norm(row);
    if (n > max_norm) {
      ++report_.off_manifold_rows;
      AddIssue({std::string(name), r, "ball-escape", n});
    }
  }
}

void HealthMonitor::CheckLorentzRows(std::string_view name, const Matrix& m) {
  report_.values_scanned += m.rows() * m.cols();
  for (size_t r = 0; r < m.rows(); ++r) {
    const auto row = m.row(r);
    if (!AllFinite(row)) {
      ++report_.nonfinite_values;
      const double v = FirstNonFinite(row);
      AddIssue({std::string(name), r, NonFiniteKind(v), v});
      continue;
    }
    const double residual = lorentz::ConstraintResidual(row);
    if (std::abs(residual) > kLorentzTol) {
      ++report_.off_manifold_rows;
      AddIssue({std::string(name), r, "lorentz-residual", residual});
    }
  }
}

void HealthMonitor::CheckLoss(int epoch, double loss) {
  const bool finite = std::isfinite(loss);
  const bool exploded =
      options_.max_abs_loss > 0.0 && finite &&
      std::abs(loss) > options_.max_abs_loss;
  if (!finite || exploded) {
    ++report_.bad_losses;
    const std::string kind =
        exploded ? "loss-explosion" : "loss-" + NonFiniteKind(loss);
    AddIssue({"loss", static_cast<size_t>(epoch), kind, loss});
  }
}

}  // namespace taxorec
