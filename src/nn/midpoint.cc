#include "nn/midpoint.h"

#include <cmath>

#include "common/check.h"
#include "hyperbolic/klein.h"
#include "hyperbolic/maps.h"
#include "math/vec_ops.h"

namespace taxorec::nn {

TagAggregation::TagAggregation(const CsrMatrix* item_tags)
    : item_tags_(item_tags) {
  TAXOREC_CHECK(item_tags != nullptr);
}

void TagAggregation::Forward(const Matrix& tags_poincare, TagAggContext* ctx,
                             Matrix* out) const {
  const size_t S = num_tags();
  const size_t dt = tags_poincare.cols();
  TAXOREC_CHECK(tags_poincare.rows() == S);

  ctx->tags_klein.EnsureShape(S, dt);
  ctx->gamma.assign(S, 1.0);
  for (size_t t = 0; t < S; ++t) {
    hyper::PoincareToKlein(tags_poincare.row(t), ctx->tags_klein.row(t));
    ctx->gamma[t] = klein::LorentzFactor(ctx->tags_klein.row(t));
  }

  const size_t items = num_items();
  ctx->mu.EnsureShape(items, dt);  // every row is zeroed before use
  ctx->denom.assign(items, 0.0);
  out->EnsureShape(items, dt + 1);
  for (size_t v = 0; v < items; ++v) {
    const auto tags = item_tags_->RowCols(v);
    auto mu = ctx->mu.row(v);
    vec::Zero(mu);
    double denom = 0.0;
    for (uint32_t t : tags) {
      vec::Axpy(ctx->gamma[t], ctx->tags_klein.row(t), mu);
      denom += ctx->gamma[t];
    }
    if (denom > 0.0) {
      vec::Scale(mu, 1.0 / denom);
    }
    ctx->denom[v] = denom;
    // Klein midpoint → Lorentz (items without tags land on the origin).
    hyper::KleinToLorentz(mu, out->row(v));
  }
}

void TagAggregation::Backward(const Matrix& tags_poincare,
                              const TagAggContext& ctx,
                              const Matrix& upstream,
                              Matrix* grad_tags) const {
  const size_t S = num_tags();
  const size_t dt = tags_poincare.cols();
  TAXOREC_CHECK(grad_tags->rows() == S && grad_tags->cols() == dt);
  TAXOREC_CHECK(upstream.rows() == num_items() &&
                upstream.cols() == dt + 1);

  // Accumulate gradients in Klein coordinates first, then map back through
  // the Poincaré→Klein Jacobian once per tag.
  Matrix grad_klein(S, dt);
  std::vector<double> gmu(dt);

  for (size_t v = 0; v < num_items(); ++v) {
    const auto tags = item_tags_->RowCols(v);
    if (tags.empty() || ctx.denom[v] <= 0.0) continue;
    const auto mu = ctx.mu.row(v);
    // Backward through KleinToLorentz: upstream (dt+1) → gmu (dt).
    vec::Zero(vec::Span(gmu));
    hyper::KleinToLorentzGrad(mu, upstream.row(v), 1.0, vec::Span(gmu));
    const double g_dot_mu = vec::Dot(vec::ConstSpan(gmu), mu);
    const double inv_denom = 1.0 / ctx.denom[v];
    for (uint32_t t : tags) {
      const auto k = ctx.tags_klein.row(t);
      const double gamma = ctx.gamma[t];
      const double gamma3 = gamma * gamma * gamma;
      const double g_dot_k = vec::Dot(vec::ConstSpan(gmu), k);
      auto gk = grad_klein.row(t);
      const double coef_k = inv_denom * gamma3 * (g_dot_k - g_dot_mu);
      for (size_t b = 0; b < dt; ++b) {
        gk[b] += inv_denom * gamma * gmu[b] + coef_k * k[b];
      }
    }
  }

  // Klein → Poincaré Jacobian transpose: k = 2p/(1+||p||^2).
  for (size_t t = 0; t < S; ++t) {
    const auto p = tags_poincare.row(t);
    const auto gk = grad_klein.row(t);
    auto gp = grad_tags->row(t);
    const double s = 1.0 + vec::SqNorm(p);
    const double p_dot_gk = vec::Dot(p, gk);
    const double c1 = 2.0 / s;
    const double c2 = 4.0 * p_dot_gk / (s * s);
    for (size_t b = 0; b < dt; ++b) {
      gp[b] += c1 * gk[b] - c2 * p[b];
    }
  }
}

}  // namespace taxorec::nn
