#include "baselines/recommender.h"

#include "baselines/agcn.h"
#include "baselines/amf.h"
#include "baselines/bprmf.h"
#include "baselines/cml.h"
#include "baselines/cmlf.h"
#include "baselines/hgcf.h"
#include "baselines/hyperml.h"
#include "baselines/lightgcn.h"
#include "baselines/lrml.h"
#include "baselines/neumf.h"
#include "baselines/ngcf.h"
#include "baselines/nmf.h"
#include "baselines/sml.h"
#include "baselines/transcf.h"
#include "core/taxorec_model.h"
#include "math/vec_ops.h"

namespace taxorec {

void Recommender::ScoreItems(uint32_t user, std::span<double> out) const {
  const ScoringSnapshot rows = scoring_rows();
  TAXOREC_CHECK_MSG(rows.kernel != ScoreKernel::kVirtual,
                    "a model without scoring rows overrides ScoreItems");
  if (rows.kernel == ScoreKernel::kDot) {
    const auto u = rows.users->row(user);
    for (size_t v = 0; v < rows.items->rows(); ++v) {
      out[v] = vec::Dot(u, rows.items->row(v));
    }
    return;
  }
  for (size_t v = 0; v < rows.items->rows(); ++v) {
    out[v] = -rows.PairDistance(user, static_cast<uint32_t>(v));
  }
}

ScoringSnapshot Recommender::ExportScoringSnapshot() const {
  ScoringSnapshot view = scoring_rows();
  if (view.kernel == ScoreKernel::kVirtual) view.live = this;
  return view;
}

void Recommender::CheckHealth(HealthMonitor* monitor) const {
  const ScoringSnapshot rows = scoring_rows();
  if (rows.kernel == ScoreKernel::kVirtual) return;
  if (rows.kernel == ScoreKernel::kNegLorentzSqDist) {
    monitor->CheckLorentzRows("users", *rows.users);
    monitor->CheckLorentzRows("items", *rows.items);
  } else {
    monitor->CheckFinite("users", *rows.users);
    monitor->CheckFinite("items", *rows.items);
  }
}

void Recommender::Fit(const DataSplit& split, Rng* rng) {
  BeginFit(split, rng);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    FitEpoch(split, epoch, rng);
  }
  EndFit(split);
}

Status Recommender::RestoreState(const Checkpoint& ckpt,
                                 const DataSplit& split) {
  return Status::FailedPrecondition(name() +
                                    " does not support state restore");
}

std::vector<std::string> RegisteredModelNames() {
  // Table II row order: general, metric learning, graph based, tag based,
  // then TaxoRec.
  return {"BPRMF",    "NMF",  "NeuMF", "CML",  "TransCF",
          "LRML",     "SML",  "HyperML", "NGCF", "LightGCN",
          "HGCF",     "CMLF", "AMF",   "AGCN", "TaxoRec"};
}

std::unique_ptr<Recommender> MakeModel(const std::string& name,
                                       const ModelConfig& config) {
  if (name == "BPRMF") return std::make_unique<BprMf>(config);
  if (name == "NMF") return std::make_unique<Nmf>(config);
  if (name == "NeuMF") return std::make_unique<NeuMf>(config);
  if (name == "CML") return std::make_unique<Cml>(config);
  if (name == "TransCF") return std::make_unique<TransCf>(config);
  if (name == "LRML") return std::make_unique<Lrml>(config);
  if (name == "SML") return std::make_unique<Sml>(config);
  if (name == "HyperML") return std::make_unique<HyperMl>(config);
  if (name == "NGCF") return std::make_unique<Ngcf>(config);
  if (name == "LightGCN") return std::make_unique<LightGcn>(config);
  if (name == "HGCF") return std::make_unique<Hgcf>(config);
  if (name == "CMLF") return std::make_unique<Cmlf>(config);
  if (name == "AMF") return std::make_unique<Amf>(config);
  if (name == "AGCN") return std::make_unique<Agcn>(config);
  if (name == "TaxoRec") {
    TaxoRecOptions opts;
    opts.lambda = config.reg_lambda;
    return std::make_unique<TaxoRecModel>(config, opts);
  }
  return nullptr;
}

}  // namespace taxorec
