// Behaviour pins: committed FNV-1a digests of short fixed-seed runs.
//
// Each model trains briefly on one small synthetic profile, then every
// observable output is digested over its raw bytes:
//   eval.test / eval.val    EvaluateRanking on both protocols (ks, cutoff,
//                           recall, NDCG, per-user vectors, user count);
//   serve.<tier>            BatchServer lists for every user (item ids and
//                           score bits) at the double, float32, int8 tiers;
//   ivf.<tier>              IVF-retrieved lists at the float32 and int8 tiers
//                           (native kernels only; the float32 probe prunes
//                           on the cell score bounds, the int8 one does not);
//   serve_mixed_k.<tier>    BatchServer lists with k cycling over
//                           {1, 7, 20, 200} across requests (native kernels
//                           only; 200 exceeds the catalogue, so excluded
//                           items surface at -Inf);
//   recommend               RecommendTopK lists for every user;
//   state                   the SaveState payload (models that have one).
// The same digests are required at 1 and at 4 threads, on every SIMD
// level the host runs (AVX-512, AVX2, portable). A refactor that claims "no
// output changed" must leave this table untouched; a change that moves an
// output on purpose re-pins the named entry (the failure message prints
// the replacement line).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "baselines/recommender.h"
#include "common/parallel.h"
#include "core/trainer.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/recommend.h"
#include "math/simd.h"
#include "serve/server.h"
#include "simd_levels.h"

namespace taxorec {
namespace {

struct GoldenDigest {
  const char* model;
  const char* output;
  uint64_t digest;
};

// Pinned before the single-ranking-path refactor (EvaluateRanking through
// serve/topk, one shared int8 re-rank) and unchanged by it.
constexpr GoldenDigest kGolden[] = {
    {"TaxoRec", "eval.test", 0x62589bf1b0ee726dULL},
    {"TaxoRec", "eval.val", 0x9436c0a206d4b5faULL},
    {"TaxoRec", "serve.double", 0x0172a57de2945a86ULL},
    {"TaxoRec", "serve.float32", 0x5fad74a6fe83d436ULL},
    {"TaxoRec", "serve.int8", 0x5fad74a6fe83d436ULL},
    {"TaxoRec", "ivf.float32", 0x92c189046ff0a821ULL},
    {"TaxoRec", "ivf.int8", 0x92c189046ff0a821ULL},
    {"TaxoRec", "recommend", 0x0172a57de2945a86ULL},
    {"TaxoRec", "state", 0x31e606b512c263a8ULL},
    {"HyperML", "eval.test", 0x0478dca37e5fa159ULL},
    {"HyperML", "eval.val", 0x75109676a96dd9d5ULL},
    {"HyperML", "serve.double", 0xb58bd8f78b59bc20ULL},
    {"HyperML", "serve.float32", 0x8d238de1d7379ddfULL},
    {"HyperML", "serve.int8", 0x8d238de1d7379ddfULL},
    {"HyperML", "ivf.float32", 0xf4210dae2213ac66ULL},
    {"HyperML", "ivf.int8", 0xf4210dae2213ac66ULL},
    {"HyperML", "recommend", 0xb58bd8f78b59bc20ULL},
    {"HyperML", "state", 0xb91a722d3d4be805ULL},
    {"CML", "eval.test", 0x8e1748c582dd91d3ULL},
    {"CML", "eval.val", 0x54df7ee90e574f06ULL},
    {"CML", "serve.double", 0xa7806f92f9321ab4ULL},
    {"CML", "serve.float32", 0xc1731e6ec72dd4efULL},
    {"CML", "serve.int8", 0xc1731e6ec72dd4efULL},
    {"CML", "ivf.float32", 0xf691dc0f2b34c189ULL},
    {"CML", "ivf.int8", 0xf691dc0f2b34c189ULL},
    {"CML", "recommend", 0xa7806f92f9321ab4ULL},
    {"BPRMF", "eval.test", 0x680e61e64c338ca8ULL},
    {"BPRMF", "eval.val", 0x75cc7bbbb9da49c5ULL},
    {"BPRMF", "serve.double", 0x5ca47c6fbd785adaULL},
    {"BPRMF", "serve.float32", 0x51d3ae24033f98c5ULL},
    {"BPRMF", "serve.int8", 0x51d3ae24033f98c5ULL},
    {"BPRMF", "ivf.float32", 0xb58318f0ddcd62e2ULL},
    {"BPRMF", "ivf.int8", 0xb58318f0ddcd62e2ULL},
    {"BPRMF", "recommend", 0x5ca47c6fbd785adaULL},
    {"LightGCN", "eval.test", 0x50fbfb583aea237aULL},
    {"LightGCN", "eval.val", 0x68f305a060f3a981ULL},
    {"LightGCN", "serve.double", 0xdba51753fb58e310ULL},
    {"LightGCN", "serve.float32", 0xb5989d0d74088326ULL},
    {"LightGCN", "serve.int8", 0xb5989d0d74088326ULL},
    {"LightGCN", "ivf.float32", 0x2ebc40cfcdd191f8ULL},
    {"LightGCN", "ivf.int8", 0x2ebc40cfcdd191f8ULL},
    {"LightGCN", "recommend", 0xdba51753fb58e310ULL},
    {"NeuMF", "eval.test", 0xecd574b67ed37b02ULL},
    {"NeuMF", "eval.val", 0x006983c701c6bd85ULL},
    {"NeuMF", "serve.double", 0xa07bd7f4808765adULL},
    {"NeuMF", "serve.float32", 0xa07bd7f4808765adULL},
    {"NeuMF", "serve.int8", 0xa07bd7f4808765adULL},
    {"NeuMF", "recommend", 0xa07bd7f4808765adULL},
    // Pinned before the register-blocked SpMM kernel and the allocation-free
    // GCN step, and unchanged by them.
    {"TaxoRecWide", "eval.test", 0x3faa6aa4de428ee5ULL},
    {"TaxoRecWide", "eval.val", 0xaef292f114348573ULL},
    {"TaxoRecWide", "serve.double", 0xd766ea1e4a9a4f14ULL},
    {"TaxoRecWide", "serve.float32", 0xfd47f6548ca60f0cULL},
    {"TaxoRecWide", "serve.int8", 0xfd47f6548ca60f0cULL},
    {"TaxoRecWide", "ivf.float32", 0xa6545327db0d03eaULL},
    {"TaxoRecWide", "ivf.int8", 0xa6545327db0d03eaULL},
    {"TaxoRecWide", "recommend", 0xd766ea1e4a9a4f14ULL},
    {"TaxoRecWide", "state", 0x9e61efe796911f15ULL},
    {"HGCF", "eval.test", 0x482d6e681fdacd9dULL},
    {"HGCF", "eval.val", 0x37ec5a986150e459ULL},
    {"HGCF", "serve.double", 0xe0265e758de7e47cULL},
    {"HGCF", "serve.float32", 0x3674696b638a1937ULL},
    {"HGCF", "serve.int8", 0x3674696b638a1937ULL},
    {"HGCF", "ivf.float32", 0x2f5149dd25c6a7edULL},
    {"HGCF", "ivf.int8", 0x2f5149dd25c6a7edULL},
    {"HGCF", "recommend", 0xe0265e758de7e47cULL},
    {"NGCF", "eval.test", 0xae10cc45bd7f8031ULL},
    {"NGCF", "eval.val", 0xc4234f669052ef99ULL},
    {"NGCF", "serve.double", 0xe9e28902f4c9412fULL},
    {"NGCF", "serve.float32", 0xa86b1e90ace05e27ULL},
    {"NGCF", "serve.int8", 0xa86b1e90ace05e27ULL},
    {"NGCF", "ivf.float32", 0x09e218c2d42f86baULL},
    {"NGCF", "ivf.int8", 0x09e218c2d42f86baULL},
    {"NGCF", "recommend", 0xe9e28902f4c9412fULL},
    {"AGCN", "eval.test", 0x67e7148f9a4cf116ULL},
    {"AGCN", "eval.val", 0xdc07f70a775ca608ULL},
    {"AGCN", "serve.double", 0x7579263ccf2145e5ULL},
    {"AGCN", "serve.float32", 0x8550ae57f341c2a0ULL},
    {"AGCN", "serve.int8", 0x8550ae57f341c2a0ULL},
    {"AGCN", "ivf.float32", 0x5de911f3caf062faULL},
    {"AGCN", "ivf.int8", 0x5de911f3caf062faULL},
    {"AGCN", "recommend", 0x7579263ccf2145e5ULL},
    {"NMF", "eval.test", 0x0bae1510ad76c536ULL},
    {"NMF", "eval.val", 0x58e01024cd15299cULL},
    {"NMF", "serve.double", 0xccb44344e990365cULL},
    {"NMF", "serve.float32", 0x5ea4e079d575b5edULL},
    {"NMF", "serve.int8", 0xad2d0a2909fea111ULL},
    {"NMF", "ivf.float32", 0x11734bcc1e850435ULL},
    {"NMF", "ivf.int8", 0xa3969a62754827abULL},
    {"NMF", "recommend", 0xccb44344e990365cULL},
    // Pinned before the baselines' training loops were split into
    // BeginFit/FitEpoch/EndFit, and unchanged by it: the five registered
    // models the table had left out.
    {"TransCF", "eval.test", 0x7dbf5d014423cc2aULL},
    {"TransCF", "eval.val", 0x1551bb51ac7acb45ULL},
    {"TransCF", "serve.double", 0xc2bc75afe45e332eULL},
    {"TransCF", "serve.float32", 0xc2bc75afe45e332eULL},
    {"TransCF", "serve.int8", 0xc2bc75afe45e332eULL},
    {"TransCF", "recommend", 0xc2bc75afe45e332eULL},
    {"LRML", "eval.test", 0x1ccf2fd2301cb369ULL},
    {"LRML", "eval.val", 0x311c3a0fa34dc192ULL},
    {"LRML", "serve.double", 0x96fb93dc61b4909fULL},
    {"LRML", "serve.float32", 0x96fb93dc61b4909fULL},
    {"LRML", "serve.int8", 0x96fb93dc61b4909fULL},
    {"LRML", "recommend", 0x96fb93dc61b4909fULL},
    {"SML", "eval.test", 0xc626a9d638a04994ULL},
    {"SML", "eval.val", 0x9b0ae405441421f0ULL},
    {"SML", "serve.double", 0x1d13a390e1629a62ULL},
    {"SML", "serve.float32", 0x4ae7948c57aee2aaULL},
    {"SML", "serve.int8", 0x4ae7948c57aee2aaULL},
    {"SML", "ivf.float32", 0xb757cbeff785724cULL},
    {"SML", "ivf.int8", 0xb757cbeff785724cULL},
    {"SML", "recommend", 0x1d13a390e1629a62ULL},
    {"CMLF", "eval.test", 0x397931bcca568248ULL},
    {"CMLF", "eval.val", 0xcba74e697214d3caULL},
    {"CMLF", "serve.double", 0xd016ebd6630fd598ULL},
    {"CMLF", "serve.float32", 0xd016ebd6630fd598ULL},
    {"CMLF", "serve.int8", 0xd016ebd6630fd598ULL},
    {"CMLF", "recommend", 0xd016ebd6630fd598ULL},
    {"AMF", "eval.test", 0x884cba6a92ae846bULL},
    {"AMF", "eval.val", 0xe46b3045795fcf03ULL},
    {"AMF", "serve.double", 0x72e2f0047fce15c6ULL},
    {"AMF", "serve.float32", 0x72e2f0047fce15c6ULL},
    {"AMF", "serve.int8", 0x72e2f0047fce15c6ULL},
    {"AMF", "recommend", 0x72e2f0047fce15c6ULL},
    // Pinned before the tag channel became optional snapshot data (one
    // distance loop per metric), and unchanged by it: the Euclidean
    // ablation with a tag channel (Table III's CML+Agg). The ivf.float32
    // pins above cover the float32 IVF probe, the one that prunes on the
    // cell score bounds.
    {"CMLAgg", "eval.test", 0xaa09f6e3bc315a20ULL},
    {"CMLAgg", "eval.val", 0xdc28698d88a12dd4ULL},
    {"CMLAgg", "serve.double", 0x93d20c65061053a0ULL},
    {"CMLAgg", "serve.float32", 0xd21f80b9d805cf17ULL},
    {"CMLAgg", "serve.int8", 0xd21f80b9d805cf17ULL},
    {"CMLAgg", "ivf.float32", 0x9143ac3a304c27f0ULL},
    {"CMLAgg", "ivf.int8", 0x9143ac3a304c27f0ULL},
    {"CMLAgg", "recommend", 0x93d20c65061053a0ULL},
    {"CMLAgg", "state", 0x277688885e012cf2ULL},
    // Table III's Hyper+CML+Agg: hyperbolic TaxoRec with λ = 0, so the
    // taxonomy regularizer never runs. Its eval digests equal TaxoRec's
    // (the regularizer moves scores here, but no top-20 hit).
    {"HyperCMLAgg", "eval.test", 0x62589bf1b0ee726dULL},
    {"HyperCMLAgg", "eval.val", 0x9436c0a206d4b5faULL},
    {"HyperCMLAgg", "serve.double", 0xef4bc736414a0e8cULL},
    {"HyperCMLAgg", "serve.float32", 0x66e8a8b955ba2a7aULL},
    {"HyperCMLAgg", "serve.int8", 0x66e8a8b955ba2a7aULL},
    {"HyperCMLAgg", "ivf.float32", 0xc6f713671b5a4cbaULL},
    {"HyperCMLAgg", "ivf.int8", 0xc6f713671b5a4cbaULL},
    {"HyperCMLAgg", "recommend", 0xef4bc736414a0e8cULL},
    {"HyperCMLAgg", "state", 0xe7a44b8ba68552d1ULL},
    // Served lists with a different k per request, so each sub-batch mixes
    // heap bounds on every tier (native models only).
    {"TaxoRec", "serve_mixed_k.double", 0xd2b1c987d77913d4ULL},
    {"TaxoRec", "serve_mixed_k.float32", 0x5c5678c26e6dd3bdULL},
    {"TaxoRec", "serve_mixed_k.int8", 0x5c5678c26e6dd3bdULL},
    {"TaxoRecWide", "serve_mixed_k.double", 0x0ea0945ad76f9588ULL},
    {"TaxoRecWide", "serve_mixed_k.float32", 0x90c58b0a4859595bULL},
    {"TaxoRecWide", "serve_mixed_k.int8", 0x90c58b0a4859595bULL},
    {"HyperML", "serve_mixed_k.double", 0x26c8a06cfcc9f658ULL},
    {"HyperML", "serve_mixed_k.float32", 0x1f02ea4fb4109b2bULL},
    {"HyperML", "serve_mixed_k.int8", 0x7a44bc1136feb35bULL},
    {"CML", "serve_mixed_k.double", 0x9f4a76802fcd6f40ULL},
    {"CML", "serve_mixed_k.float32", 0xd02dad62ec0b97eaULL},
    {"CML", "serve_mixed_k.int8", 0xd02dad62ec0b97eaULL},
    {"BPRMF", "serve_mixed_k.double", 0xd59ebed64989784fULL},
    {"BPRMF", "serve_mixed_k.float32", 0x6ba3408876f51e83ULL},
    {"BPRMF", "serve_mixed_k.int8", 0x6ba3408876f51e83ULL},
    {"LightGCN", "serve_mixed_k.double", 0x24a8e9a73b4e6938ULL},
    {"LightGCN", "serve_mixed_k.float32", 0x38652b5a3f087ecdULL},
    {"LightGCN", "serve_mixed_k.int8", 0x38652b5a3f087ecdULL},
    {"CMLAgg", "serve_mixed_k.double", 0x1a70388945edcbf9ULL},
    {"CMLAgg", "serve_mixed_k.float32", 0x24e7b38b02e2a96fULL},
    {"CMLAgg", "serve_mixed_k.int8", 0x24e7b38b02e2a96fULL},
    {"HyperCMLAgg", "serve_mixed_k.double", 0xd3475e70360297d7ULL},
    {"HyperCMLAgg", "serve_mixed_k.float32", 0x88d84c8e05409883ULL},
    {"HyperCMLAgg", "serve_mixed_k.int8", 0x88d84c8e05409883ULL},
    // AGCN, HGCF, NGCF, NMF and SML serve natively since every model scores
    // through its declared rows: their served lists move only on the float32
    // and int8 tiers (served in double before), and their eval, serve.double
    // and recommend pins stay.
    {"HGCF", "serve_mixed_k.double", 0x52dd83e44c8d6637ULL},
    {"HGCF", "serve_mixed_k.float32", 0x7ce5290fdc585bd7ULL},
    {"HGCF", "serve_mixed_k.int8", 0x7ce5290fdc585bd7ULL},
    {"NGCF", "serve_mixed_k.double", 0xfb6d7f7be75f6622ULL},
    {"NGCF", "serve_mixed_k.float32", 0x7c9f2919f863d4e4ULL},
    {"NGCF", "serve_mixed_k.int8", 0x7c9f2919f863d4e4ULL},
    {"AGCN", "serve_mixed_k.double", 0xffed733da505e171ULL},
    {"AGCN", "serve_mixed_k.float32", 0xaf35068009dcf2a9ULL},
    {"AGCN", "serve_mixed_k.int8", 0xaf35068009dcf2a9ULL},
    {"NMF", "serve_mixed_k.double", 0x6a154ea40ade093eULL},
    {"NMF", "serve_mixed_k.float32", 0x23e38e79bcb3c127ULL},
    {"NMF", "serve_mixed_k.int8", 0x3493125d42d2106aULL},
    {"SML", "serve_mixed_k.double", 0x68fe605f8aad1ca7ULL},
    {"SML", "serve_mixed_k.float32", 0x442fc8ee5eeba0a8ULL},
    {"SML", "serve_mixed_k.int8", 0x442fc8ee5eeba0a8ULL},
};

class Fnv1a {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void Pod(T value) {
    Bytes(&value, sizeof(value));
  }
  template <typename T>
  void Vector(const std::vector<T>& v) {
    Pod<uint64_t>(v.size());
    Bytes(v.data(), v.size() * sizeof(T));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t DigestEval(const EvalResult& r) {
  Fnv1a h;
  h.Vector(r.ks);
  h.Pod(r.primary_k);
  h.Vector(r.recall);
  h.Vector(r.ndcg);
  h.Vector(r.per_user_recall);
  h.Vector(r.per_user_ndcg);
  h.Pod<uint64_t>(r.num_eval_users);
  return h.value();
}

void HashList(const std::vector<TopKEntry>& list, Fnv1a* h) {
  h->Pod<uint64_t>(list.size());
  for (const TopKEntry& e : list) {
    h->Pod<uint32_t>(e.item);
    h->Pod<double>(e.score);
  }
}

// Serves every user once; request u asks for ks[u % ks.size()] items.
uint64_t DigestServed(const Recommender& model, const DataSplit& split,
                      const ServeOptions& options,
                      const std::vector<size_t>& ks = {10}) {
  BatchServer server(model, split, options);
  std::vector<ServeRequest> requests;
  for (uint32_t u = 0; u < split.num_users; ++u) {
    requests.push_back(ServeRequest{u, ks[u % ks.size()]});
  }
  Fnv1a h;
  for (const auto& list : server.ServeBatch(requests)) HashList(list, &h);
  return h.value();
}

const DataSplit& GoldenSplit() {
  static const DataSplit* split = [] {
    SyntheticConfig cfg;
    cfg.name = "golden";
    cfg.seed = 61;
    cfg.num_users = 90;
    cfg.num_items = 170;
    cfg.num_tags = 18;
    cfg.mean_interactions_per_user = 20.0;
    return new DataSplit(TemporalSplit(GenerateSynthetic(cfg)));
  }();
  return *split;
}

// One pinned model run: `label` keys kGolden and names the test, `model`
// is the MakeModel name, or else the MakeAblationVariant name. The narrow
// runs give TaxoRec 13- and 5-column channels; the wide one is the
// perfbench shape (53- and 13-column channels), so the SpMM kernels' full
// 16-column strips are pinned too.
struct GoldenCase {
  const char* label;
  const char* model;
  size_t dim;
  size_t tag_dim;
};

ModelConfig GoldenConfig(const GoldenCase& c) {
  ModelConfig cfg;
  cfg.dim = c.dim;
  cfg.tag_dim = c.tag_dim;
  cfg.epochs = 3;
  cfg.batches_per_epoch = 4;
  cfg.batch_size = 128;
  cfg.gcn_layers = 2;
  cfg.taxo_rebuild_every = 2;
  cfg.tag_warmup_per_tag = 50;
  cfg.seed = 5;
  return cfg;
}

std::vector<std::pair<std::string, uint64_t>> ComputeDigests(
    const GoldenCase& c) {
  const DataSplit& split = GoldenSplit();
  auto model = MakeModel(c.model, GoldenConfig(c));
  if (model == nullptr) model = MakeAblationVariant(c.model, GoldenConfig(c));
  EXPECT_NE(model, nullptr) << c.model;
  if (model == nullptr) return {};
  Rng rng(17);
  model->Fit(split, &rng);

  std::vector<std::pair<std::string, uint64_t>> out;
  EvalOptions eval;
  eval.ks = {10, 20};
  eval.use_test = true;
  out.emplace_back("eval.test", DigestEval(EvaluateRanking(*model, split,
                                                           eval)));
  eval.use_test = false;
  out.emplace_back("eval.val", DigestEval(EvaluateRanking(*model, split,
                                                          eval)));

  for (const PrecisionTier tier :
       {PrecisionTier::kDouble, PrecisionTier::kFloat32,
        PrecisionTier::kInt8}) {
    ServeOptions options;
    options.precision = tier;
    options.item_block = 64;  // several blocks per user
    out.emplace_back(std::string("serve.") + PrecisionTierName(tier),
                     DigestServed(*model, split, options));
  }
  if (model->ExportScoringSnapshot().kernel != ScoreKernel::kVirtual) {
    for (const PrecisionTier tier :
         {PrecisionTier::kFloat32, PrecisionTier::kInt8}) {
      ServeOptions options;
      options.precision = tier;
      options.retrieval = RetrievalMode::kIvf;
      options.ivf.nprobe = 4;  // a strict subset of the ~13 cells
      out.emplace_back(std::string("ivf.") + PrecisionTierName(tier),
                       DigestServed(*model, split, options));
    }
    // Every sub-batch of user_batch (8) requests mixes heap bounds.
    for (const PrecisionTier tier :
         {PrecisionTier::kDouble, PrecisionTier::kFloat32,
          PrecisionTier::kInt8}) {
      ServeOptions options;
      options.precision = tier;
      options.item_block = 64;
      out.emplace_back(std::string("serve_mixed_k.") +
                           PrecisionTierName(tier),
                       DigestServed(*model, split, options, {1, 7, 20, 200}));
    }
  }

  Fnv1a rec;
  RecommendOptions ro;
  ro.k = 10;
  for (uint32_t u = 0; u < split.num_users; ++u) {
    HashList(RecommendTopK(*model, split, u, ro), &rec);
  }
  out.emplace_back("recommend", rec.value());

  const Checkpoint state = model->SaveState();
  if (state.size() > 0) {
    Fnv1a h;
    for (const auto& [key, m] : state.entries()) {
      h.Bytes(key.data(), key.size());
      h.Pod<uint64_t>(m.rows());
      h.Pod<uint64_t>(m.cols());
      for (size_t r = 0; r < m.rows(); ++r) {
        const auto row = m.row(r);
        h.Bytes(row.data(), row.size() * sizeof(double));
      }
    }
    out.emplace_back("state", h.value());
  }
  return out;
}

const GoldenDigest* FindGolden(const std::string& model,
                               const std::string& output) {
  for (const GoldenDigest& g : kGolden) {
    if (model == g.model && output == g.output) return &g;
  }
  return nullptr;
}

std::string PinLine(const std::string& model, const std::string& output,
                    uint64_t digest) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "    {\"%s\", \"%s\", 0x%016" PRIx64 "ULL},",
                model.c_str(), output.c_str(), digest);
  return buf;
}

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.label; }

class GoldenTest : public ::testing::TestWithParam<GoldenCase> {};

// Also required on every lower SIMD level the host runs, down to the
// portable kernels: dispatch must never move an output.
TEST_P(GoldenTest, DigestsMatchPinnedAtOneAndFourThreads) {
  const int saved_threads = GetNumThreads();
  const std::string name = GetParam().label;
  for (const simd::Level level : HostSimdLevels()) {
    const SimdLevelCap cap(level);
    for (const int threads : {1, 4}) {
      SetNumThreads(threads);
      for (const auto& [output, digest] : ComputeDigests(GetParam())) {
        const GoldenDigest* pinned = FindGolden(name, output);
        if (pinned == nullptr) {
          ADD_FAILURE() << "no pinned digest for " << name << "/" << output
                        << "; add this line to kGolden in golden_test.cc:\n"
                        << PinLine(name, output, digest);
          continue;
        }
        EXPECT_EQ(pinned->digest, digest)
            << "golden digest moved: " << name << "/" << output << " at "
            << threads << " thread(s), SIMD level " << simd::LevelName(level)
            << ". If this output change is intended, re-pin it "
            << "deliberately by replacing its kGolden entry in "
            << "tests/golden_test.cc with:\n"
            << PinLine(name, output, digest);
      }
    }
  }
  SetNumThreads(saved_threads);
}

INSTANTIATE_TEST_SUITE_P(
    Models, GoldenTest,
    ::testing::Values(GoldenCase{"TaxoRec", "TaxoRec", 16, 4},
                      GoldenCase{"TaxoRecWide", "TaxoRec", 64, 12},
                      GoldenCase{"HyperML", "HyperML", 16, 4},
                      GoldenCase{"CML", "CML", 16, 4},
                      GoldenCase{"BPRMF", "BPRMF", 16, 4},
                      GoldenCase{"LightGCN", "LightGCN", 16, 4},
                      GoldenCase{"NeuMF", "NeuMF", 16, 4},
                      GoldenCase{"HGCF", "HGCF", 16, 4},
                      GoldenCase{"NGCF", "NGCF", 16, 4},
                      GoldenCase{"AGCN", "AGCN", 16, 4},
                      GoldenCase{"NMF", "NMF", 16, 4},
                      GoldenCase{"TransCF", "TransCF", 16, 4},
                      GoldenCase{"LRML", "LRML", 16, 4},
                      GoldenCase{"SML", "SML", 16, 4},
                      GoldenCase{"CMLF", "CMLF", 16, 4},
                      GoldenCase{"AMF", "AMF", 16, 4},
                      GoldenCase{"CMLAgg", "CML+Agg", 16, 4},
                      GoldenCase{"HyperCMLAgg", "Hyper+CML+Agg", 16, 4}),
    [](const auto& info) { return std::string(info.param.label); });

}  // namespace
}  // namespace taxorec
