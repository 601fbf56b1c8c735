// Block-wise full-ranking evaluation through the public EvaluateRanking.
//
// The benchmark times evaluation as many short units (README.md, "Units and
// calibration"), so it evaluates the test split one block of users at a
// time: a private copy of the split keeps test targets only for the current
// block, and EvaluateRanking skips every user without targets. Summing the per-user
// values of all blocks in ascending user order and dividing by the user
// count repeats EvaluateRanking's own reduction, so the aggregate equals one
// whole-split call bit for bit (checked by selftest.cc).
#ifndef TAXOREC_PERFBENCH_BLOCK_EVAL_H_
#define TAXOREC_PERFBENCH_BLOCK_EVAL_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "baselines/recommender.h"
#include "data/dataset.h"
#include "eval/evaluator.h"

namespace perfbench {

class BlockEvaluator {
 public:
  /// `k` is the single cutoff evaluated (the per-user vectors of
  /// EvaluateRanking are reported at ks[0]).
  BlockEvaluator(const taxorec::DataSplit& split, size_t block_users, int k)
      : split_(&split), block_(std::max<size_t>(1, block_users)), k_(k),
        scratch_(split) {
    for (auto& t : scratch_.test_items) t.clear();
  }

  size_t num_blocks() const {
    return (split_->num_users + block_ - 1) / block_;
  }

  /// Evaluates block b (users [b·block, (b+1)·block)) and returns how many
  /// users were ranked. The first call per block also records the block's
  /// per-user metrics for the aggregate; repeats only re-time the work.
  size_t EvalBlock(const taxorec::Recommender& model, size_t b) {
    const size_t u0 = b * block_;
    const size_t u1 = std::min(split_->num_users, u0 + block_);
    for (size_t u = u0; u < u1; ++u) {
      scratch_.test_items[u] = split_->test_items[u];
    }
    taxorec::EvalOptions opts;
    opts.ks = {k_};
    opts.use_test = true;
    const taxorec::EvalResult r =
        taxorec::EvaluateRanking(model, scratch_, opts);
    for (size_t u = u0; u < u1; ++u) scratch_.test_items[u].clear();
    if (b == next_block_) {
      recall_.insert(recall_.end(), r.per_user_recall.begin(),
                     r.per_user_recall.end());
      ndcg_.insert(ndcg_.end(), r.per_user_ndcg.begin(), r.per_user_ndcg.end());
      ++next_block_;
    }
    return r.num_eval_users;
  }

  /// True once every block has been evaluated at least once.
  bool complete() const { return next_block_ == num_blocks(); }

  size_t num_eval_users() const { return recall_.size(); }
  double recall() const { return Mean(recall_); }
  double ndcg() const { return Mean(ndcg_); }

 private:
  static double Mean(const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;  // ascending user order, as EvaluateRanking
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  }

  const taxorec::DataSplit* split_;  // not owned
  size_t block_;
  int k_;
  taxorec::DataSplit scratch_;
  size_t next_block_ = 0;
  std::vector<double> recall_;
  std::vector<double> ndcg_;
};

}  // namespace perfbench

#endif  // TAXOREC_PERFBENCH_BLOCK_EVAL_H_
