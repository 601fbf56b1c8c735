#include "data/split.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"

namespace taxorec {
namespace {

// Per-user fractions of the time-ordered history; the rest is the test set.
constexpr double kTrainFrac = 0.6;
constexpr double kValFrac = 0.2;
static_assert(kTrainFrac > 0.0 && kValFrac >= 0.0 &&
              kTrainFrac + kValFrac < 1.0 + 1e-12);

}  // namespace

DataSplit TemporalSplit(const Dataset& data) {
  TAXOREC_CHECK(data.Valid());

  DataSplit split;
  split.num_users = data.num_users;
  split.num_items = data.num_items;
  split.num_tags = data.num_tags;
  split.val_items.resize(data.num_users);
  split.test_items.resize(data.num_users);

  // Group per user, sort by timestamp (stable on ties), dedup items.
  std::vector<std::vector<Interaction>> per_user(data.num_users);
  for (const auto& x : data.interactions) per_user[x.user].push_back(x);

  std::vector<std::pair<uint32_t, uint32_t>> train_edges;
  for (uint32_t u = 0; u < data.num_users; ++u) {
    auto& xs = per_user[u];
    std::stable_sort(xs.begin(), xs.end(),
                     [](const Interaction& a, const Interaction& b) {
                       return a.timestamp < b.timestamp;
                     });
    std::unordered_set<uint32_t> seen;
    std::vector<uint32_t> items;
    for (const auto& x : xs) {
      if (seen.insert(x.item).second) items.push_back(x.item);
    }
    const size_t n = items.size();
    if (n == 0) continue;
    size_t n_train, n_val;
    if (n < 3) {
      n_train = n;
      n_val = 0;
    } else {
      n_train = std::max<size_t>(
          1, static_cast<size_t>(kTrainFrac * static_cast<double>(n)));
      n_val = static_cast<size_t>(kValFrac * static_cast<double>(n));
      if (n_train + n_val >= n) {
        // Keep at least one test item for users with enough history.
        if (n_train + n_val == n) {
          n_val = n_val > 0 ? n_val - 1 : n_val;
        }
        while (n_train + n_val >= n && n_train > 1) --n_train;
      }
    }
    for (size_t i = 0; i < n_train; ++i) train_edges.emplace_back(u, items[i]);
    for (size_t i = n_train; i < n_train + n_val && i < n; ++i) {
      split.val_items[u].push_back(items[i]);
    }
    for (size_t i = n_train + n_val; i < n; ++i) {
      split.test_items[u].push_back(items[i]);
    }
  }

  split.train = CsrMatrix::FromPairs(data.num_users, data.num_items,
                                     std::move(train_edges));
  split.item_tags =
      CsrMatrix::FromPairs(data.num_items, data.num_tags, data.item_tags);
  return split;
}

}  // namespace taxorec
