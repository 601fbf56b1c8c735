// Tests for the data substrate: synthetic generation, temporal splitting,
// sampling, profiles, and TSV round-trips.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_set>

#include "data/io.h"
#include "data/profiles.h"
#include "data/sampler.h"
#include "data/split.h"
#include "data/synthetic.h"

namespace taxorec {
namespace {

SyntheticConfig SmallConfig() {
  SyntheticConfig cfg;
  cfg.name = "test-small";
  cfg.seed = 5;
  cfg.num_users = 60;
  cfg.num_items = 90;
  cfg.num_tags = 20;
  cfg.num_roots = 3;
  cfg.mean_interactions_per_user = 15.0;
  return cfg;
}

TEST(SyntheticTest, GeneratesValidDataset) {
  const Dataset data = GenerateSynthetic(SmallConfig());
  EXPECT_TRUE(data.Valid());
  EXPECT_EQ(data.num_users, 60u);
  EXPECT_EQ(data.num_items, 90u);
  EXPECT_EQ(data.num_tags, 20u);
  EXPECT_GT(data.interactions.size(), 60u * 6u - 1u);  // floor of 6 per user
  EXPECT_GE(data.item_tags.size(), data.num_items);    // >= primary tag each
}

TEST(SyntheticTest, DeterministicForSameSeed) {
  const Dataset a = GenerateSynthetic(SmallConfig());
  const Dataset b = GenerateSynthetic(SmallConfig());
  ASSERT_EQ(a.interactions.size(), b.interactions.size());
  for (size_t i = 0; i < a.interactions.size(); ++i) {
    EXPECT_EQ(a.interactions[i].user, b.interactions[i].user);
    EXPECT_EQ(a.interactions[i].item, b.interactions[i].item);
  }
  EXPECT_EQ(a.item_tags, b.item_tags);
}

TEST(SyntheticTest, PlantedTaxonomyIsAForest) {
  const Dataset data = GenerateSynthetic(SmallConfig());
  ASSERT_EQ(data.tag_parent.size(), data.num_tags);
  int roots = 0;
  for (size_t t = 0; t < data.num_tags; ++t) {
    if (data.tag_parent[t] < 0) {
      ++roots;
    } else {
      // Parents are created before children (BFS order): no cycles.
      EXPECT_LT(data.tag_parent[t], static_cast<int32_t>(t));
    }
  }
  EXPECT_EQ(roots, 3);
}

TEST(SyntheticTest, TagNamesEncodeTreePaths) {
  const Dataset data = GenerateSynthetic(SmallConfig());
  for (size_t t = 0; t < data.num_tags; ++t) {
    const int32_t p = data.tag_parent[t];
    if (p < 0) continue;
    // Child name must extend the parent's name with a "." component.
    const std::string& child = data.tag_names[t];
    const std::string& parent = data.tag_names[p];
    ASSERT_GT(child.size(), parent.size());
    EXPECT_EQ(child.substr(0, parent.size()), parent);
    EXPECT_EQ(child[parent.size()], '.');
  }
}

TEST(SyntheticTest, EveryItemHasAPrimaryTag) {
  const Dataset data = GenerateSynthetic(SmallConfig());
  std::unordered_set<uint32_t> tagged;
  for (const auto& [item, tag] : data.item_tags) tagged.insert(item);
  EXPECT_EQ(tagged.size(), data.num_items);
}

TEST(SplitTest, FractionsRoughlyRespected) {
  const Dataset data = GenerateSynthetic(SmallConfig());
  const DataSplit split = TemporalSplit(data);
  size_t train = split.TrainNnz(), val = 0, test = 0;
  for (uint32_t u = 0; u < split.num_users; ++u) {
    val += split.val_items[u].size();
    test += split.test_items[u].size();
  }
  const double total = static_cast<double>(train + val + test);
  EXPECT_NEAR(train / total, 0.6, 0.1);
  EXPECT_NEAR(val / total, 0.2, 0.1);
  EXPECT_NEAR(test / total, 0.2, 0.1);
}

TEST(SplitTest, TemporalOrderRespected) {
  // Every training interaction of a user must be no later than every
  // val/test interaction of that user.
  const Dataset data = GenerateSynthetic(SmallConfig());
  const DataSplit split = TemporalSplit(data);
  // Reconstruct per-(user,item) first timestamps.
  std::map<std::pair<uint32_t, uint32_t>, int64_t> ts;
  for (const auto& x : data.interactions) {
    const auto key = std::make_pair(x.user, x.item);
    if (!ts.count(key)) ts[key] = x.timestamp;
  }
  for (uint32_t u = 0; u < split.num_users; ++u) {
    int64_t max_train = INT64_MIN;
    for (uint32_t v : split.train.RowCols(u)) {
      max_train = std::max(max_train, ts.at({u, v}));
    }
    for (uint32_t v : split.val_items[u]) {
      EXPECT_GE(ts.at({u, v}), max_train);
    }
    for (uint32_t v : split.test_items[u]) {
      EXPECT_GE(ts.at({u, v}), max_train);
    }
  }
}

TEST(SplitTest, NoLeakageBetweenSplits) {
  const Dataset data = GenerateSynthetic(SmallConfig());
  const DataSplit split = TemporalSplit(data);
  for (uint32_t u = 0; u < split.num_users; ++u) {
    std::set<uint32_t> train_items(split.train.RowCols(u).begin(),
                                   split.train.RowCols(u).end());
    for (uint32_t v : split.val_items[u]) EXPECT_FALSE(train_items.count(v));
    for (uint32_t v : split.test_items[u]) {
      EXPECT_FALSE(train_items.count(v));
      for (uint32_t w : split.val_items[u]) EXPECT_NE(v, w);
    }
  }
}

TEST(SamplerTest, TripletsAreValid) {
  const Dataset data = GenerateSynthetic(SmallConfig());
  const DataSplit split = TemporalSplit(data);
  TripletSampler sampler(&split.train);
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const Triplet t = sampler.Sample(&rng);
    EXPECT_LT(t.user, split.num_users);
    EXPECT_LT(t.pos, split.num_items);
    EXPECT_LT(t.neg, split.num_items);
    EXPECT_TRUE(split.train.Contains(t.user, t.pos));
    EXPECT_FALSE(split.train.Contains(t.user, t.neg));
  }
}

TEST(SamplerTest, PopularityStrategyPrefersPopularItems) {
  // Item 0 is hugely popular; item popularity sampling should draw it as a
  // negative (for users who never touched it) far more often than uniform.
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t u = 0; u < 50; ++u) edges.emplace_back(u, 0);  // popular
  for (uint32_t u = 0; u < 50; ++u) {
    edges.emplace_back(u, 1 + u % 49);  // long tail
  }
  // User 50 interacted with item 99 only → everything else is negative.
  edges.emplace_back(50, 99);
  const CsrMatrix train = CsrMatrix::FromPairs(51, 100, edges);
  Rng rng(4);
  TripletSampler uniform(&train, NegativeSampling::kUniform);
  TripletSampler popular(&train, NegativeSampling::kPopularity);
  int uniform_hits = 0, popular_hits = 0;
  for (int i = 0; i < 4000; ++i) {
    if (uniform.SampleNegative(50, &rng) == 0) ++uniform_hits;
    if (popular.SampleNegative(50, &rng) == 0) ++popular_hits;
  }
  EXPECT_GT(popular_hits, uniform_hits * 5);
}

TEST(SamplerTest, PopularityNegativesStillExcludeTrainItems) {
  const Dataset data = GenerateSynthetic(SmallConfig());
  const DataSplit split = TemporalSplit(data);
  TripletSampler sampler(&split.train, NegativeSampling::kPopularity);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const Triplet t = sampler.Sample(&rng);
    EXPECT_FALSE(split.train.Contains(t.user, t.neg));
  }
}

TEST(ProfilesTest, AllFourProfilesGenerate) {
  for (const auto& name : ProfileNames()) {
    auto data = MakeProfileDataset(name);
    ASSERT_TRUE(data.ok()) << name;
    EXPECT_TRUE(data->Valid()) << name;
    EXPECT_EQ(data->name, name);
  }
}

TEST(ProfilesTest, DensityOrderingMatchesPaper) {
  // Table I: ciao is densest; yelp is sparsest.
  auto ciao = MakeProfileDataset("ciao");
  auto yelp = MakeProfileDataset("yelp");
  ASSERT_TRUE(ciao.ok() && yelp.ok());
  EXPECT_GT(ciao->Density(), yelp->Density());
  EXPECT_LT(ciao->num_tags, yelp->num_tags);
}

TEST(ProfilesTest, UnknownProfileRejected) {
  EXPECT_FALSE(ProfileConfig("movielens").ok());
}

TEST(IoTest, SaveLoadRoundTrip) {
  const Dataset data = GenerateSynthetic(SmallConfig());
  const std::string path = ::testing::TempDir() + "/taxorec_io_test.tsv";
  ASSERT_TRUE(SaveDataset(data, path).ok());
  auto loaded = LoadDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name, data.name);
  EXPECT_EQ(loaded->num_users, data.num_users);
  EXPECT_EQ(loaded->num_items, data.num_items);
  EXPECT_EQ(loaded->num_tags, data.num_tags);
  ASSERT_EQ(loaded->interactions.size(), data.interactions.size());
  for (size_t i = 0; i < data.interactions.size(); ++i) {
    EXPECT_EQ(loaded->interactions[i].user, data.interactions[i].user);
    EXPECT_EQ(loaded->interactions[i].item, data.interactions[i].item);
    EXPECT_EQ(loaded->interactions[i].timestamp,
              data.interactions[i].timestamp);
  }
  EXPECT_EQ(loaded->item_tags, data.item_tags);
  EXPECT_EQ(loaded->tag_names, data.tag_names);
  EXPECT_EQ(loaded->tag_parent, data.tag_parent);
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileIsIOError) {
  auto result = LoadDataset("/nonexistent/path/data.tsv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(IoTest, GarbageFileRejected) {
  const std::string path = ::testing::TempDir() + "/taxorec_garbage.tsv";
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("this is not a dataset\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadDataset(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace taxorec
