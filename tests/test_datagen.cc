// The synthetic social-network generator: every regularity the paper's
// method relies on must actually be present in the generated data.
#include <cmath>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "datagen/config.h"
#include "datagen/generator.h"
#include "datagen/tweet_model.h"
#include "graph/homophily.h"

namespace bsg {
namespace {

DatasetConfig SmallCfg() {
  DatasetConfig cfg = Twibot22Sim();
  cfg.num_users = 800;
  cfg.tweets_per_user = 12;
  return cfg;
}

TEST(Datagen, DeterministicForSameSeed) {
  SocialNetworkGenerator gen(SmallCfg());
  RawDataset a = gen.Generate();
  RawDataset b = gen.Generate();
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.tweet_topics, b.tweet_topics);
  EXPECT_EQ(a.relations[0].indices(), b.relations[0].indices());
  for (size_t i = 0; i < a.desc_embeddings.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.desc_embeddings.data()[i], b.desc_embeddings.data()[i]);
  }
}

TEST(Datagen, DifferentSeedsProduceDifferentGraphs) {
  DatasetConfig c1 = SmallCfg(), c2 = SmallCfg();
  c2.seed = c1.seed + 1;
  RawDataset a = SocialNetworkGenerator(c1).Generate();
  RawDataset b = SocialNetworkGenerator(c2).Generate();
  EXPECT_NE(a.relations[0].indices(), b.relations[0].indices());
}

TEST(Datagen, BotFractionApproximatelyRespected) {
  RawDataset raw = SocialNetworkGenerator(SmallCfg()).Generate();
  int bots = 0;
  for (int y : raw.labels) bots += y;
  double frac = static_cast<double>(bots) / raw.num_users();
  EXPECT_NEAR(frac, 0.14, 0.05);
}

TEST(Datagen, EveryCommunityHasBothClasses) {
  DatasetConfig cfg = SmallCfg();
  RawDataset raw = SocialNetworkGenerator(cfg).Generate();
  std::vector<int> bots(cfg.num_communities, 0), humans(cfg.num_communities, 0);
  for (int u = 0; u < raw.num_users(); ++u) {
    (raw.labels[u] == 1 ? bots : humans)[raw.community[u]]++;
  }
  for (int c = 0; c < cfg.num_communities; ++c) {
    EXPECT_GE(bots[c], 2) << "community " << c;
    EXPECT_GE(humans[c], 2) << "community " << c;
  }
}

TEST(Datagen, StructuralRegularityHumansHomophilicBotsNot) {
  // The Fig. 8 premise: humans highly homophilic, bots heterophilic.
  RawDataset raw = SocialNetworkGenerator(SmallCfg()).Generate();
  const Csr& g = raw.relations[0];
  double h_human = ClassHomophily(g, raw.labels, 0);
  double h_bot = ClassHomophily(g, raw.labels, 1);
  EXPECT_GT(h_human, 0.85);
  EXPECT_LT(h_bot, 0.45);
}

TEST(Datagen, RelationsAreSymmetric) {
  RawDataset raw = SocialNetworkGenerator(SmallCfg()).Generate();
  for (const Csr& rel : raw.relations) {
    ASSERT_TRUE(rel.Validate().ok());
    for (int u = 0; u < rel.num_nodes(); ++u) {
      for (const int* p = rel.NeighborsBegin(u); p != rel.NeighborsEnd(u);
           ++p) {
        EXPECT_TRUE(rel.HasEdge(*p, u));
      }
    }
  }
}

TEST(Datagen, TweetOffsetsConsistent) {
  RawDataset raw = SocialNetworkGenerator(SmallCfg()).Generate();
  EXPECT_EQ(raw.tweet_offsets.size(), static_cast<size_t>(raw.num_users()) + 1);
  EXPECT_EQ(raw.tweet_offsets.back(), raw.tweet_embeddings.rows());
  EXPECT_EQ(raw.tweet_topics.size(),
            static_cast<size_t>(raw.tweet_embeddings.rows()));
  for (int u = 0; u < raw.num_users(); ++u) {
    EXPECT_GT(raw.tweet_offsets[u + 1], raw.tweet_offsets[u]);  // >=4 tweets
  }
}

TEST(Datagen, BotsUseFewerTopics) {
  // Fig. 2 premise at the topic-ground-truth level.
  RawDataset raw = SocialNetworkGenerator(SmallCfg()).Generate();
  double bot_topics = 0.0, human_topics = 0.0;
  int bots = 0, humans = 0;
  for (int u = 0; u < raw.num_users(); ++u) {
    std::set<int> topics;
    for (int64_t e = raw.tweet_offsets[u]; e < raw.tweet_offsets[u + 1]; ++e) {
      topics.insert(raw.tweet_topics[static_cast<size_t>(e)]);
    }
    if (raw.labels[u] == 1) {
      bot_topics += topics.size();
      ++bots;
    } else {
      human_topics += topics.size();
      ++humans;
    }
  }
  EXPECT_LT(bot_topics / bots, human_topics / humans - 1.0);
}

TEST(Datagen, HumanActivityMoreBurstyThanBots) {
  // Fig. 3 premise: coefficient of variation of monthly counts is larger
  // for humans than for bots.
  RawDataset raw = SocialNetworkGenerator(SmallCfg()).Generate();
  auto mean_cv = [&](int label) {
    double total = 0.0;
    int count = 0;
    for (int u = 0; u < raw.num_users(); ++u) {
      if (raw.labels[u] != label) continue;
      const auto& c = raw.monthly_counts[u];
      double mean = 0.0;
      for (int v : c) mean += v;
      mean /= c.size();
      if (mean <= 0.0) continue;
      double var = 0.0;
      for (int v : c) var += (v - mean) * (v - mean);
      total += std::sqrt(var / c.size()) / mean;
      ++count;
    }
    return total / count;
  };
  EXPECT_GT(mean_cv(0), mean_cv(1) * 1.5);
}

TEST(Datagen, MetadataBotsHaveYoungerAccounts) {
  RawDataset raw = SocialNetworkGenerator(SmallCfg()).Generate();
  double bot_age = 0.0, human_age = 0.0;
  int bots = 0, humans = 0;
  for (int u = 0; u < raw.num_users(); ++u) {
    if (raw.labels[u] == 1) {
      bot_age += raw.metadata[u].account_age_days;
      ++bots;
    } else {
      human_age += raw.metadata[u].account_age_days;
      ++humans;
    }
  }
  EXPECT_LT(bot_age / bots, human_age / humans);
}

TEST(TopicModel, CentersAreSeparated) {
  Rng rng(4);
  TopicEmbeddingModel model(10, 8, 0.3, &rng);
  const Matrix& c = model.centers();
  for (int i = 0; i < 10; ++i) {
    for (int j = i + 1; j < 10; ++j) {
      double d2 = 0.0;
      for (int k = 0; k < 8; ++k) {
        double diff = c(i, k) - c(j, k);
        d2 += diff * diff;
      }
      EXPECT_GT(std::sqrt(d2), 1.0) << i << "," << j;
    }
  }
}

TEST(TopicModel, EmbeddingNearItsCenter) {
  Rng rng(5);
  TopicEmbeddingModel model(5, 6, 0.2, &rng);
  std::vector<double> buf(6);
  model.EmbedTweet(3, &rng, buf.data());
  double d2 = 0.0;
  for (int k = 0; k < 6; ++k) {
    double diff = buf[k] - model.centers()(3, k);
    d2 += diff * diff;
  }
  EXPECT_LT(std::sqrt(d2), 0.2 * 6 * 3);  // within a few noise sigmas
}

TEST(TemporalModel, BotCountsNearConstantRate) {
  DatasetConfig cfg;
  Rng rng(6);
  TemporalActivityModel model(cfg);
  std::vector<int> counts = model.SampleMonthlyCounts(/*is_bot=*/true, &rng);
  EXPECT_EQ(counts.size(), static_cast<size_t>(cfg.months));
  double mean = 0.0;
  for (int v : counts) mean += v;
  mean /= counts.size();
  EXPECT_NEAR(mean, cfg.bot_monthly_rate, cfg.bot_monthly_rate * 0.5);
}

TEST(CommunitySim, BalancedCommunities) {
  DatasetConfig cfg = CommunitySim(4, 100);
  RawDataset raw = SocialNetworkGenerator(cfg).Generate();
  std::vector<int> size(4, 0);
  for (int c : raw.community) size[c]++;
  for (int c = 0; c < 4; ++c) EXPECT_EQ(size[c], 100);
  int bots = 0;
  for (int y : raw.labels) bots += y;
  EXPECT_NEAR(static_cast<double>(bots) / raw.num_users(), 0.5, 0.08);
}

// The command-line preset names map to their *Sim() configs, and any other
// name is an error that lists the valid ones (no silent fallback).
TEST(DatasetPreset, NamesMapToTheirConfigs) {
  const std::pair<std::string, DatasetConfig> presets[] = {
      {"twibot20", Twibot20Sim()},
      {"twibot22", Twibot22Sim()},
      {"mgtab", MgtabSim()}};
  for (const auto& [name, want] : presets) {
    SCOPED_TRACE(name);
    Result<DatasetConfig> got = DatasetPreset(name);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const DatasetConfig& cfg = got.ValueOrDie();
    EXPECT_EQ(cfg.name, want.name);
    EXPECT_EQ(cfg.num_users, want.num_users);
    EXPECT_EQ(cfg.bot_fraction, want.bot_fraction);
    EXPECT_EQ(cfg.num_communities, want.num_communities);
    EXPECT_EQ(cfg.relations, want.relations);
    EXPECT_EQ(cfg.relation_density, want.relation_density);
    EXPECT_EQ(cfg.seed, want.seed);
  }
  for (const char* bad : {"nope", "", "Twibot20", "twibot20 "}) {
    SCOPED_TRACE(bad);
    Result<DatasetConfig> got = DatasetPreset(bad);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(got.status().message().find("twibot20, twibot22, mgtab"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace bsg
