// Configuration of the synthetic social-network benchmarks.
//
// Each preset mirrors one of the paper's datasets (Table I), scaled down so
// the full experiment suite runs on one CPU. The knobs encode the paper's
// observed regularities:
//   - humans are densely interconnected inside their community and highly
//     homophilic (paper Fig. 8: h ~ 0.975);
//   - bots rarely link to each other and mostly attach to humans
//     (h ~ 0.127), matching Fig. 1's structural sketch;
//   - bots imitate human profile features (mimicry knob, Fig. 1);
//   - bots tweet inside a narrow set of content topics (Fig. 2);
//   - bot temporal activity is flat, human activity is bursty (Fig. 3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace bsg {

/// All knobs of the synthetic benchmark generator.
struct DatasetConfig {
  std::string name = "synthetic";

  // --- population ---
  int num_users = 4000;
  double bot_fraction = 0.25;     ///< global fraction of bots
  int num_communities = 5;

  // --- relations (one Csr per entry; all symmetrised) ---
  std::vector<std::string> relations = {"follower", "following"};
  /// Per-relation density multiplier (size must match `relations`).
  std::vector<double> relation_density = {1.0, 1.0};

  // --- structural knobs (expected degrees, before symmetrisation) ---
  double human_intra_degree = 5.0;  ///< human->human, same community
  double human_inter_degree = 0.6;   ///< human->human, cross community
  double bot_to_human_degree = 4.5;  ///< bot->human (mostly own community)
  double bot_to_bot_degree = 0.4;    ///< bot->bot (paper: bots barely link)
  /// Probability that a bot's human target lies in its own community.
  double bot_local_targeting = 0.8;

  // --- profile features ---
  int embed_dim = 12;        ///< simulated RoBERTa embedding dimension
  double bot_mimicry = 0.72;  ///< 0 = distinct bot profiles, 1 = perfect copy
  double profile_noise = 1.1;

  // --- tweet content (Fig. 2 regularity) ---
  int num_topics = 20;        ///< K-means cluster count in the paper
  int tweets_per_user = 40;   ///< "last 200 tweets", scaled
  double bot_topic_concentration = 0.18;   ///< Dirichlet alpha (narrow)
  double human_topic_concentration = 0.55; ///< Dirichlet alpha (broad)
  double topic_noise = 0.9;   ///< tweet embedding spread around its topic

  // --- temporal activity (Fig. 3 regularity) ---
  int months = 18;            ///< recorded months (features use last 12)
  double bot_monthly_rate = 26.0;
  double bot_rate_jitter = 0.3;     ///< relative sd of bot monthly rate
  double human_monthly_rate = 18.0;
  double human_rate_jitter = 0.65;  ///< lognormal sd: bursty humans
  double human_spike_prob = 0.1;    ///< chance of an activity spike month
  double human_spike_scale = 3.5;

  // --- splits ---
  double train_frac = 0.6;
  double val_frac = 0.2;

  uint64_t seed = 42;
};

/// TwiBot-20 analogue: 2 relations, roughly balanced labelled classes
/// (paper: 5,237 humans vs 6,589 bots among labelled users).
inline DatasetConfig Twibot20Sim() {
  DatasetConfig cfg;
  cfg.name = "twibot20-sim";
  cfg.num_users = 6000;
  cfg.bot_fraction = 0.45;
  cfg.num_communities = 6;
  cfg.relations = {"follower", "following"};
  cfg.relation_density = {1.0, 0.8};
  // Balanced classes soften the structural signal: bots are numerous enough
  // to link to each other more often.
  cfg.bot_to_bot_degree = 1.2;
  cfg.bot_to_human_degree = 4.0;
  cfg.bot_mimicry = 0.72;
  cfg.seed = 20;
  return cfg;
}

/// TwiBot-22 analogue: large, imbalanced (paper: 14% bots of 1M users),
/// 2 relations. The hardest benchmark (lowest F1 in the paper).
inline DatasetConfig Twibot22Sim() {
  DatasetConfig cfg;
  cfg.name = "twibot22-sim";
  cfg.num_users = 12000;
  cfg.bot_fraction = 0.14;
  cfg.num_communities = 10;
  cfg.relations = {"follower", "following"};
  cfg.relation_density = {1.0, 0.9};
  cfg.bot_mimicry = 0.8;   // TwiBot-22 bots are the best-disguised
  cfg.profile_noise = 1.15;
  cfg.topic_noise = 1.0;
  cfg.bot_topic_concentration = 0.18;
  cfg.human_topic_concentration = 0.55;
  cfg.bot_rate_jitter = 0.3;
  cfg.seed = 22;
  return cfg;
}

/// MGTAB analogue: small graph, 7 relations, dense (paper: 1.7M edges over
/// 10,199 users).
inline DatasetConfig MgtabSim() {
  DatasetConfig cfg;
  cfg.name = "mgtab-sim";
  cfg.num_users = 4000;
  cfg.bot_fraction = 0.27;
  cfg.num_communities = 4;
  cfg.relations = {"follower", "friend", "mention", "reply",
                   "quote", "url", "hashtag"};
  cfg.relation_density = {0.7, 0.6, 0.45, 0.4, 0.3, 0.25, 0.35};
  cfg.human_intra_degree = 4.0;
  cfg.bot_to_human_degree = 2.8;
  cfg.bot_to_bot_degree = 0.55;
  cfg.bot_mimicry = 0.68;
  cfg.seed = 26;
  return cfg;
}

/// Community-generalisation dataset for Fig. 9: `count` non-overlapping
/// balanced communities (paper: 10 communities of 5,000 bots + 5,000
/// humans each; scaled to `per_community` users).
inline DatasetConfig CommunitySim(int count = 10, int per_community = 500) {
  DatasetConfig cfg;
  cfg.name = "twibot22-communities-sim";
  cfg.num_users = count * per_community;
  cfg.bot_fraction = 0.5;
  cfg.num_communities = count;
  cfg.relations = {"follower", "following"};
  cfg.relation_density = {1.0, 0.9};
  cfg.bot_to_bot_degree = 1.2;
  cfg.bot_to_human_degree = 7.0;
  cfg.human_inter_degree = 0.25;  // communities nearly disjoint
  cfg.bot_local_targeting = 0.95;
  cfg.bot_mimicry = 0.85;
  cfg.seed = 922;
  return cfg;
}

/// The preset a command line names: "twibot20" (Twibot20Sim), "twibot22"
/// (Twibot22Sim) or "mgtab" (MgtabSim). Any other name is
/// kInvalidArgument, with a message listing the valid names.
inline Result<DatasetConfig> DatasetPreset(const std::string& name) {
  if (name == "twibot20") return Twibot20Sim();
  if (name == "twibot22") return Twibot22Sim();
  if (name == "mgtab") return MgtabSim();
  return Status::InvalidArgument("unknown dataset '" + name +
                                 "' (valid: twibot20, twibot22, mgtab)");
}

}  // namespace bsg
