// Unit tests for the replicate-until-CI-converges controller (the paper's
// "repeat until the 99% CI is within +-5%" stopping rule).
#include "stats/replicator.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "common/rng.hpp"

namespace manet::stats {
namespace {

TEST(ReplicatorTest, ConstantMetricConvergesAtMinimum) {
  ReplicationPolicy policy;
  policy.min_replications = 10;
  const auto r = replicate(policy, 1, [](std::size_t, std::vector<double>& out) {
    out.push_back(42.0);
  });
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.replications, 10u);
  EXPECT_DOUBLE_EQ(r.metrics[0].mean(), 42.0);
}

TEST(ReplicatorTest, NoisyMetricRunsLonger) {
  ReplicationPolicy policy;
  policy.min_replications = 5;
  policy.max_replications = 4000;
  Rng rng(1);
  const auto r =
      replicate(policy, 1, [&](std::size_t, std::vector<double>& out) {
        out.push_back(10.0 + rng.uniform(-5.0, 5.0));
      });
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.replications, 5u);
  EXPECT_NEAR(r.metrics[0].mean(), 10.0, 1.0);
  // Converged means the achieved CI meets the paper's rule.
  EXPECT_LE(r.metrics[0].relative_halfwidth(policy.confidence),
            policy.relative_halfwidth);
}

TEST(ReplicatorTest, CapStopsDivergentStream) {
  ReplicationPolicy policy;
  policy.min_replications = 2;
  policy.max_replications = 50;
  // Alternating huge values never tighten to +-5%.
  const auto r =
      replicate(policy, 1, [](std::size_t rep, std::vector<double>& out) {
        out.push_back(rep % 2 ? 1.0 : 1000.0);
      });
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.replications, 50u);
}

TEST(ReplicatorTest, AllMetricsMustConverge) {
  ReplicationPolicy policy;
  policy.min_replications = 5;
  policy.max_replications = 40;
  const auto r =
      replicate(policy, 2, [](std::size_t rep, std::vector<double>& out) {
        out.push_back(7.0);                       // converges instantly
        out.push_back(rep % 2 ? 1.0 : 1000.0);    // never converges
      });
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.replications, 40u);
  EXPECT_DOUBLE_EQ(r.metrics[0].mean(), 7.0);
}

TEST(ReplicatorTest, ReplicationIndexIsSequential) {
  ReplicationPolicy policy;
  policy.min_replications = 4;
  std::vector<std::size_t> seen;
  replicate(policy, 1, [&](std::size_t rep, std::vector<double>& out) {
    seen.push_back(rep);
    out.push_back(1.0);
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3}));
}

// Pure function of the replication index (thread-safe by construction):
// two noisy metrics with different convergence speeds.
void noisy_sample(std::size_t rep, std::vector<double>& out) {
  Rng rng(derive_seed(77, rep, 1));
  out.push_back(10.0 + rng.uniform(-4.0, 4.0));
  out.push_back(100.0 + rng.uniform(-1.0, 1.0));
}

TEST(ReplicatorTest, ParallelMatchesSequentialBitwise) {
  ReplicationPolicy sequential;
  sequential.min_replications = 5;
  sequential.max_replications = 500;
  const auto base = replicate(sequential, 2, noisy_sample);
  ASSERT_TRUE(base.converged);

  for (std::size_t threads : {2u, 4u, 7u}) {
    ReplicationPolicy parallel = sequential;
    parallel.threads = threads;
    const auto r = replicate(parallel, 2, noisy_sample);
    EXPECT_EQ(r.replications, base.replications) << threads << " threads";
    EXPECT_EQ(r.converged, base.converged);
    ASSERT_EQ(r.metrics.size(), base.metrics.size());
    for (std::size_t m = 0; m < r.metrics.size(); ++m) {
      // Exact == on every statistic: the parallel reduction must follow
      // the sequential accumulation order bit for bit.
      EXPECT_EQ(r.metrics[m].count(), base.metrics[m].count());
      EXPECT_EQ(r.metrics[m].mean(), base.metrics[m].mean());
      EXPECT_EQ(r.metrics[m].variance(), base.metrics[m].variance());
      EXPECT_EQ(r.metrics[m].min(), base.metrics[m].min());
      EXPECT_EQ(r.metrics[m].max(), base.metrics[m].max());
    }
  }
}

TEST(ReplicatorTest, ParallelCapMatchesSequential) {
  // A stream that never converges must stop at the cap with identical
  // statistics regardless of thread count (the cap is not a multiple of
  // the thread count, so the last batch is a partial one).
  ReplicationPolicy policy;
  policy.min_replications = 2;
  policy.max_replications = 53;
  const auto base = replicate(policy, 2, noisy_sample);

  ReplicationPolicy parallel = policy;
  parallel.threads = 4;
  const auto r = replicate(parallel, 2, noisy_sample);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.replications, 53u);
  EXPECT_EQ(r.metrics[0].mean(), base.metrics[0].mean());
  EXPECT_EQ(r.metrics[0].variance(), base.metrics[0].variance());
}

TEST(ReplicatorTest, ParallelPropagatesCallbackExceptions) {
  ReplicationPolicy policy;
  policy.min_replications = 2;
  policy.max_replications = 40;
  policy.threads = 4;
  EXPECT_THROW(
      replicate(policy, 1,
                [](std::size_t rep, std::vector<double>& out) {
                  if (rep == 9) throw std::runtime_error("boom");
                  // Never converges, so the run must reach replication 9.
                  out.push_back(rep % 2 ? 1.0 : 1000.0);
                }),
      std::runtime_error);
}

// A thread count past kMaxLanes is rejected before the first batch
// starts its workers.
TEST(ReplicatorTest, RejectsThreadCountAboveBound) {
  ReplicationPolicy policy;
  policy.threads = std::numeric_limits<std::size_t>::max();
  policy.min_replications = policy.max_replications = 2;
  EXPECT_THROW(
      replicate(policy, 1, [](std::size_t, std::vector<double>& out) {
        out.push_back(0.0);
      }),
      std::invalid_argument);
}

TEST(ReplicatorTest, RejectsBadPolicyAndArity) {
  ReplicationPolicy bad;
  bad.min_replications = 1;
  EXPECT_THROW(
      replicate(bad, 1, [](std::size_t, std::vector<double>& out) {
        out.push_back(0.0);
      }),
      std::invalid_argument);

  ReplicationPolicy policy;
  EXPECT_THROW(
      replicate(policy, 2, [](std::size_t, std::vector<double>& out) {
        out.push_back(0.0);  // wrong arity: 1 of 2
      }),
      std::invalid_argument);
  EXPECT_THROW(replicate(policy, 0,
                         [](std::size_t, std::vector<double>&) {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace manet::stats
