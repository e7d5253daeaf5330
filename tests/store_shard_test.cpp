// Sharded persistent store: shards > 1 split the disk tier into
// shard-NN/ subtrees by a deterministic function of the key digest, so
// independent daemon workers (or processes) contend on different
// directories — while every digest, blob and verdict stays byte-identical
// to the single-directory layout. Pinned here:
//
//   * shard_of() is pure, stable, in range, and identity for shards == 1;
//   * shards == 1 preserves the legacy <dir>/objects layout exactly;
//   * shards > 1 place each object under the shard shard_of() names;
//   * a fresh process opening the directory with the same shard count
//     finds every object (cold-restart hits);
//   * scan_stored_counterexamples harvests attacks from BOTH layouts;
//   * trim() spreads the byte budget across shards.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "refine/check.hpp"
#include "refine/lts.hpp"
#include "store/cache.hpp"

namespace ecucsp::store {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const char* tag) {
    dir_ = fs::temp_directory_path() /
           ("ecucsp_shard_test_" + std::string(tag) + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const fs::path& path() const { return dir_; }

 private:
  fs::path dir_;
};

/// spec = a -> STOP, impl = a -> b -> STOP: the refinement FAILS with the
/// attack trace <a, b> — exactly what the scan harvests.
struct Terms {
  Context ctx;
  ProcessRef spec;
  ProcessRef impl;

  Terms() {
    const EventId a = ctx.event(ctx.channel("a"));
    const EventId b = ctx.event(ctx.channel("b"));
    spec = ctx.prefix(a, ctx.stop());
    impl = ctx.prefix(a, ctx.prefix(b, ctx.stop()));
  }
};

fs::path sharded_object_path(const fs::path& dir, const Digest& key,
                             unsigned shards) {
  const std::string hex = key.hex();
  fs::path root = dir;
  if (shards > 1) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "shard-%02u",
                  VerificationCache::shard_of(key, shards));
    root /= buf;
  }
  return root / "objects" / hex.substr(0, 2) / hex.substr(2);
}

TEST(ShardMap, DeterministicInRangeAndIdentityForOne) {
  for (std::uint64_t hi : {0ull, 1ull, 7ull, 0xdeadbeefull, ~0ull}) {
    const Digest key{hi, ~hi};
    EXPECT_EQ(VerificationCache::shard_of(key, 1), 0u);
    for (unsigned shards : {2u, 4u, 16u}) {
      const unsigned s = VerificationCache::shard_of(key, shards);
      EXPECT_LT(s, shards);
      // Pure function of the digest bits: same answer every time, in any
      // process — this is what makes the on-disk layout portable.
      EXPECT_EQ(s, VerificationCache::shard_of(key, shards));
    }
  }
  // The mapping actually spreads: 16 distinct digests over 4 shards must
  // touch more than one shard.
  unsigned touched = 0;
  bool seen[4] = {};
  for (std::uint64_t i = 0; i < 16; ++i) {
    const unsigned s = VerificationCache::shard_of(Digest{i, 0}, 4);
    if (!seen[s]) {
      seen[s] = true;
      ++touched;
    }
  }
  EXPECT_GT(touched, 1u);
}

TEST(ShardedCache, SingleShardKeepsLegacyLayout) {
  TempDir tmp("legacy");
  Terms t;
  VerificationCache cache(tmp.path(), 1);
  EXPECT_EQ(cache.shard_count(), 1u);
  cache.store_lts(t.ctx, t.impl, 1 << 16, compile_lts(t.ctx, t.impl));

  const Digest key = VerificationCache::lts_key(t.ctx, t.impl, 1 << 16);
  EXPECT_TRUE(fs::exists(sharded_object_path(tmp.path(), key, 1)));
  for (const auto& e : fs::directory_iterator(tmp.path())) {
    EXPECT_NE(e.path().filename().string().substr(0, 6), "shard-")
        << "one shard must not invent shard directories";
  }
}

TEST(ShardedCache, ObjectsLandInTheShardTheDigestNames) {
  TempDir tmp("layout");
  constexpr unsigned kShards = 4;
  Terms t;
  VerificationCache cache(tmp.path(), kShards);
  EXPECT_EQ(cache.shard_count(), kShards);

  // Different state budgets give different keys, scattering objects over
  // the shards; every one must land exactly where shard_of() points.
  const CompactLts lts = compile_lts(t.ctx, t.impl);
  for (unsigned bit = 10; bit < 18; ++bit) {
    cache.store_lts(t.ctx, t.impl, 1u << bit, lts);
    const Digest key = VerificationCache::lts_key(t.ctx, t.impl, 1u << bit);
    EXPECT_TRUE(fs::exists(sharded_object_path(tmp.path(), key, kShards)))
        << "budget 2^" << bit << " missing from shard "
        << VerificationCache::shard_of(key, kShards);
  }
}

TEST(ShardedCache, FreshProcessWithSameShardCountFindsEverything) {
  TempDir tmp("reopen");
  Terms t;
  const CheckResult res =
      check_refinement(t.ctx, t.spec, t.impl, Model::Traces, 1 << 16);
  ASSERT_FALSE(res.passed);
  {
    VerificationCache writer(tmp.path(), 4);
    writer.store_check(t.ctx, t.spec, t.impl, CheckOp::Refinement,
                       Model::Traces, 1 << 16, res);
    writer.store_lts(t.ctx, t.impl, 1 << 16, compile_lts(t.ctx, t.impl));
  }

  // Simulated restart: a brand-new instance (cold memory tier) over the
  // same directory and shard count serves both objects from disk.
  VerificationCache reader(tmp.path(), 4);
  Terms u;
  const auto verdict = reader.lookup_check(
      u.ctx, u.spec, u.impl, CheckOp::Refinement, Model::Traces, 1 << 16);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_FALSE(verdict->passed);
  ASSERT_TRUE(verdict->counterexample.has_value());
  EXPECT_TRUE(reader.lookup_lts(u.ctx, u.impl, 1 << 16).has_value());
  EXPECT_EQ(reader.stats().disk_hits.load(), 2u);
}

TEST(ShardedCache, ScanHarvestsCounterexamplesFromBothLayouts) {
  Terms t;
  const CheckResult res =
      check_refinement(t.ctx, t.spec, t.impl, Model::Traces, 1 << 16);
  ASSERT_FALSE(res.passed);

  for (const unsigned shards : {1u, 4u}) {
    TempDir tmp(shards == 1 ? "scan1" : "scan4");
    VerificationCache cache(tmp.path(), shards);
    cache.store_check(t.ctx, t.spec, t.impl, CheckOp::Refinement,
                      Model::Traces, 1 << 16, res);

    Context fresh_ctx;
    (void)fresh_ctx.event(fresh_ctx.channel("a"));
    (void)fresh_ctx.event(fresh_ctx.channel("b"));
    const auto attacks = scan_stored_counterexamples(tmp.path(), fresh_ctx);
    ASSERT_EQ(attacks.size(), 1u) << shards << " shard(s)";
    EXPECT_EQ(attacks[0], (std::vector<std::string>{"a", "b"}))
        << "the attack step must survive the " << shards << "-shard layout";
  }
}

TEST(ShardedCache, TrimSpreadsTheBudgetAcrossShards) {
  TempDir tmp("trim");
  Terms t;
  VerificationCache cache(tmp.path(), 4);
  const CompactLts lts = compile_lts(t.ctx, t.impl);
  for (unsigned bit = 10; bit < 18; ++bit) {
    cache.store_lts(t.ctx, t.impl, 1u << bit, lts);
  }
  // Budget 0: every shard evicts everything it holds.
  EXPECT_EQ(cache.trim(0), 8u);
  for (const auto& e : fs::recursive_directory_iterator(tmp.path())) {
    EXPECT_FALSE(e.is_regular_file()) << "left behind: " << e.path();
  }
}

}  // namespace
}  // namespace ecucsp::store
