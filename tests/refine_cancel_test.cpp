// Cooperative cancellation inside the normalisation/minimisation passes.
//
// The verify scheduler's per-check timeouts only work if every long pass
// polls its CancelToken: compile_lts, normalize(), bisim_partition() and
// compress() all do. These tests build synthetic machines large enough that
// each pass runs for many milliseconds and assert that (a) a pre-expired
// deadline aborts at entry, (b) a short deadline aborts mid-run, and (c) a
// cross-thread request_cancel() lands.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/event.hpp"
#include "refine/compact.hpp"
#include "refine/minimize.hpp"
#include "refine/normalize.hpp"

namespace ecucsp {
namespace {

constexpr EventId kA = FIRST_USER_EVENT;
constexpr EventId kB = FIRST_USER_EVENT + 1;

/// A long chain with alternating events and a tau sprinkled at every third
/// state — enough states that normalisation takes well over any deadline
/// used below, with a poll every 64 subset expansions.
CompactLts big_chain(std::size_t states) {
  CompactBuilder lts;
  for (std::size_t s = 0; s < states; ++s) {
    const auto t = static_cast<StateId>(s + 1);
    if (s + 1 < states) {
      lts.edge(s % 3 == 2 ? TAU : (s % 2 == 0 ? kA : kB), t);
      if (s % 5 == 0) lts.edge(kB, t);
    }
    lts.end_state();
  }
  return std::move(lts).finish(0);
}

TEST(RefineCancel, ExpiredDeadlineAbortsNormalizeAtEntry) {
  const CompactLts lts = big_chain(1'000);
  CancelToken token;
  token.set_deadline(CancelToken::Clock::now() -
                     std::chrono::milliseconds(1));
  EXPECT_THROW(normalize(lts, false, &token), CheckCancelled);
}

TEST(RefineCancel, ShortDeadlineAbortsNormalizeMidRun) {
  // ~2M states: far more than any machine normalises in 5ms, so the
  // deadline must fire from inside the subset construction loop.
  const CompactLts lts = big_chain(2'000'000);
  CancelToken token;
  token.set_timeout(std::chrono::milliseconds(5));
  try {
    normalize(lts, true, &token);
    FAIL() << "normalize outran a 5ms deadline on a 2M-state LTS";
  } catch (const CheckCancelled& e) {
    EXPECT_EQ(e.reason(), CheckCancelled::Reason::DeadlineExceeded);
  }
}

TEST(RefineCancel, CrossThreadCancelAbortsMinimizeMidRun) {
  const CompactLts lts = big_chain(2'000'000);
  CancelToken token;
  std::thread killer([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.request_cancel();
  });
  try {
    bisim_partition(lts, &token);
    // Partition refinement may legitimately finish before the 2ms nap on
    // a fast machine; only a thrown CheckCancelled is checked for reason.
  } catch (const CheckCancelled& e) {
    EXPECT_EQ(e.reason(), CheckCancelled::Reason::Cancelled);
  }
  killer.join();
  // Whether or not the pass finished first, the flag must now be set and
  // any further pass must abort immediately.
  EXPECT_TRUE(token.cancel_requested());
  EXPECT_THROW(bisim_partition(lts, &token), CheckCancelled);
}

TEST(RefineCancel, CompressForwardsTheToken) {
  Context ctx;
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  // A 200k-event prefix chain: compile_lts alone takes long enough for a
  // 1ms deadline to fire inside compress().
  std::vector<EventId> seq;
  seq.reserve(200'000);
  for (std::size_t i = 0; i < 200'000; ++i) seq.push_back(i % 2 ? a : b);
  const ProcessRef p = ctx.prefix_seq(seq, ctx.stop());
  CancelToken token;
  token.set_timeout(std::chrono::milliseconds(1));
  EXPECT_THROW(compress(ctx, p, "big", 1u << 22, &token), CheckCancelled);
}

TEST(RefineCancel, NoTokenRunsToCompletion) {
  const CompactLts lts = big_chain(2'000);
  const NormLts norm = normalize(lts, false, nullptr);
  EXPECT_GT(norm.nodes.size(), 0u);
  EXPECT_EQ(bisim_partition(lts, nullptr).size(), lts.state_count());
  EXPECT_GT(compress_compact(lts, Compression::Bisim, nullptr, nullptr)
                .state_count(),
            0u);
}

}  // namespace
}  // namespace ecucsp
