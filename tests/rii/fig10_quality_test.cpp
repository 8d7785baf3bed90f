/**
 * @file
 * Quality-of-results floor for the fig10 kernels: the paper-claim
 * numbers recorded in EXPERIMENTS.md ("Figure 10", ISAMORE column) and
 * the AU work the smart sweep does to reach them.
 *
 * Both checks are absolute, not ratios against another code path in this
 * repository: a regression that loses a front point (SHA 1.55 -> 1.19)
 * or multiplies the AU work (fft's raw candidates tripled when the sweep
 * was split into fresh-memo chunks) fails here however fast or green the
 * rest of the suite is.
 */
#include <string>

#include <gtest/gtest.h>

#include "isamore/isamore.hpp"
#include "rii/au.hpp"
#include "support/telemetry.hpp"
#include "workloads/workload.hpp"

namespace isamore {
namespace rii {
namespace {

struct Fig10Row {
    const char* name;
    workloads::Workload (*factory)();
    double bestSpeedup;  ///< EXPERIMENTS.md, two decimals
};

const Fig10Row kFig10[] = {
    {"2dconv", workloads::makeConv2D, 1.52},
    {"matmul", workloads::makeMatMul, 1.70},
    {"matchain", workloads::makeMatChain, 1.73},
    {"fft", workloads::makeFft, 2.38},
    {"stencil", workloads::makeStencil, 1.22},
    {"qprod", workloads::makeQProd, 6.30},
    {"qrdecomp", workloads::makeQRDecomp, 1.46},
    {"deriche", workloads::makeDeriche, 1.94},
    {"sha", workloads::makeSha, 1.55},
};

TEST(Fig10QualityTest, BestSpeedupAtLeastExperimentsValue)
{
    for (const Fig10Row& row : kFig10) {
        const AnalyzedWorkload analyzed = analyzeWorkload(row.factory());
        const RiiResult result =
            identifyInstructions(analyzed, Mode::Default);
        // EXPERIMENTS.md prints two decimals, so a recorded 1.52 stands
        // for anything that rounds to it.
        EXPECT_GE(result.best().speedup + 0.005, row.bestSpeedup)
            << row.name << ": best Default-mode speedup "
            << result.best().speedup << " is below EXPERIMENTS.md's "
            << row.bestSpeedup;
    }
}

TEST(Fig10QualityTest, RawCandidatesMatchOneMemoSweep)
{
    // One memo per sweep, stopping at the result cap: the counts the
    // seed's sweep produced.  Fresh memos per 32-pair chunk gave fft
    // 329,857 and changed sha's front.
    const struct {
        workloads::Workload (*factory)();
        size_t rawCandidates;
    } cases[] = {
        {workloads::makeFft, 107678},
        {workloads::makeSha, 132319},
    };
    for (const auto& c : cases) {
        const AnalyzedWorkload analyzed = analyzeWorkload(c.factory());
        const RiiResult result =
            identifyInstructions(analyzed, Mode::Default);
        EXPECT_EQ(result.stats.rawCandidates, c.rawCandidates)
            << analyzed.workload.name;
    }
}

TEST(Fig10QualityTest, AuCountersEqualSweepStatsOnTracedFft)
{
    if (!telemetry::kCompiled) {
        GTEST_SKIP() << "telemetry compiled out";
    }
    auto& registry = telemetry::Registry::instance();
    const AnalyzedWorkload analyzed = analyzeWorkload(workloads::makeFft());

    // One sweep: every counter is that sweep's AuStats field.
    registry.reset();
    telemetry::setEnabled(true);
    const AuResult au =
        identifyPatterns(analyzed.program.egraph, AuOptions{});
    telemetry::setEnabled(false);
    EXPECT_EQ(registry.counter("au.pairs_explored").value(),
              au.stats.pairsExplored);
    EXPECT_EQ(registry.counter("au.raw_candidates").value(),
              au.stats.rawCandidates);
    EXPECT_EQ(registry.counter("au.memo_hits").value(), au.stats.memoHits);
    EXPECT_EQ(registry.counter("au.memo_misses").value(),
              au.stats.memoMisses);
    EXPECT_GT(au.stats.memoHits, 0u);
    const std::string metrics = registry.toJson();
    EXPECT_NE(metrics.find("\"sweeps\""), std::string::npos) << metrics;
    EXPECT_EQ(metrics.find("\"shards\""), std::string::npos) << metrics;

    // The whole pipeline: one sweep per phase, and the counter is the
    // run's reported candidate count -- no work the run threw away.
    registry.reset();
    telemetry::setEnabled(true);
    const RiiResult result = identifyInstructions(analyzed, Mode::Default);
    telemetry::setEnabled(false);
    EXPECT_EQ(registry.counter("au.raw_candidates").value(),
              result.stats.rawCandidates);
    EXPECT_EQ(result.stats.rawCandidates, 107678u);
    registry.reset();
    telemetry::Tracer::instance().clear();
}

}  // namespace
}  // namespace rii
}  // namespace isamore
