#include "hls/estimator.hpp"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace isamore {
namespace hls {
namespace {

HwCost
costOf(const std::string& text)
{
    return estimatePattern(parseTerm(text));
}

TEST(HlsTest, SingleOpFitsOneCycle)
{
    EXPECT_EQ(costOf("(+ ?0 ?1)").cycles, 1);
    EXPECT_EQ(costOf("(& ?0 ?1)").cycles, 1);
}

TEST(HlsTest, ChainingPacksOpsIntoCycles)
{
    // add(280) + add(280) + add(280) = 840 ps < 1 cycle.
    EXPECT_EQ(costOf("(+ (+ (+ ?0 ?1) ?2) ?3)").cycles, 1);
    // mul(850) + mul(850) = 1700 ps -> 2 cycles.
    EXPECT_EQ(costOf("(* (* ?0 ?1) ?2)").cycles, 2);
}

TEST(HlsTest, DividerDominatesLatency)
{
    EXPECT_GE(costOf("(/ ?0 ?1)").cycles, 4);
    EXPECT_GT(costOf("(/ ?0 ?1)").areaUm2, costOf("(+ ?0 ?1)").areaUm2);
}

TEST(HlsTest, AreaSumsOverOperators)
{
    double one = costOf("(* ?0 ?1)").areaUm2;
    double two = costOf("(+ (* ?0 ?1) (* ?2 ?3))").areaUm2;
    EXPECT_GT(two, 2 * one * 0.99);
}

TEST(HlsTest, SharedSubtermsChargedOnce)
{
    // (* ?0 ?1) used twice as the same shared node must not double area.
    TermPtr prod = parseTerm("(* ?0 ?1)");
    TermPtr sum = makeTerm(Op::Add, {prod, prod});
    double shared = estimatePattern(sum).areaUm2;
    double separate = costOf("(+ (* ?0 ?1) (* ?2 ?3))").areaUm2;
    EXPECT_LT(shared, separate);
}

TEST(HlsTest, VectorOpPaysAreaPerLaneButOneDelay)
{
    HwCost scalar = costOf("(* ?0 ?1)");
    HwCost vec = costOf("(vop * (vec ?0 ?1 ?2 ?3) (vec ?4 ?5 ?6 ?7))");
    EXPECT_EQ(vec.cycles, scalar.cycles);
    EXPECT_GE(vec.areaUm2, 4 * opAreaUm2(Op::Mul));
}

TEST(HlsTest, LoopPatternsPipelined)
{
    // A loop body with a multiply: latency grows with the trip hint, but
    // far less than trips * body latency thanks to pipelining.
    const std::string loop =
        "(loop (list 0 0) (list (< $0.0 16) (+ $0.0 1)"
        " (+ $0.1 (* $0.0 3))))";
    HwCost trips16 = estimatePattern(parseTerm(loop), nullptr, 16);
    HwCost trips64 = estimatePattern(parseTerm(loop), nullptr, 64);
    EXPECT_GT(trips64.cycles, trips16.cycles);
    EXPECT_LT(trips64.cycles, 64 * trips16.cycles);
    EXPECT_GE(trips16.initiationInterval, 1);
}

TEST(HlsTest, AppResolvesSubPattern)
{
    TermPtr sub = parseTerm("(* (+ ?0 ?1) 2)");
    PatternResolver resolver = [&](int64_t id) -> TermPtr {
        return id == 5 ? sub : nullptr;
    };
    HwCost with = estimatePattern(parseTerm("(+ (app (pat 5) ?0 ?1) ?2)"),
                                  resolver);
    HwCost without =
        estimatePattern(parseTerm("(+ (app (pat 5) ?0 ?1) ?2)"));
    EXPECT_GT(with.areaUm2, without.areaUm2);
    EXPECT_GE(with.cycles, without.cycles);
}

TEST(HlsTest, FeaturePrioritizesLatency)
{
    double cheap = patternFeature(parseTerm("(+ ?0 ?1)"));
    double pricey = patternFeature(parseTerm("(/ (* ?0 ?1) ?2)"));
    EXPECT_LT(cheap, pricey);
}

TEST(HlsTest, IfAddsMux)
{
    HwCost plain = costOf("(+ ?0 ?1)");
    HwCost guarded =
        costOf("(if (list ?0 ?1 ?2) (+ ?1 ?2) (- ?1 ?2))");
    EXPECT_GE(guarded.areaUm2,
              plain.areaUm2 + opAreaUm2(Op::Sub));
}

TEST(HlsTest, LeavesAreFree)
{
    EXPECT_EQ(estimatePattern(parseTerm("?0")).areaUm2, 0.0);
    EXPECT_EQ(estimatePattern(parseTerm("5")).areaUm2, 0.0);
}

// Each thread walks with its own arrival memo: threads estimating the
// same shared DAGs at once, through a resolver into App bodies, must each
// see exactly the serial estimates.
TEST(HlsTest, ConcurrentEstimatesMatchSerial)
{
    TermPtr prod = parseTerm("(* ?0 ?1)");
    TermPtr sub = parseTerm("(* (+ ?0 ?1) 2)");
    TermPtr nested = makeTerm(Op::Add, {parseTerm("(app (pat 5) ?0 ?1)"),
                                        parseTerm("(app (pat 5) ?1 ?0)")});
    const PatternResolver resolver = [&](int64_t id) -> TermPtr {
        return id == 5 ? sub : id == 6 ? nested : nullptr;
    };
    const std::vector<TermPtr> patterns = {
        makeTerm(Op::Add, {prod, prod}),
        makeTerm(Op::Sub, {makeTerm(Op::Mul, {prod, prod}), prod}),
        parseTerm("(+ (app (pat 5) ?0 ?1) ?2)"),
        parseTerm("(app (pat 6) (app (pat 5) ?0 ?1) ?2)"),
        parseTerm("(loop (list 0 0) (list (< $0.0 16) (+ $0.0 1)"
                  " (+ $0.1 (* $0.0 3))))"),
        parseTerm("(vop * (vec ?0 ?1 ?2 ?3) (vec ?4 ?5 ?6 ?7))"),
        parseTerm("(/ (* ?0 ?1) ?2)"),
    };
    std::vector<HwCost> serial;
    for (const TermPtr& p : patterns) {
        serial.push_back(estimatePattern(p, resolver));
    }

    constexpr size_t kThreads = 4;
    std::vector<size_t> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (size_t i = 0; i < 400; ++i) {
                // Staggered start: threads hit different patterns at once.
                const size_t k = (i + t) % patterns.size();
                const HwCost got = estimatePattern(patterns[k], resolver);
                const HwCost& want = serial[k];
                if (got.cycles != want.cycles ||
                    got.latencyNs != want.latencyNs ||
                    got.areaUm2 != want.areaUm2 ||
                    got.initiationInterval != want.initiationInterval) {
                    ++mismatches[t];
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    for (size_t t = 0; t < kThreads; ++t) {
        EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
    }
}

}  // namespace
}  // namespace hls
}  // namespace isamore
