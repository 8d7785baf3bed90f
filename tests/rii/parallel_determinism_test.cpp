/**
 * The determinism contract of the work-stealing pool: EqSat output must
 * not depend on the pool width (DESIGN.md "Threading model").  The AU
 * sweep is serial, so its determinism needs no cross-width test; its
 * abort and cap behaviour is pinned in au_test.cpp.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "egraph/dump.hpp"
#include "egraph/rewrite.hpp"
#include "support/pool.hpp"

namespace isamore {
namespace rii {
namespace {

TEST(ParallelDeterminismTest, EqSatMatchPhaseIdenticalAcrossThreads)
{
    // EqSat output must not depend on the pool width: rules search and
    // apply in rule order at every width, so class-id assignment is the
    // same and the dumps are byte-identical, not just isomorphic.
    auto build = [] {
        EGraph g;
        for (int i = 0; i < 6; ++i) {
            g.addTerm(makeTerm(
                Op::Add,
                {makeTerm(Op::Mul, {arg(0, i), lit(4)}),
                 makeTerm(Op::Mul, {arg(0, i + 6), arg(0, i + 12)})}));
        }
        return g;
    };
    std::vector<RewriteRule> rules = {
        makeRule("add-comm", "(+ ?0 ?1)", "(+ ?1 ?0)", kRuleSat),
        makeRule("mul-shift", "(* ?0 4)", "(<< ?0 2)", 0),
        makeRule("mul-comm", "(* ?0 ?1)", "(* ?1 ?0)", kRuleSat),
    };

    setGlobalThreads(1);
    EGraph serialGraph = build();
    const EqSatStats serialStats = runEqSat(serialGraph, rules);
    const std::string serialDump = dumpText(serialGraph);

    for (size_t threads : {2u, 4u}) {
        setGlobalThreads(threads);
        EGraph parallelGraph = build();
        const EqSatStats stats = runEqSat(parallelGraph, rules);
        EXPECT_EQ(dumpText(parallelGraph), serialDump)
            << "threads=" << threads;
        EXPECT_EQ(stats.iterations, serialStats.iterations);
        EXPECT_EQ(stats.applications, serialStats.applications);
        EXPECT_EQ(stats.peakNodes, serialStats.peakNodes);
        EXPECT_EQ(stats.stopReason, serialStats.stopReason);
    }
    setGlobalThreads(0);
}

}  // namespace
}  // namespace rii
}  // namespace isamore
