#include "egraph/egraph.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "egraph/dump.hpp"
#include "support/pool.hpp"
#include "support/rng.hpp"

namespace isamore {
namespace {

ENode
leafLit(int64_t v)
{
    return ENode(Op::Lit, Payload::ofInt(v), {});
}

TEST(EGraphTest, HashconsDeduplicates)
{
    EGraph g;
    EClassId a = g.add(leafLit(1));
    EClassId b = g.add(leafLit(1));
    EClassId c = g.add(leafLit(2));
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(g.numClasses(), 2u);
}

TEST(EGraphTest, AddTermSharesSubterms)
{
    EGraph g;
    // (+ (* x 2) (* x 2)) -- the two (* x 2) subterms share one class.
    TermPtr t = parseTerm("(+ (* $0.0 2) (* $0.0 2))");
    g.addTerm(t);
    // classes: x, 2, (* x 2), (+ .. ..)  => 4
    EXPECT_EQ(g.numClasses(), 4u);
    EXPECT_EQ(g.numNodes(), 4u);
}

TEST(EGraphTest, MergeUnionsClasses)
{
    EGraph g;
    EClassId a = g.add(leafLit(1));
    EClassId b = g.add(leafLit(2));
    EXPECT_TRUE(g.merge(a, b));
    EXPECT_FALSE(g.merge(a, b));
    g.rebuild();
    EXPECT_EQ(g.find(a), g.find(b));
    EXPECT_EQ(g.numClasses(), 1u);
    EXPECT_EQ(g.cls(g.find(a)).nodes.size(), 2u);
}

TEST(EGraphTest, CongruenceClosurePropagatesUp)
{
    EGraph g;
    // f(a) and f(b): merging a,b must merge f(a),f(b) by congruence.
    EClassId a = g.add(leafLit(1));
    EClassId b = g.add(leafLit(2));
    EClassId fa = g.add(ENode(Op::Neg, Payload::none(), {a}));
    EClassId fb = g.add(ENode(Op::Neg, Payload::none(), {b}));
    EXPECT_NE(g.find(fa), g.find(fb));
    g.merge(a, b);
    g.rebuild();
    EXPECT_EQ(g.find(fa), g.find(fb));
}

TEST(EGraphTest, CongruenceCascades)
{
    EGraph g;
    // g(f(a)), g(f(b)): one leaf merge cascades two levels.
    EClassId a = g.add(leafLit(1));
    EClassId b = g.add(leafLit(2));
    EClassId fa = g.add(ENode(Op::Neg, Payload::none(), {a}));
    EClassId fb = g.add(ENode(Op::Neg, Payload::none(), {b}));
    EClassId gfa = g.add(ENode(Op::Abs, Payload::none(), {fa}));
    EClassId gfb = g.add(ENode(Op::Abs, Payload::none(), {fb}));
    g.merge(a, b);
    g.rebuild();
    EXPECT_EQ(g.find(gfa), g.find(gfb));
    EXPECT_EQ(g.numClasses(), 3u);
}

TEST(EGraphTest, LookupAfterMergeFindsCanonical)
{
    EGraph g;
    EClassId a = g.add(leafLit(1));
    EClassId b = g.add(leafLit(2));
    EClassId fa = g.add(ENode(Op::Neg, Payload::none(), {a}));
    g.merge(a, b);
    g.rebuild();
    // Looking up Neg(b) must find Neg(a)'s class.
    EXPECT_EQ(g.lookup(ENode(Op::Neg, Payload::none(), {b})), g.find(fa));
}

TEST(EGraphTest, PayloadDistinguishesNodes)
{
    EGraph g;
    EClassId agg = g.addTerm(parseTerm("(list 1 2)"));
    EClassId g0 = g.add(ENode(Op::Get, Payload::ofInt(0), {agg}));
    EClassId g1 = g.add(ENode(Op::Get, Payload::ofInt(1), {agg}));
    EXPECT_NE(g0, g1);
}

TEST(EGraphTest, SelfReferentialClassSurvivesRebuild)
{
    EGraph g;
    // x and f(x) merged: the class contains a node referring to itself.
    EClassId x = g.add(leafLit(7));
    EClassId fx = g.add(ENode(Op::Neg, Payload::none(), {x}));
    g.merge(x, fx);
    g.rebuild();
    EClassId root = g.find(x);
    EXPECT_EQ(root, g.find(fx));
    bool found_self = false;
    for (const ENode& n : g.cls(root).nodes) {
        for (EClassId c : n.children) {
            if (g.find(c) == root) {
                found_self = true;
            }
        }
    }
    EXPECT_TRUE(found_self);
}

TEST(EGraphTest, MergeChainCollapsesToOneClass)
{
    EGraph g;
    std::vector<EClassId> ids;
    for (int i = 0; i < 20; ++i) {
        ids.push_back(g.add(leafLit(i)));
    }
    for (int i = 1; i < 20; ++i) {
        g.merge(ids[0], ids[i]);
    }
    g.rebuild();
    EXPECT_EQ(g.numClasses(), 1u);
    EXPECT_EQ(g.cls(g.find(ids[0])).nodes.size(), 20u);
}

TEST(EGraphTest, VersionAdvancesOnMerge)
{
    EGraph g;
    EClassId a = g.add(leafLit(1));
    EClassId b = g.add(leafLit(2));
    uint64_t v0 = g.version();
    g.merge(a, b);
    EXPECT_GT(g.version(), v0);
}

TEST(EGraphTest, DiamondCongruence)
{
    EGraph g;
    // h(f(a), g(a)) vs h(f(b), g(b)): merging a,b merges everything.
    EClassId a = g.add(leafLit(1));
    EClassId b = g.add(leafLit(2));
    auto build = [&](EClassId leaf) {
        EClassId f = g.add(ENode(Op::Neg, Payload::none(), {leaf}));
        EClassId h = g.add(ENode(Op::Abs, Payload::none(), {leaf}));
        return g.add(ENode(Op::Add, Payload::none(), {f, h}));
    };
    EClassId ra = build(a);
    EClassId rb = build(b);
    g.merge(a, b);
    g.rebuild();
    EXPECT_EQ(g.find(ra), g.find(rb));
}

/** Everything a reader can ask a rebuilt graph, gathered in one pass. */
struct GraphReads {
    std::vector<EClassId> finds;        ///< find() of every id
    std::vector<EClassId> classIds;
    std::vector<std::vector<ENode>> nodes;  ///< canonicalize() of cls()
    std::vector<EClassId> lookups;      ///< lookup() of every class node
    std::vector<uint64_t> stamps;       ///< classStamp() per class
    std::vector<std::vector<EClassId>> withOp;  ///< classesWithOp() per op
    std::string copyDump;               ///< dumpText() of a copy

    bool operator==(const GraphReads&) const = default;
};

GraphReads
readAll(const EGraph& g)
{
    GraphReads out;
    for (EClassId id = 0; id < g.numIds(); ++id) {
        out.finds.push_back(g.find(id));
    }
    out.classIds = g.classIds();
    for (const EClassId id : out.classIds) {
        std::vector<ENode>& nodes = out.nodes.emplace_back();
        for (const ENode& node : g.cls(id).nodes) {
            nodes.push_back(g.canonicalize(node));
            out.lookups.push_back(g.lookup(node));
        }
        out.stamps.push_back(g.classStamp(id));
    }
    for (size_t op = 0; op < kNumOps; ++op) {
        out.withOp.push_back(g.classesWithOp(static_cast<Op>(op)));
    }
    const EGraph copy(g);
    out.copyDump = dumpText(copy);
    return out;
}

TEST(EGraphTest, ConcurrentReadsOfRebuiltGraph)
{
    // Threading contract: once rebuilt, a graph nobody mutates may be
    // read from many threads at once.  Every lane must see exactly what a
    // serial reader sees.  Run under TSan in CI.
    Rng rng(1017);
    EGraph g;
    std::vector<EClassId> ids;
    for (int64_t v = 0; v < 8; ++v) {
        ids.push_back(g.add(leafLit(v)));
    }
    static const Op kOps[] = {Op::Add, Op::Mul, Op::Sub};
    for (int i = 0; i < 300; ++i) {
        const EClassId a = ids[rng.below(ids.size())];
        const EClassId b = ids[rng.below(ids.size())];
        ids.push_back(g.add(
            ENode(kOps[rng.below(std::size(kOps))], Payload::none(), {a, b})));
    }
    for (int i = 0; i < 12; ++i) {
        g.merge(ids[rng.below(ids.size())], ids[rng.below(ids.size())]);
    }
    g.rebuild();
    ASSERT_LT(g.numClasses(), g.numIds());

    // The lanes read first, so a read that would write (a cache refresh
    // rebuild() left to do) races under TSan.
    setGlobalThreads(4);
    std::vector<GraphReads> lanes(16);
    globalPool().parallelFor(lanes.size(),
                             [&](size_t i) { lanes[i] = readAll(g); });
    setGlobalThreads(0);
    const GraphReads serial = readAll(g);
    for (size_t i = 0; i < lanes.size(); ++i) {
        EXPECT_TRUE(lanes[i] == serial) << "task " << i;
    }
}

}  // namespace
}  // namespace isamore
