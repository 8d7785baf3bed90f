#include "rii/au.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "egraph/rewrite.hpp"

namespace isamore {
namespace rii {
namespace {

/** A commutativity-saturated graph with many admissible pairs. */
EGraph
buildSweepGraph()
{
    EGraph g;
    for (int i = 0; i < 12; ++i) {
        g.addTerm(makeTerm(
            Op::Add,
            {makeTerm(Op::Mul, {makeTerm(Op::Add, {arg(0, i), lit(1)}),
                                arg(0, i + 12)}),
             makeTerm(Op::Mul, {arg(0, i + 24), lit(2)})}));
    }
    std::vector<RewriteRule> comm = {
        makeRule("add-comm", "(+ ?0 ?1)", "(+ ?1 ?0)", kRuleSat),
        makeRule("mul-comm", "(* ?0 ?1)", "(* ?1 ?0)", kRuleSat),
    };
    runEqSat(g, comm);
    return g;
}

std::vector<std::string>
patternStrings(const AuResult& result)
{
    std::vector<std::string> out;
    for (const TermPtr& p : result.patterns) {
        out.push_back(termToString(p));
    }
    return out;
}

bool
containsPattern(const AuResult& result, const std::string& text)
{
    TermPtr wanted = canonicalizeHoles(parseTerm(text));
    for (const TermPtr& p : result.patterns) {
        if (termEquals(p, wanted)) {
            return true;
        }
    }
    return false;
}

TEST(AuTest, FindsSyntacticCommonStructure)
{
    // a*2+b and c*2+d share (+ (* ?x 2) ?y).
    EGraph g;
    g.addTerm(parseTerm("(+ (* $0.0 2) $0.1)"));
    g.addTerm(parseTerm("(+ (* $0.2 2) $0.3)"));
    AuOptions opt;
    auto result = identifyPatterns(g, opt);
    EXPECT_TRUE(containsPattern(result, "(+ (* ?0 2) ?1)"))
        << "patterns found: " << result.patterns.size();
}

TEST(AuTest, PaperFig3SemanticPattern)
{
    // Fig. 3: after factoring a*2 + b*2 into (a+b)*2, anti-unifying with
    // (1+i)*2 yields (?x + ?y) * 2.
    EGraph g;
    EClassId sum2 = g.addTerm(parseTerm("(+ (* $0.0 2) (* $0.1 2))"));
    g.addTerm(parseTerm("(* (+ 1 $0.2) 2)"));
    auto factor = makeRule("factor", "(+ (* ?0 ?2) (* ?1 ?2))",
                           "(* (+ ?0 ?1) ?2)", 0);
    runEqSat(g, {factor});
    (void)sum2;

    AuOptions opt;
    auto result = identifyPatterns(g, opt);
    EXPECT_TRUE(containsPattern(result, "(* (+ ?0 ?1) 2)"));
}

TEST(AuTest, TypeFilterExcludesMismatchedPairs)
{
    EGraph g;
    g.addTerm(parseTerm("(+ (* $0.0 2) $0.1)"));
    g.addTerm(parseTerm("(f+ (f* $0.0:f32 2.0f) $0.1:f32)"));
    AuOptions opt;
    auto result = identifyPatterns(g, opt);
    // The int and float trees must not anti-unify into anything (their
    // constructors differ anyway), and the pairing stats show filtering.
    for (const TermPtr& p : result.patterns) {
        // No pattern can mix f+ with int *.
        std::string s = termToString(p);
        EXPECT_FALSE(s.find("f+") != std::string::npos &&
                     s.find("(* ") != std::string::npos)
            << s;
    }
}

TEST(AuTest, HoleConsistencyAcrossOccurrences)
{
    // (x+x)*x vs (y+y)*y: the LGG must reuse ONE hole: (?0+?0)*?0.
    EGraph g;
    g.addTerm(parseTerm("(* (+ $0.0 $0.0) $0.0)"));
    g.addTerm(parseTerm("(* (+ $0.1 $0.1) $0.1)"));
    AuOptions opt;
    auto result = identifyPatterns(g, opt);
    EXPECT_TRUE(containsPattern(result, "(* (+ ?0 ?0) ?0)"));
}

TEST(AuTest, MinOpsFilters)
{
    EGraph g;
    g.addTerm(parseTerm("(+ $0.0 1)"));
    g.addTerm(parseTerm("(+ $0.1 2)"));
    AuOptions opt;
    opt.minOps = 2;
    auto result = identifyPatterns(g, opt);
    for (const TermPtr& p : result.patterns) {
        EXPECT_GE(termOpCount(p), 2u);
    }
}

TEST(AuTest, ExhaustiveModeGeneratesMoreCandidates)
{
    // Saturate with commutativity so classes hold several node forms;
    // exhaustive AU enumerates all cross products while boundary samples.
    EGraph g;
    for (int i = 0; i < 6; ++i) {
        g.addTerm(makeTerm(
            Op::Add,
            {makeTerm(Op::Mul, {makeTerm(Op::Add, {arg(0, i), lit(1)}),
                                arg(0, i + 6)}),
             makeTerm(Op::Mul, {arg(0, i + 12), arg(0, i + 18)})}));
    }
    std::vector<RewriteRule> comm = {
        makeRule("add-comm", "(+ ?0 ?1)", "(+ ?1 ?0)", kRuleSat),
        makeRule("mul-comm", "(* ?0 ?1)", "(* ?1 ?0)", kRuleSat),
    };
    runEqSat(g, comm);

    AuOptions sampled;
    sampled.sampling = Sampling::Boundary;
    sampled.maxPatternsPerPair = 4;
    AuOptions full;
    full.sampling = Sampling::Exhaustive;
    full.typeFilter = false;
    full.hashFilter = false;
    auto a = identifyPatterns(g, sampled);
    auto b = identifyPatterns(g, full);
    EXPECT_GT(b.stats.rawCandidates, a.stats.rawCandidates);
    EXPECT_GE(b.stats.pairsExplored, a.stats.pairsExplored);
}

TEST(AuTest, CandidateBudgetAborts)
{
    // A saturated graph with many equivalent forms blows a tiny budget.
    EGraph g;
    g.addTerm(parseTerm(
        "(+ (+ (* $0.0 2) (* $0.1 2)) (+ (* $0.2 2) (* $0.3 2)))"));
    g.addTerm(parseTerm(
        "(+ (+ (* $0.4 2) (* $0.5 2)) (+ (* $0.6 2) (* $0.7 2)))"));
    AuOptions opt;
    opt.sampling = Sampling::Exhaustive;
    opt.typeFilter = false;
    opt.hashFilter = false;
    opt.maxCandidates = 50;
    auto result = identifyPatterns(g, opt);
    EXPECT_TRUE(result.stats.aborted);
}

TEST(AuTest, CandidateBudgetAbortIsDeterministic)
{
    // The sweep charges one unit per raw candidate and aborts on the
    // first charge past the cap.  The abort is experiment policy, not
    // degradation: the pairs never reached are not counted as skipped.
    // Its point, and so the kept pattern prefix, is fixed by pair order.
    const EGraph g = buildSweepGraph();
    AuOptions opt;
    opt.maxCandidates = 60;
    Budget parent;
    const AuResult base = identifyPatterns(g, opt, &parent);
    ASSERT_TRUE(base.stats.aborted);
    EXPECT_FALSE(base.stats.timedOut);
    EXPECT_EQ(base.stats.rawCandidates, opt.maxCandidates + 1);
    EXPECT_EQ(parent.usedUnits(), base.stats.rawCandidates);
    EXPECT_EQ(base.stats.skippedPairs, 0u);
    EXPECT_LT(base.stats.pairsExplored, selectAuPairs(g, opt).size());

    const AuResult again = identifyPatterns(g, opt);
    EXPECT_EQ(patternStrings(again), patternStrings(base));
    EXPECT_EQ(again.stats.pairsExplored, base.stats.pairsExplored);
    EXPECT_EQ(again.stats.rawCandidates, base.stats.rawCandidates);
}

TEST(AuTest, ResultPatternCapIsExact)
{
    // The cap is checked inside a pair as well as between pairs, so the
    // result holds exactly maxResultPatterns patterns even when the last
    // pair produced more.
    const EGraph g = buildSweepGraph();
    AuOptions opt;
    opt.maxResultPatterns = 4;
    const AuResult base = identifyPatterns(g, opt);
    ASSERT_EQ(base.patterns.size(), 4u);
    EXPECT_FALSE(base.stats.aborted);

    const AuResult again = identifyPatterns(g, opt);
    EXPECT_EQ(patternStrings(again), patternStrings(base));
    EXPECT_EQ(again.stats.pairsExplored, base.stats.pairsExplored);
    EXPECT_EQ(again.stats.rawCandidates, base.stats.rawCandidates);
}

TEST(AuTest, ResultPatternCapStopsTheSweep)
{
    // Smart AU stops once it has enough distinct patterns: the sweep
    // ends at the pair that fills the cap, so later pairs are never
    // explored (and not counted as skipped), and the patterns are the
    // prefix an uncapped sweep finds first -- one memo in pair order.
    const EGraph g = buildSweepGraph();
    const AuResult full = identifyPatterns(g, AuOptions{});
    ASSERT_GT(full.patterns.size(), 3u);
    ASSERT_FALSE(full.stats.aborted);

    AuOptions capped;
    capped.maxResultPatterns = 3;
    const AuResult result = identifyPatterns(g, capped);
    const size_t admissible = selectAuPairs(g, capped).size();
    EXPECT_LT(result.stats.pairsExplored, admissible);
    EXPECT_LT(result.stats.pairsExplored, full.stats.pairsExplored);
    EXPECT_LT(result.stats.rawCandidates, full.stats.rawCandidates);
    EXPECT_EQ(result.stats.skippedPairs, 0u);
    EXPECT_FALSE(result.stats.timedOut);

    std::vector<std::string> prefix = patternStrings(full);
    prefix.resize(3);
    EXPECT_EQ(patternStrings(result), prefix);

    // One pair earlier the cap was not yet full.
    AuOptions shorter;
    shorter.maxPairs = result.stats.pairsExplored - 1;
    EXPECT_LT(identifyPatterns(g, shorter).patterns.size(), 3u);
}

TEST(AuTest, KdTreeSamplingKeepsWithinCaps)
{
    EGraph g;
    for (int i = 0; i < 8; ++i) {
        g.addTerm(makeTerm(
            Op::Add, {makeTerm(Op::Mul, {arg(0, i), arg(0, i + 8)}),
                      makeTerm(Op::Shl, {arg(0, i), lit(2)})}));
    }
    AuOptions opt;
    opt.sampling = Sampling::KdTree;
    opt.maxPatternsPerPair = 8;
    auto result = identifyPatterns(g, opt);
    EXPECT_FALSE(result.stats.aborted);
    EXPECT_LE(result.patterns.size(), opt.maxResultPatterns);
}

TEST(AuTest, PatternsAreCanonicalAndDeduplicated)
{
    EGraph g;
    g.addTerm(parseTerm("(+ (* $0.0 3) $0.1)"));
    g.addTerm(parseTerm("(+ (* $0.2 3) $0.3)"));
    auto result = identifyPatterns(g, AuOptions{});
    std::set<std::string> seen;
    for (const TermPtr& p : result.patterns) {
        EXPECT_TRUE(seen.insert(termToString(p)).second)
            << "duplicate: " << termToString(p);
        // Canonical hole numbering starts at 0.
        auto holes = termHoles(p);
        if (!holes.empty()) {
            EXPECT_EQ(holes[0], 0);
        }
    }
}

TEST(AuTest, WellFormedAppsOnly)
{
    EGraph g;
    // Two different Apps; anti-unifying their heads must not survive.
    EClassId x = g.addTerm(parseTerm("(+ $0.0 1)"));
    EClassId patA = g.addTerm(parseTerm("(pat 0)"));
    EClassId patB = g.addTerm(parseTerm("(pat 1)"));
    g.add(ENode(Op::App, Payload::none(), {patA, x, x}));
    g.add(ENode(Op::App, Payload::none(), {patB, x, x}));
    auto result = identifyPatterns(g, AuOptions{});
    for (const TermPtr& p : result.patterns) {
        std::function<void(const TermPtr&)> check =
            [&](const TermPtr& t) {
                if (t->op == Op::App) {
                    ASSERT_FALSE(t->children.empty());
                    EXPECT_EQ(t->children[0]->op, Op::PatRef)
                        << termToString(p);
                }
                for (const auto& c : t->children) {
                    check(c);
                }
            };
        check(p);
    }
}

}  // namespace
}  // namespace rii
}  // namespace isamore
