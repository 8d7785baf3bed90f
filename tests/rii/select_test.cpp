#include "rii/select.hpp"

#include <gtest/gtest.h>

#include "isamore/isamore.hpp"
#include "rii/au.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

namespace isamore {
namespace rii {
namespace {

/** Shared fixture: matmul analyzed, candidates costed, apps inserted. */
struct Fixture {
    AnalyzedWorkload analyzed;
    frontend::EncodedProgram work;
    PatternRegistry registry;
    std::unique_ptr<CostModel> cost;
    std::vector<PatternEval> candidates;

    Fixture()
        : analyzed(analyzeWorkload(workloads::makeMatMul())),
          work(analyzed.program)
    {
        cost = std::make_unique<CostModel>(analyzed.program,
                                           analyzed.profile, registry,
                                           0.5);
        auto au = identifyPatterns(work.egraph, AuOptions{});
        for (const TermPtr& p : au.patterns) {
            int64_t id = registry.add(p);
            PatternEval eval = cost->evaluate(id, work.egraph);
            if (eval.deltaNs > 0 && candidates.size() < 16) {
                candidates.push_back(std::move(eval));
            }
        }
        std::vector<int64_t> ids;
        for (const auto& c : candidates) {
            ids.push_back(c.id);
        }
        runEqSat(work.egraph, registry.applicationRules(ids));
    }
};

Fixture&
fixture()
{
    static Fixture f;
    return f;
}

TEST(SelectTest, ProducesSolutionsWithApps)
{
    Fixture& f = fixture();
    ASSERT_FALSE(f.candidates.empty());
    auto solutions = selectAndRefine(f.work.egraph, f.work.root,
                                     f.candidates, *f.cost,
                                     SelectOptions{});
    ASSERT_GE(solutions.size(), 2u);
    // The non-trivial ones carry patterns and programs.
    bool found = false;
    for (const Solution& s : solutions) {
        if (!s.patternIds.empty()) {
            found = true;
            EXPECT_GT(s.speedup, 1.0);
            EXPECT_GT(s.areaUm2, 0.0);
            ASSERT_NE(s.program, nullptr);
        }
    }
    EXPECT_TRUE(found);
}

TEST(SelectTest, ExtractedProgramContainsChosenApps)
{
    Fixture& f = fixture();
    auto solutions = selectAndRefine(f.work.egraph, f.work.root,
                                     f.candidates, *f.cost,
                                     SelectOptions{});
    for (const Solution& s : solutions) {
        if (s.patternIds.empty()) {
            continue;
        }
        // Walk the program and collect the App pattern ids used.
        std::set<int64_t> used;
        std::function<void(const TermPtr&)> walk =
            [&](const TermPtr& t) {
                if (t->op == Op::App &&
                    t->children[0]->op == Op::PatRef) {
                    used.insert(t->children[0]->payload.a);
                }
                for (const auto& c : t->children) {
                    walk(c);
                }
            };
        walk(s.program);
        for (int64_t id : s.patternIds) {
            EXPECT_TRUE(used.count(id)) << "solution lists ci" << id
                                        << " but the program lacks it";
        }
        // No unlisted Apps either.
        for (int64_t id : used) {
            EXPECT_NE(std::find(s.patternIds.begin(), s.patternIds.end(),
                                id),
                      s.patternIds.end());
        }
    }
}

TEST(SelectTest, ParetoFilterRemovesDominated)
{
    auto make = [](double sp, double area) {
        Solution s;
        s.speedup = sp;
        s.areaUm2 = area;
        return s;
    };
    auto filtered = paretoFilter(
        {make(1.0, 0), make(1.5, 100), make(1.4, 200),  // dominated
         make(2.0, 300), make(1.9, 400)});              // dominated
    ASSERT_EQ(filtered.size(), 3u);
    EXPECT_DOUBLE_EQ(filtered[0].speedup, 1.0);
    EXPECT_DOUBLE_EQ(filtered[1].speedup, 1.5);
    EXPECT_DOUBLE_EQ(filtered[2].speedup, 2.0);
}

TEST(SelectTest, BeamWidthBoundsFrontSize)
{
    Fixture& f = fixture();
    SelectOptions narrow;
    narrow.beamK = 2;
    auto solutions = selectAndRefine(f.work.egraph, f.work.root,
                                     f.candidates, *f.cost, narrow);
    EXPECT_LE(solutions.size(), 3u);  // beam + empty solution
}

TEST(SelectTest, AstSizeObjectiveSelectsDifferently)
{
    Fixture& f = fixture();
    SelectOptions hw;
    SelectOptions ast;
    ast.astSizeObjective = true;
    auto a = selectAndRefine(f.work.egraph, f.work.root, f.candidates,
                             *f.cost, hw);
    auto b = selectAndRefine(f.work.egraph, f.work.root, f.candidates,
                             *f.cost, ast);
    // Hardware-aware selection should be competitive with AstSize; the
    // per-class beam is an approximation, so allow slack here (the full
    // multi-phase comparison lives in rii_test.cpp).
    double bestA = 1.0;
    double bestB = 1.0;
    for (const auto& s : a) {
        bestA = std::max(bestA, s.speedup);
    }
    for (const auto& s : b) {
        bestB = std::max(bestB, s.speedup);
    }
    EXPECT_GE(bestA, bestB * 0.8);
}

// --- worklist front fixpoint vs full-sweep oracle --------------------

using detail::Mask;

/** The pre-worklist front pruner: rescores masks inside the comparator. */
std::vector<Mask>
naivePrune(std::vector<Mask> masks, const std::vector<double>& delta,
           const std::vector<double>& area, size_t beamK)
{
    auto sumOf = [](const std::vector<double>& table, Mask m) {
        double total = 0;
        while (m != 0) {
            total += table[__builtin_ctzll(m)];
            m &= m - 1;
        }
        return total;
    };
    std::sort(masks.begin(), masks.end());
    masks.erase(std::unique(masks.begin(), masks.end()), masks.end());
    std::sort(masks.begin(), masks.end(), [&](Mask x, Mask y) {
        double dx = sumOf(delta, x);
        double dy = sumOf(delta, y);
        if (dx != dy) {
            return dx > dy;
        }
        return sumOf(area, x) < sumOf(area, y);
    });
    std::vector<Mask> kept;
    double bestArea = std::numeric_limits<double>::infinity();
    for (Mask m : masks) {
        double a = sumOf(area, m);
        if (a < bestArea || kept.empty()) {
            kept.push_back(m);
            bestArea = std::min(bestArea, a);
        }
        if (kept.size() >= beamK) {
            break;
        }
    }
    return kept;
}

/** The pre-worklist fixpoint: ascending sweeps over every class. */
detail::Fronts
naivePropagate(const EGraph& egraph,
               const std::vector<PatternEval>& candidates,
               const SelectOptions& options)
{
    std::unordered_map<int64_t, int> bitOf;
    std::vector<double> delta(candidates.size());
    std::vector<double> area(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
        bitOf[candidates[i].id] = static_cast<int>(i);
        area[i] = candidates[i].hw.areaUm2;
        delta[i] = options.astSizeObjective
                       ? static_cast<double>(candidates[i].uses.size()) *
                             (static_cast<double>(candidates[i].opCount) -
                              1.0)
                       : candidates[i].deltaNs;
    }
    auto prune = [&](std::vector<Mask> masks) {
        return naivePrune(std::move(masks), delta, area, options.beamK);
    };
    auto patternOf = [&](const ENode& node) -> int64_t {
        if (node.op != Op::App || node.children.empty()) {
            return -1;
        }
        for (const ENode& child :
             egraph.cls(egraph.find(node.children[0])).nodes) {
            if (child.op == Op::PatRef) {
                return child.payload.a;
            }
        }
        return -1;
    };

    detail::Fronts out;
    std::unordered_map<EClassId, std::vector<Mask>> fronts;
    for (int round = 0; round < options.maxRounds; ++round) {
        if (fault::tripped("select.round")) {
            out.truncated = true;
            break;
        }
        out.roundsRun = static_cast<size_t>(round) + 1;
        bool changed = false;
        for (EClassId id : egraph.classIds()) {
            std::vector<Mask> merged;
            for (const ENode& node : egraph.cls(id).nodes) {
                std::vector<Mask> nodeFront{0};
                bool ready = true;
                for (EClassId child : node.children) {
                    auto it = fronts.find(egraph.find(child));
                    if (it == fronts.end()) {
                        ready = false;
                        break;
                    }
                    std::vector<Mask> product;
                    for (Mask x : nodeFront) {
                        for (Mask y : it->second) {
                            product.push_back(x | y);
                        }
                    }
                    nodeFront = prune(std::move(product));
                }
                if (!ready) {
                    continue;
                }
                const int64_t pid = patternOf(node);
                if (pid >= 0) {
                    auto bit = bitOf.find(pid);
                    if (bit == bitOf.end()) {
                        continue;
                    }
                    for (Mask& m : nodeFront) {
                        m |= (1ull << bit->second);
                    }
                }
                merged.insert(merged.end(), nodeFront.begin(),
                              nodeFront.end());
            }
            if (merged.empty()) {
                continue;
            }
            auto pruned = prune(std::move(merged));
            auto& slot = fronts[id];
            if (slot != pruned) {
                slot = std::move(pruned);
                changed = true;
            }
        }
        if (!changed) {
            break;
        }
    }
    out.fronts.resize(egraph.numIds());
    for (auto& [id, front] : fronts) {
        out.fronts[id] = std::move(front);
    }
    return out;
}

/** Random leaf or binary/unary term over a small integer alphabet. */
TermPtr
randomTerm(Rng& rng, int depth)
{
    if (depth == 0 || rng.below(4) == 0) {
        return rng.below(2) == 0
                   ? arg(0, static_cast<int64_t>(rng.below(4)))
                   : lit(static_cast<int64_t>(rng.below(4)));
    }
    static const Op binary[] = {Op::Add, Op::Sub, Op::Mul, Op::And,
                                Op::Xor, Op::Min};
    if (rng.below(5) == 0) {
        return makeTerm(Op::Neg, {randomTerm(rng, depth - 1)});
    }
    return makeTerm(binary[rng.below(std::size(binary))],
                    {randomTerm(rng, depth - 1), randomTerm(rng, depth - 1)});
}

/**
 * Random e-graph with App nodes over pattern ids 0..7, each merged into a
 * random class: an App merged with one of its own arguments' ancestors
 * closes a cycle, as applied rewrites do in the pipeline.
 */
EGraph
randomSelectGraph(Rng& rng)
{
    EGraph g;
    for (int i = 0; i < 6; ++i) {
        g.addTerm(randomTerm(rng, 4));
    }
    for (int i = 0; i < 10; ++i) {
        const auto ids = g.classIds();
        std::vector<EClassId> children{
            g.addTerm(patRef(static_cast<int64_t>(rng.below(8))))};
        const size_t args = 1 + rng.below(2);
        for (size_t a = 0; a < args; ++a) {
            children.push_back(ids[rng.below(ids.size())]);
        }
        const EClassId app = g.add(ENode(Op::App, Payload{}, children));
        g.merge(app, ids[rng.below(ids.size())]);
        g.rebuild();
    }
    for (int i = 0; i < 3; ++i) {
        const auto ids = g.classIds();
        g.merge(ids[rng.below(ids.size())], ids[rng.below(ids.size())]);
        g.rebuild();
    }
    return g;
}

/** Candidates for pattern ids 0..5 (6 and 7 stay unknown).  Small
 *  integer savings and areas make score ties, which stress the order of
 *  the pruner's sort. */
std::vector<PatternEval>
randomCandidates(Rng& rng)
{
    std::vector<PatternEval> candidates;
    for (int64_t id = 0; id < 6; ++id) {
        PatternEval eval;
        eval.id = id;
        eval.deltaNs = static_cast<double>(rng.below(4));
        eval.hw.areaUm2 = static_cast<double>(rng.below(3));
        eval.opCount = 1 + rng.below(3);
        eval.uses.resize(rng.below(3));
        candidates.push_back(std::move(eval));
    }
    return candidates;
}

class SelectWorklist : public ::testing::TestWithParam<int> {};

// The worklist fixpoint must leave every class with the front the
// full-sweep loop computes, after the same number of rounds, also when
// maxRounds or an injected `select.round` trip cuts the loop short.
TEST_P(SelectWorklist, MatchesFullSweepOracle)
{
    Rng rng(8100 + static_cast<uint64_t>(GetParam()));
    const EGraph g = randomSelectGraph(rng);
    const std::vector<PatternEval> candidates = randomCandidates(rng);

    struct Variant {
        int maxRounds;
        const char* faults;
    };
    const Variant variants[] = {
        {64, ""},
        {1, ""},
        {2, ""},
        {3, ""},
        {64, "select.round=trip@2"},
        {64, "select.round=trip@3"},
    };
    // Guard against a trivial graph: some App must get selected, and the
    // fixpoint must take several rounds.
    bool selectedSome = false;
    size_t maxRoundsRun = 0;
    for (const Variant& v : variants) {
        for (size_t beamK : {2, 8}) {
            for (bool astSize : {false, true}) {
                SelectOptions options;
                options.maxRounds = v.maxRounds;
                options.beamK = beamK;
                options.astSizeObjective = astSize;
                const std::string what =
                    "maxRounds " + std::to_string(v.maxRounds) + " faults '" +
                    v.faults + "' beamK " + std::to_string(beamK) +
                    (astSize ? " astSize" : "");

                fault::Registry::instance().reset();
                fault::Registry::instance().configure(v.faults);
                const detail::Fronts want =
                    naivePropagate(g, candidates, options);
                fault::Registry::instance().reset();
                fault::Registry::instance().configure(v.faults);
                Budget budget;
                const detail::Fronts got =
                    detail::propagateFronts(g, candidates, options, budget);
                fault::Registry::instance().reset();

                EXPECT_EQ(want.roundsRun, got.roundsRun) << what;
                EXPECT_EQ(want.truncated, got.truncated) << what;
                ASSERT_EQ(want.fronts.size(), got.fronts.size()) << what;
                for (EClassId id : g.classIds()) {
                    EXPECT_EQ(want.fronts[id], got.fronts[id])
                        << what << ", class " << id;
                    for (Mask m : got.fronts[id]) {
                        selectedSome = selectedSome || m != 0;
                    }
                }
                maxRoundsRun = std::max(maxRoundsRun, got.roundsRun);
            }
        }
    }
    EXPECT_TRUE(selectedSome);
    EXPECT_GE(maxRoundsRun, 3u);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SelectWorklist,
                         ::testing::Range(0, 16));

}  // namespace
}  // namespace rii
}  // namespace isamore
