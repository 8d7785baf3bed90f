#include "egraph/extract.hpp"

#include <unordered_set>

#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace isamore {

double
astSizeCost(const ENode& /*node*/, const std::vector<double>& childCosts)
{
    double total = 1.0;
    for (double c : childCosts) {
        total += c;
    }
    return total;
}

Extractor::Extractor(const EGraph& egraph, CostFn costFn)
    : egraph_(egraph), costFn_(std::move(costFn))
{
    ISAMORE_USER_CHECK(!egraph_.needsRebuild(),
                       "extract requires a rebuilt e-graph");

    // Greedy relaxation to a fixpoint, driven by a parent worklist instead
    // of repeated whole-graph sweeps.  Cost functions must strictly
    // increase along edges (>= max(child) + epsilon) so cyclic choices can
    // never beat ground ones.
    //
    // The evolution of bestCost_/bestNode_ — including which node wins an
    // epsilon-tie — is identical to the classic "ascending sweep until no
    // change" loop: a sweep's visit to a class only does anything when a
    // child's cost changed since the class was last evaluated, and in that
    // case the class is a parent of the improved child and sits in the
    // worklist.  A parent above the improved class re-evaluates within the
    // current ascending pass (as the sweep would), one at or below it
    // waits for the next pass.
    TELEM_SPAN("extract.relax", "extract");
    bestCost_.assign(egraph_.numIds(), 0.0);
    bestNode_.assign(egraph_.numIds(), nullptr);
    uint64_t evals = 0;
    uint64_t improvements = 0;
    std::vector<double> childCosts;  // scratch shared by all evaluations
    auto evaluate = [&](EClassId id) {
        ++evals;
        bool improved = false;
        for (const ENode& node : egraph_.cls(id).nodes) {
            childCosts.clear();
            bool feasible = true;
            for (EClassId child : node.children) {
                const EClassId c = egraph_.find(child);
                if (bestNode_[c] == nullptr) {
                    feasible = false;
                    break;
                }
                childCosts.push_back(bestCost_[c]);
            }
            if (!feasible) {
                continue;
            }
            const double cost = costFn_(node, childCosts);
            if (bestNode_[id] == nullptr || cost < bestCost_[id] - 1e-12) {
                bestCost_[id] = cost;
                bestNode_[id] = &node;
                improved = true;
                ++improvements;
            }
        }
        return improved;
    };

    // Only classes holding a leaf node can become extractable unprompted;
    // everything else activates when a child first gets a cost.
    PassWorklist worklist(egraph_.numIds());
    for (EClassId id : egraph_.classIds()) {
        for (const ENode& node : egraph_.cls(id).nodes) {
            if (node.children.empty()) {
                worklist.seed(id);
                break;
            }
        }
    }
    do {
        EClassId id = 0;
        while (worklist.pop(id)) {
            if (!evaluate(id)) {
                continue;
            }
            for (const auto& use : egraph_.cls(id).parents) {
                worklist.push(egraph_.find(use.second), id);
            }
        }
    } while (worklist.nextPass());
    if (telemetry::enabled()) {
        auto& registry = telemetry::Registry::instance();
        registry.counter("extract.evals").add(evals);
        registry.counter("extract.improvements").add(improvements);
    }
}

std::optional<double>
Extractor::costOf(EClassId klass) const
{
    klass = egraph_.find(klass);
    if (bestNode_[klass] == nullptr) {
        return std::nullopt;
    }
    return bestCost_[klass];
}

const ENode*
Extractor::chosenNode(EClassId klass) const
{
    return bestNode_[egraph_.find(klass)];
}

namespace {

TermPtr
materialize(const EGraph& egraph,
            const std::vector<const ENode*>& bestNode,
            EClassId klass, std::unordered_map<EClassId, TermPtr>& memo,
            std::unordered_set<EClassId>& inProgress)
{
    klass = egraph.find(klass);
    auto memoized = memo.find(klass);
    if (memoized != memo.end()) {
        return memoized->second;
    }
    ISAMORE_CHECK_MSG(inProgress.insert(klass).second,
                      "cyclic extraction choice; cost function must "
                      "strictly increase along edges");
    ISAMORE_CHECK_MSG(bestNode[klass] != nullptr,
                      "class has no extractable ground term");
    const ENode& node = *bestNode[klass];
    std::vector<TermPtr> children;
    children.reserve(node.children.size());
    for (EClassId child : node.children) {
        children.push_back(
            materialize(egraph, bestNode, child, memo, inProgress));
    }
    TermPtr term = makeTerm(node.op, node.payload, std::move(children));
    inProgress.erase(klass);
    memo.emplace(klass, term);
    return term;
}

}  // namespace

Extraction
Extractor::extract(EClassId root) const
{
    if (telemetry::enabled()) {
        telemetry::Registry::instance().counter("extract.terms").add();
    }
    root = egraph_.find(root);
    auto cost = costOf(root);
    ISAMORE_CHECK_MSG(cost.has_value(), "root class is not extractable");
    std::unordered_set<EClassId> inProgress;
    Extraction out;
    out.term = materialize(egraph_, bestNode_, root, termMemo_, inProgress);
    out.cost = *cost;
    return out;
}

}  // namespace isamore
