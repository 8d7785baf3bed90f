/**
 * @file
 * Cost-based term extraction from an e-graph.
 *
 * A greedy bottom-up extractor: given a cost function over e-nodes (whose
 * value may depend on the chosen children's costs), it relaxes per-class
 * best costs to a fixpoint and then materializes the cheapest term for any
 * root.  Cycles are handled naturally: a class is only extractable once at
 * least one of its nodes has all children extractable.
 *
 * Used by RII for: AstSize extraction, latency-saving extraction (§5.4.3),
 * and the DLP-favoring extraction inside acyclic pruning (§5.3).
 */
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "egraph/egraph.hpp"

namespace isamore {

/**
 * Cost of selecting @p node given the best costs of its (canonical)
 * children.  Must be >= max(childCosts) for termination of the greedy
 * relaxation (monotone cost functions).
 */
using CostFn =
    std::function<double(const ENode& node,
                         const std::vector<double>& childCosts)>;

/** The standard term-size cost (1 + sum of children). */
double astSizeCost(const ENode& node, const std::vector<double>& childCosts);

/**
 * The worklist of an ascending-sweep fixpoint over e-classes (the
 * Extractor's relaxation, selection's front propagation).  Each pass pops
 * its queued classes in ascending id order; a parent queued while class
 * `from` is being processed joins this pass when its id is above `from`
 * (the sweep has not reached it yet), otherwise the next pass.  This is
 * two ascending `std::set`s, kept as min-heaps with queued flags so a
 * push allocates nothing.
 */
class PassWorklist {
 public:
    explicit PassWorklist(size_t numIds)
        : current_{{}, std::vector<char>(numIds, 0)},
          next_{{}, std::vector<char>(numIds, 0)}
    {}

    /** Queue @p id in the current pass (seeding, before any pop). */
    void seed(EClassId id) { current_.push(id); }

    /** Queue @p parent of class @p from, which was just popped. */
    void
    push(EClassId parent, EClassId from)
    {
        (parent > from ? current_ : next_).push(parent);
    }

    /** Pop the smallest queued id of the current pass into @p id. */
    bool
    pop(EClassId& id)
    {
        if (current_.heap.empty()) {
            return false;
        }
        std::pop_heap(current_.heap.begin(), current_.heap.end(),
                      std::greater<>());
        id = current_.heap.back();
        current_.heap.pop_back();
        current_.queued[id] = 0;
        return true;
    }

    /** Start the next pass (the current one must be drained); false
     *  when nothing is queued for it. */
    bool
    nextPass()
    {
        std::swap(current_, next_);
        return !current_.heap.empty();
    }

 private:
    struct Pass {
        std::vector<EClassId> heap;  ///< min-heap of queued ids
        std::vector<char> queued;    ///< per id: in heap

        void
        push(EClassId id)
        {
            if (queued[id] == 0) {
                queued[id] = 1;
                heap.push_back(id);
                std::push_heap(heap.begin(), heap.end(), std::greater<>());
            }
        }
    };
    Pass current_;
    Pass next_;
};

/** Extraction result for one root. */
struct Extraction {
    TermPtr term;
    double cost = 0.0;
};

/** Greedy bottom-up extractor over a (rebuilt) e-graph. */
class Extractor {
 public:
    /** Computes best costs for all classes immediately. */
    Extractor(const EGraph& egraph, CostFn costFn);

    /** Best cost of @p klass, if any ground term exists. */
    std::optional<double> costOf(EClassId klass) const;

    /** Best e-node chosen for @p klass, if extractable.  The pointer is
     *  into the e-graph's own node storage: it stays valid until the
     *  graph is next mutated. */
    const ENode* chosenNode(EClassId klass) const;

    /** Materialize the best term for @p root.
     *  @throws InternalError if the class is not extractable. */
    Extraction extract(EClassId root) const;

 private:
    const EGraph& egraph_;
    CostFn costFn_;
    /** Dense per-id tables (size numIds()); a class is extractable iff
     *  its bestNode_ entry is set, and only canonical ids are filled. */
    std::vector<double> bestCost_;
    std::vector<const ENode*> bestNode_;
    /**
     * Materialized term per class, shared across extract() calls: the
     * chosen node per class is fixed at construction, so a class always
     * materializes to the same (hash-consed) term.  Extracting n roots
     * over a shared subgraph then costs O(subgraph) once, not per root.
     */
    mutable std::unordered_map<EClassId, TermPtr> termMemo_;
};

}  // namespace isamore
