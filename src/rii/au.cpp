#include "rii/au.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "dsl/intern.hpp"
#include "egraph/extract.hpp"
#include "hls/estimator.hpp"
#include "rii/structhash.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/hashing.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry.hpp"

namespace isamore {
namespace rii {
namespace {

/** Key for memoizing AU over unordered class pairs. */
struct PairKey {
    EClassId a;
    EClassId b;
    bool operator==(const PairKey& o) const { return a == o.a && b == o.b; }
};
struct PairKeyHash {
    size_t
    operator()(const PairKey& k) const
    {
        return hashCombine(mix64(k.a), k.b);
    }
};

/**
 * Structural hash/equality for deduplicating canonical patterns.  With
 * the hash-consed term layer both are O(1): the hash is a cached field
 * and equality a pointer compare for interned terms.
 */
struct TermPtrHash {
    size_t
    operator()(const TermPtr& term) const
    {
        return static_cast<size_t>(term->hash);
    }
};
struct TermPtrEq {
    bool
    operator()(const TermPtr& a, const TermPtr& b) const
    {
        return termEquals(a, b);
    }
};

/**
 * Whether a candidate pattern is well formed: App nodes must carry a
 * concrete PatRef head (anti-unifying two different patterns' App nodes
 * can produce a hole in head position, which is not an instruction).
 */
bool
patternWellFormed(const TermPtr& term, bool isAppHead = false)
{
    if (term->op == Op::PatRef) {
        return isAppHead;
    }
    if (term->op == Op::App) {
        if (term->children.empty() ||
            !patternWellFormed(term->children[0], true)) {
            return false;
        }
        for (size_t i = 1; i < term->children.size(); ++i) {
            if (!patternWellFormed(term->children[i])) {
                return false;
            }
        }
        return true;
    }
    for (const auto& child : term->children) {
        if (!patternWellFormed(child)) {
            return false;
        }
    }
    return true;
}

/** Admissible-pair selection (the filters of paper §5.2). */
class PairSelector {
 public:
    PairSelector(const EGraph& egraph, const AuOptions& options)
        : egraph_(egraph), options_(options)
    {
        ids_ = egraph.classIds();
        if (options_.typeFilter) {
            types_ = computeClassTypes(egraph_);
        }
        if (options_.hashFilter) {
            hashes_ = computeStructHashes(egraph_);
        }
    }

    size_t pairsConsidered() const { return pairsConsidered_; }

    std::vector<std::pair<EClassId, EClassId>>
    select()
    {
        std::vector<std::pair<EClassId, EClassId>> pairs;
        auto push = [&](EClassId a, EClassId b) {
            if (pairs.size() < options_.maxPairs && pairAdmissible(a, b)) {
                pairs.emplace_back(a, b);
            }
        };

        if (!options_.hashFilter ||
            ids_.size() <= options_.quadraticPairLimit) {
            for (size_t i = 0; i < ids_.size(); ++i) {
                for (size_t j = i + 1; j < ids_.size(); ++j) {
                    if (pairs.size() >= options_.maxPairs) {
                        return pairs;
                    }
                    push(ids_[i], ids_[j]);
                }
            }
            return pairs;
        }

        // Banding for large graphs: sort by structural hash and compare
        // each class with a window of hash neighbours (exact-duplicate
        // buckets are contiguous and always fully paired).
        std::vector<EClassId> order = ids_;
        std::sort(order.begin(), order.end(),
                  [&](EClassId x, EClassId y) {
                      return hashes_.at(x) < hashes_.at(y);
                  });
        for (size_t i = 0; i < order.size(); ++i) {
            const size_t end =
                std::min(order.size(), i + 1 + options_.bandingWindow);
            for (size_t j = i + 1; j < end; ++j) {
                if (pairs.size() >= options_.maxPairs) {
                    return pairs;
                }
                push(order[i], order[j]);
            }
        }
        return pairs;
    }

 private:
    bool
    pairAdmissible(EClassId a, EClassId b)
    {
        ++pairsConsidered_;
        if (leafOnly(a) || leafOnly(b)) {
            return false;
        }
        if (options_.typeFilter) {
            Type ta = types_.at(a);
            Type tb = types_.at(b);
            if (ta.isBottom() || tb.isBottom() || ta != tb) {
                return false;
            }
        }
        if (options_.hashFilter &&
            structDistance(hashes_.at(a), hashes_.at(b)) >
                options_.hammingThreshold) {
            return false;
        }
        return true;
    }

    bool
    leafOnly(EClassId id)
    {
        for (const ENode& n : egraph_.cls(id).nodes) {
            if (!n.isLeaf()) {
                return false;
            }
        }
        return true;
    }

    const EGraph& egraph_;
    const AuOptions& options_;
    std::vector<EClassId> ids_;
    ClassMap<Type> types_;
    ClassMap<uint64_t> hashes_;
    size_t pairsConsidered_ = 0;
};

/**
 * The anti-unification engine for one sweep over the admissible pairs.
 *
 * One memo, one hole namespace, one cycle-breaking set and one child
 * Budget serve the whole sweep, which walks the pairs in selectAuPairs
 * order, deduplicates inline and stops at the result-pattern cap -- the
 * smart AU of paper section 5.2.  The sweep is serial, so its output is
 * deterministic by construction; canonicalizeHolesUninterned() renumbers
 * every emitted pattern's holes by first occurrence, so the sweep-wide
 * hole namespace never shows in the output.
 */
class AuSweep {
 public:
    AuSweep(const EGraph& egraph, const AuOptions& options,
            const ClassMap<TermPtr>& reprs, Budget* parent)
        : egraph_(egraph), options_(options), reprs_(reprs),
          budget_(sweepSpec(options), parent),
          pairLimited_(options.maxSecondsPerPair != kUnlimitedSeconds)
    {
        sweepLimited_ = budget_.remainingSeconds() != kUnlimitedSeconds;
    }

    /** Explore @p pairs in order, filling @p result (whose
     *  pairsConsidered the caller has already set). */
    void
    run(const std::vector<std::pair<EClassId, EClassId>>& pairs,
        AuResult& result)
    {
        AuStats& stats = result.stats;
        std::unordered_set<TermPtr, TermPtrHash, TermPtrEq> seen;
        for (const auto& [a, b] : pairs) {
            if (result.patterns.size() >= options_.maxResultPatterns) {
                break;
            }
            if (aborted_) {
                // The candidate budget blew mid-enumeration.  That cap is
                // experiment policy (the LLMT baseline exceeds it by
                // design), so the pairs never reached are not counted as
                // skipped work: `aborted` already tells the whole story.
                break;
            }
            if (fault::tripped("au.sweep") || !budget_.ok()) {
                stats.timedOut = true;
                stats.skippedPairs += pairs.size() - stats.pairsExplored;
                break;
            }
            ++stats.pairsExplored;
            pairTripped_ = false;
            if (pairLimited_) {
                pairWatch_.reset();
            }
            if (fault::tripped("au.pair")) {
                ++stats.skippedPairs;
                continue;
            }
            // Per-pair skip-and-record: a pair that overruns its budget
            // or faults is dropped whole and the sweep moves on.
            std::vector<TermPtr> produced;
            try {
                produced = au(a, b, options_.maxDepth);
            } catch (const InternalError&) {
                inProgress_.clear();
                ++stats.skippedPairs;
                continue;
            } catch (const std::bad_alloc&) {
                inProgress_.clear();
                ++stats.skippedPairs;
                continue;
            }
            if (pairTripped_) {
                ++stats.skippedPairs;
                continue;
            }
            for (const TermPtr& p : produced) {
                if (termOpCount(p) < options_.minOps ||
                    !p->hasHole || p->op == Op::List ||
                    !patternWellFormed(p)) {
                    continue;
                }
                // The uninterned renaming keeps the candidate's node
                // topology, which the registry's scheduling view (and
                // through it, pattern hardware costs) depends on; the
                // registry interns the canonical identity itself.
                TermPtr canon = canonicalizeHolesUninterned(p);
                if (seen.insert(canon).second) {
                    result.patterns.push_back(std::move(canon));
                    if (result.patterns.size() >=
                        options_.maxResultPatterns) {
                        break;
                    }
                }
            }
        }
        stats.rawCandidates = rawCount_;
        stats.memoHits = memoHits_;
        stats.memoMisses = memoMisses_;
        stats.aborted = aborted_;
    }

 private:
    /**
     * The fresh variable shared by every occurrence of the *ordered*
     * (left, right) class pair.  Ordering matters for least-general-
     * generalization soundness: an AU variable stands for the
     * substitution (left-term, right-term); conflating (u, v) with
     * (v, u) would force one class to contain both sides' structure and
     * produce patterns that match nothing.
     */
    TermPtr
    holeFor(EClassId a, EClassId b)
    {
        PairKey key{egraph_.find(a), egraph_.find(b)};
        auto it = pairHole_.find(key);
        if (it == pairHole_.end()) {
            it = pairHole_.emplace(key, nextHole_++).first;
        }
        return hole(it->second);
    }

    /** sweep budget: deadline from options.maxSeconds (clamped to the
     *  parent's) + one consumable unit per raw candidate. */
    static BudgetSpec
    sweepSpec(const AuOptions& options)
    {
        BudgetSpec spec;
        spec.maxSeconds = options.maxSeconds;
        spec.maxUnits = options.maxCandidates;
        return spec;
    }

    std::vector<TermPtr>
    au(EClassId a, EClassId b, int depth)
    {
        a = egraph_.find(a);
        b = egraph_.find(b);
        // Per-pair and sweep deadlines are polled on every recursion
        // step, but only when one is actually set (both reads are free
        // in the default unlimited configuration).
        if (pairLimited_ && !pairTripped_ &&
            pairWatch_.seconds() > options_.maxSecondsPerPair) {
            pairTripped_ = true;
        }
        if (sweepLimited_ && !pairTripped_ && !budget_.ok()) {
            pairTripped_ = true;
        }
        if (depth <= 0 || aborted_ || pairTripped_) {
            return {holeFor(a, b)};
        }
        if (a == b) {
            auto repr = reprs_.find(a);
            if (repr != reprs_.end()) {
                return {repr->second, holeFor(a, b)};
            }
            return {holeFor(a, b)};
        }
        PairKey key{a, b};
        auto memo = memo_.find(key);
        if (memo != memo_.end()) {
            ++memoHits_;
            return memo->second;
        }
        ++memoMisses_;
        // Break cycles through in-progress pairs with the pair hole.  The
        // set stores the keys themselves: a hash collision here must not
        // make an unrelated pair look in-progress and silently degrade it
        // to a bare hole.
        if (!inProgress_.insert(key).second) {
            return {holeFor(a, b)};
        }

        std::vector<TermPtr> out{holeFor(a, b)};
        for (const ENode& na : egraph_.cls(a).nodes) {
            if (aborted_) {
                break;
            }
            for (const ENode& nb : egraph_.cls(b).nodes) {
                if (na.op != nb.op || na.payload != nb.payload ||
                    na.children.size() != nb.children.size() ||
                    na.isLeaf()) {
                    continue;
                }
                appendNodeAu(na, nb, depth, out);
                if (aborted_) {
                    break;
                }
            }
        }
        out = samplePatterns(std::move(out));
        inProgress_.erase(key);
        // A tripped pair produced degenerate (hole-heavy) results; do not
        // memoize them, so later pairs recompute this subproblem cleanly.
        if (!pairTripped_) {
            memo_.emplace(key, out);
        }
        return out;
    }

    /** AU over one matching e-node pair: sampled Cartesian product of the
     *  child AU sets appended to @p out. */
    void
    appendNodeAu(const ENode& na, const ENode& nb, int depth,
                 std::vector<TermPtr>& out)
    {
        const size_t arity = na.children.size();
        std::vector<std::vector<TermPtr>> childSets(arity);
        std::vector<std::pair<double, TermPtr>> keyed;
        for (size_t i = 0; i < arity; ++i) {
            childSets[i] = au(na.children[i], nb.children[i], depth - 1);
            if (childSets[i].empty()) {
                childSets[i].push_back(
                    holeFor(na.children[i], nb.children[i]));
            }
            // Cheapest (most general) child patterns first, so the capped
            // product enumeration visits concise generalizations before
            // the deep specialized ones.  Each feature (a full estimator
            // walk) is computed once, not once per comparison; sorting
            // the keys with the same `<` yields the same permutation.
            keyed.clear();
            for (TermPtr& term : childSets[i]) {
                keyed.emplace_back(hls::patternFeature(term),
                                   std::move(term));
            }
            std::sort(keyed.begin(), keyed.end(),
                      [](const auto& x, const auto& y) {
                          return x.first < y.first;
                      });
            for (size_t k = 0; k < keyed.size(); ++k) {
                childSets[i][k] = std::move(keyed[k].second);
            }
        }

        // Enumerate the product with a per-node cap (sampling later
        // shrinks further; Exhaustive mode uses a high cap and relies on
        // the global budget to reproduce the blowup).
        const size_t productCap =
            options_.sampling == Sampling::Exhaustive ? 4096 : 64;
        if (options_.sampling != Sampling::Exhaustive) {
            // Balance the product: cap each child set at the arity-th
            // root of the budget so every child position contributes
            // (a lopsided first set would otherwise monopolize the cap).
            size_t perChild = productCap;
            if (arity == 2) {
                perChild = 8;
            } else if (arity >= 3) {
                perChild = 4;
            }
            for (auto& set : childSets) {
                if (set.size() > perChild) {
                    set.resize(perChild);
                }
            }
        }
        std::vector<size_t> index(arity, 0);
        size_t produced = 0;
        while (true) {
            std::vector<TermPtr> children(arity);
            for (size_t i = 0; i < arity; ++i) {
                children[i] = childSets[i][index[i]];
            }
            // Candidates stay uninterned inside the sweep: the feature
            // model counts hardware per distinct pointer, so candidate
            // topology (fresh node per product element over memo-shared
            // children) is part of sampling's observable behaviour.
            // Survivors are canonicalized and interned at the registry.
            out.push_back(makeTermUninterned(na.op, na.payload,
                                             std::move(children)));
            ++rawCount_;
            if (fault::tripped("au.candidate") ||
                !budget_.charge(1)) {
                aborted_ = true;
                return;
            }
            if (++produced >= productCap) {
                return;
            }
            // Advance the mixed-radix counter.
            size_t pos = 0;
            while (pos < arity && ++index[pos] == childSets[pos].size()) {
                index[pos] = 0;
                ++pos;
            }
            if (pos == arity) {
                return;
            }
        }
    }

    /** Apply the configured sampling strategy at the class-pair level. */
    std::vector<TermPtr>
    samplePatterns(std::vector<TermPtr> patterns)
    {
        if (options_.sampling == Sampling::Exhaustive ||
            patterns.size() <= options_.maxPatternsPerPair) {
            return patterns;
        }
        std::vector<double> features(patterns.size());
        for (size_t i = 0; i < patterns.size(); ++i) {
            features[i] = hls::patternFeature(patterns[i]);
        }

        std::vector<TermPtr> kept;
        if (options_.sampling == Sampling::Boundary) {
            // Keep extreme patterns by feature until the cap: repeatedly
            // take the current min and max.
            std::vector<size_t> order(patterns.size());
            for (size_t i = 0; i < order.size(); ++i) {
                order[i] = i;
            }
            std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
                return features[x] < features[y];
            });
            size_t lo = 0;
            size_t hi = order.size();
            while (kept.size() < options_.maxPatternsPerPair && lo < hi) {
                kept.push_back(patterns[order[lo++]]);
                if (kept.size() < options_.maxPatternsPerPair && lo < hi) {
                    kept.push_back(patterns[order[--hi]]);
                }
            }
            return kept;
        }

        // KdTree: recursively median-split on child features, then take
        // beta evenly spaced patterns per cell by the scalar feature.
        struct Entry {
            size_t idx;
            std::vector<double> coords;
        };
        std::vector<Entry> entries;
        entries.reserve(patterns.size());
        for (size_t i = 0; i < patterns.size(); ++i) {
            Entry e;
            e.idx = i;
            for (const TermPtr& child : patterns[i]->children) {
                e.coords.push_back(hls::patternFeature(child));
            }
            e.coords.resize(static_cast<size_t>(options_.kdDims), 0.0);
            entries.push_back(std::move(e));
        }

        std::vector<std::vector<Entry>> cells{entries};
        for (int d = 0; d < options_.kdDims; ++d) {
            std::vector<std::vector<Entry>> next;
            for (auto& cell : cells) {
                if (cell.size() <= 1) {
                    next.push_back(std::move(cell));
                    continue;
                }
                std::sort(cell.begin(), cell.end(),
                          [&](const Entry& x, const Entry& y) {
                              return x.coords[d] < y.coords[d];
                          });
                size_t mid = cell.size() / 2;
                next.emplace_back(cell.begin(), cell.begin() + mid);
                next.emplace_back(cell.begin() + mid, cell.end());
            }
            cells = std::move(next);
        }
        for (auto& cell : cells) {
            if (cell.empty()) {
                continue;
            }
            std::sort(cell.begin(), cell.end(),
                      [&](const Entry& x, const Entry& y) {
                          return features[x.idx] < features[y.idx];
                      });
            const size_t beta = static_cast<size_t>(options_.kdBeta);
            for (size_t k = 0; k < beta && k < cell.size(); ++k) {
                size_t pick = cell.size() == 1
                                  ? 0
                                  : k * (cell.size() - 1) /
                                        std::max<size_t>(1, beta - 1);
                kept.push_back(patterns[cell[pick].idx]);
            }
        }
        return kept;
    }

    const EGraph& egraph_;
    const AuOptions& options_;
    const ClassMap<TermPtr>& reprs_;
    Budget budget_;
    bool pairLimited_ = false;
    bool sweepLimited_ = false;
    bool pairTripped_ = false;
    Stopwatch pairWatch_;
    std::unordered_map<PairKey, std::vector<TermPtr>, PairKeyHash> memo_;
    std::unordered_map<PairKey, int64_t, PairKeyHash> pairHole_;
    std::unordered_set<PairKey, PairKeyHash> inProgress_;
    int64_t nextHole_ = 0;
    size_t rawCount_ = 0;
    size_t memoHits_ = 0;
    size_t memoMisses_ = 0;
    bool aborted_ = false;
};

}  // namespace

std::vector<std::pair<EClassId, EClassId>>
selectAuPairs(const EGraph& egraph, const AuOptions& options,
              AuStats* stats)
{
    PairSelector selector(egraph, options);
    auto pairs = selector.select();
    if (stats != nullptr) {
        stats->pairsConsidered = selector.pairsConsidered();
    }
    return pairs;
}

AuResult
identifyPatterns(const EGraph& egraph, const AuOptions& options,
                 Budget* budget)
{
    TELEM_SPAN("au.sweep", "au");
    AuResult result;
    const auto pairs = selectAuPairs(egraph, options, &result.stats);

    // Small representative terms (for AU(a, a)).  Each rep is a private
    // uninterned DAG: the pointer-counted feature model must not see
    // sharing across extraction roots (see copyTopologyUninterned in
    // dsl/intern.hpp).
    ClassMap<TermPtr> reprs;
    {
        TELEM_SPAN("au.reprs", "au");
        Extractor extractor(egraph, astSizeCost);
        for (EClassId id : egraph.classIds()) {
            if (auto cost = extractor.costOf(id);
                cost.has_value() && *cost <= 12.0) {
                reprs[id] =
                    copyTopologyUninterned(extractor.extract(id).term);
            }
        }
    }
    AuSweep(egraph, options, reprs, budget).run(pairs, result);

    if (telemetry::enabled()) {
        const AuStats& stats = result.stats;
        auto& registry = telemetry::Registry::instance();
        std::ostringstream rec;
        rec << "{\"pairs\": " << pairs.size()
            << ", \"pairs_explored\": " << stats.pairsExplored
            << ", \"raw_candidates\": " << stats.rawCandidates
            << ", \"memo_hits\": " << stats.memoHits
            << ", \"memo_misses\": " << stats.memoMisses
            << ", \"patterns\": " << result.patterns.size()
            << ", \"skipped\": " << stats.skippedPairs
            << ", \"stopped\": " << (stats.timedOut ? "true" : "false")
            << ", \"aborted\": " << (stats.aborted ? "true" : "false")
            << "}";
        registry.appendRecord("au.sweeps", rec.str());
        registry.counter("au.pairs_explored").add(stats.pairsExplored);
        registry.counter("au.raw_candidates").add(stats.rawCandidates);
        registry.counter("au.memo_hits").add(stats.memoHits);
        registry.counter("au.memo_misses").add(stats.memoMisses);
    }
    return result;
}

}  // namespace rii
}  // namespace isamore
