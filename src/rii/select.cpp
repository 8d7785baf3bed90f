#include "rii/select.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "egraph/extract.hpp"
#include "profile/timing.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/telemetry.hpp"

namespace isamore {
namespace rii {
namespace {

using detail::Mask;

/** Pattern id of an App e-node (via its PatRef child), or -1. */
int64_t
appPatternId(const EGraph& egraph, const ENode& node)
{
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
}

/** Front pruner: dedupe, drop dominated, keep the top K by saving. */
class FrontOps {
 public:
    FrontOps(const std::vector<double>& delta,
             const std::vector<double>& area, size_t beamK)
        : delta_(delta), area_(area), beamK_(beamK)
    {}

    double
    deltaOf(Mask m) const
    {
        double total = 0;
        while (m != 0) {
            int bit = __builtin_ctzll(m);
            total += delta_[bit];
            m &= m - 1;
        }
        return total;
    }

    double
    areaOf(Mask m) const
    {
        double total = 0;
        while (m != 0) {
            int bit = __builtin_ctzll(m);
            total += area_[bit];
            m &= m - 1;
        }
        return total;
    }

    std::vector<Mask>
    prune(std::vector<Mask> masks) const
    {
        std::sort(masks.begin(), masks.end());
        masks.erase(std::unique(masks.begin(), masks.end()), masks.end());
        // Score each mask once.  The sort below sees the same comparison
        // results as one that rescores inside the comparator, so it
        // produces the same permutation.
        struct Scored {
            double delta;
            double area;
            Mask mask;
        };
        std::vector<Scored> scored;
        scored.reserve(masks.size());
        for (Mask m : masks) {
            scored.push_back({deltaOf(m), areaOf(m), m});
        }
        // Sort by saving (descending), then area (ascending).
        std::sort(scored.begin(), scored.end(),
                  [](const Scored& x, const Scored& y) {
                      if (x.delta != y.delta) {
                          return x.delta > y.delta;
                      }
                      return x.area < y.area;
                  });
        // Non-dominated prefix scan: keep masks whose area is below every
        // better-saving mask's area.
        std::vector<Mask> kept;
        double best_area = std::numeric_limits<double>::infinity();
        for (const Scored& s : scored) {
            if (s.area < best_area || kept.empty()) {
                kept.push_back(s.mask);
                best_area = std::min(best_area, s.area);
            }
            if (kept.size() >= beamK_) {
                break;
            }
        }
        return kept;
    }

    /** Cartesian combine of two fronts with pruning. */
    std::vector<Mask>
    combine(const std::vector<Mask>& a, const std::vector<Mask>& b) const
    {
        std::vector<Mask> out;
        out.reserve(a.size() * b.size());
        for (Mask x : a) {
            for (Mask y : b) {
                out.push_back(x | y);
            }
        }
        return prune(std::move(out));
    }

 private:
    const std::vector<double>& delta_;
    const std::vector<double>& area_;
    size_t beamK_;
};

/** Bit index, saving and area of each candidate. */
struct BitTables {
    std::unordered_map<int64_t, int> bitOf;
    std::vector<double> delta;
    std::vector<double> area;
};

BitTables
bitTables(const std::vector<PatternEval>& candidates,
          const SelectOptions& options)
{
    ISAMORE_USER_CHECK(candidates.size() <= 64,
                       "selection supports at most 64 candidates");
    BitTables bits;
    bits.delta.resize(candidates.size());
    bits.area.resize(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
        bits.bitOf[candidates[i].id] = static_cast<int>(i);
        bits.area[i] = candidates[i].hw.areaUm2;
        bits.delta[i] =
            options.astSizeObjective
                ? static_cast<double>(candidates[i].uses.size()) *
                      (static_cast<double>(candidates[i].opCount) - 1.0)
                : candidates[i].deltaNs;
    }
    return bits;
}

}  // namespace

namespace detail {

Fronts
propagateFronts(const EGraph& egraph,
                const std::vector<PatternEval>& candidates,
                const SelectOptions& options, Budget& budget)
{
    const BitTables bits = bitTables(candidates, options);
    const FrontOps ops(bits.delta, bits.area, options.beamK);
    Fronts out;
    out.fronts.resize(egraph.numIds());

    // A class's front is a function of its children's fronts, so an
    // ascending sweep only changes a class when some child's front changed
    // since the class was last evaluated -- and then the class is that
    // child's parent and sits in the worklist.  A parent above the changed
    // class is evaluated later in the current ascending pass (as the sweep
    // would); one at or below it waits for the next pass.  Each pass is
    // one round of the sweep, with the same fronts after it.
    auto evaluate = [&](EClassId id) {
        std::vector<Mask> merged;
        for (const ENode& node : egraph.cls(id).nodes) {
            std::vector<Mask> nodeFront{0};
            bool ready = true;
            for (EClassId child : node.children) {
                const std::vector<Mask>& childFront =
                    out.fronts[egraph.find(child)];
                if (childFront.empty()) {
                    ready = false;
                    break;
                }
                nodeFront = ops.combine(nodeFront, childFront);
            }
            if (!ready) {
                continue;
            }
            int64_t pid = appPatternId(egraph, node);
            if (pid >= 0) {
                auto bit = bits.bitOf.find(pid);
                if (bit == bits.bitOf.end()) {
                    continue;  // unknown pattern: not selectable
                }
                for (Mask& m : nodeFront) {
                    m |= (1ull << bit->second);
                }
            }
            merged.insert(merged.end(), nodeFront.begin(), nodeFront.end());
        }
        if (merged.empty()) {
            return false;
        }
        auto pruned = ops.prune(std::move(merged));
        auto& slot = out.fronts[id];
        if (slot == pruned) {
            return false;
        }
        slot = std::move(pruned);
        return true;
    };

    // Only classes holding a leaf node get a front unprompted.
    PassWorklist worklist(egraph.numIds());
    for (EClassId id : egraph.classIds()) {
        for (const ENode& node : egraph.cls(id).nodes) {
            if (node.children.empty()) {
                worklist.seed(id);
                break;
            }
        }
    }
    for (int round = 0; round < options.maxRounds; ++round) {
        // The fronts computed so far stay internally consistent when the
        // fixpoint is cut short; stopping here only loses solutions.
        if (fault::tripped("select.round") || !budget.ok()) {
            out.truncated = true;
            break;
        }
        out.roundsRun = static_cast<size_t>(round) + 1;
        bool changed = false;
        EClassId id = 0;
        while (worklist.pop(id)) {
            ++out.classEvals;
            if (!evaluate(id)) {
                continue;
            }
            changed = true;
            for (const auto& use : egraph.cls(id).parents) {
                worklist.push(egraph.find(use.second), id);
            }
        }
        worklist.nextPass();
        if (!changed) {
            break;
        }
    }
    return out;
}

}  // namespace detail

std::vector<Solution>
paretoFilter(std::vector<Solution> solutions)
{
    std::sort(solutions.begin(), solutions.end(),
              [](const Solution& a, const Solution& b) {
                  if (a.speedup != b.speedup) {
                      return a.speedup > b.speedup;
                  }
                  return a.areaUm2 < b.areaUm2;
              });
    std::vector<Solution> kept;
    double best_area = std::numeric_limits<double>::infinity();
    for (Solution& s : solutions) {
        if (kept.empty() || s.areaUm2 < best_area) {
            best_area = std::min(best_area, s.areaUm2);
            kept.push_back(std::move(s));
        }
    }
    std::sort(kept.begin(), kept.end(),
              [](const Solution& a, const Solution& b) {
                  return a.areaUm2 < b.areaUm2;
              });
    return kept;
}

std::vector<Solution>
selectAndRefine(const EGraph& egraph, EClassId root,
                const std::vector<PatternEval>& candidates,
                const CostModel& cost, const SelectOptions& options,
                Budget* parent, SelectOutcome* outcome)
{
    const BitTables bits = bitTables(candidates, options);
    root = egraph.find(root);

    BudgetSpec spec;
    spec.maxSeconds = options.maxSeconds;
    Budget budget(spec, parent);
    SelectOutcome localOutcome;
    SelectOutcome& out = outcome != nullptr ? *outcome : localOutcome;
    out = SelectOutcome{};

    const detail::Fronts fixpoint =
        detail::propagateFronts(egraph, candidates, options, budget);
    out.truncated = fixpoint.truncated;
    out.roundsRun = fixpoint.roundsRun;
    if (telemetry::enabled()) {
        auto& registry = telemetry::Registry::instance();
        registry.counter("select.rounds").add(fixpoint.roundsRun);
        registry.counter("select.class_evals").add(fixpoint.classEvals);
    }

    const std::vector<Mask>& rootFront = fixpoint.fronts[root];
    if (rootFront.empty()) {
        return {};
    }

    // Refinement per front element.
    std::vector<Solution> solutions;
    for (Mask mask : rootFront) {
        if (fault::tripped("select.refine") || !budget.ok()) {
            out.truncated = true;
            break;
        }
        // Extraction with the latency objective (or AST size).
        auto costFn = [&](const ENode& node,
                          const std::vector<double>& childCosts)
            -> double {
            double children = 0;
            for (double c : childCosts) {
                children += c;
            }
            int64_t pid = appPatternId(egraph, node);
            if (pid >= 0) {
                auto bit = bits.bitOf.find(pid);
                const bool selected =
                    bit != bits.bitOf.end() &&
                    (mask & (1ull << bit->second)) != 0;
                if (!selected) {
                    return 1e15;  // exclude unselected patterns
                }
                if (options.astSizeObjective) {
                    return 1.0 + children;
                }
                const auto& cand =
                    candidates[static_cast<size_t>(bit->second)];
                return cand.hw.latencyNs + cost.invokeOverheadNs() +
                       children;
            }
            if (options.astSizeObjective) {
                return 1.0 + children;
            }
            if (node.op == Op::Loop && childCosts.size() == 2) {
                // Weight the body by an assumed trip count.
                return 1.0 + childCosts[0] + 16.0 * childCosts[1];
            }
            double own =
                profile::cyclesToNs(profile::cyclesForOp(node.op));
            if (node.isLeaf() || node.op == Op::List ||
                node.op == Op::Get || node.op == Op::Vec) {
                own = 0.01;
            }
            return own + children;
        };
        Extractor extractor(egraph, costFn);
        if (!extractor.costOf(root).has_value()) {
            continue;
        }
        Extraction extraction = extractor.extract(root);

        // Classes reachable through the chosen extraction, and for each,
        // whether the chosen node is an App of which pattern.
        std::unordered_map<EClassId, int64_t> chosenApp;
        {
            std::unordered_set<EClassId> seen;
            std::vector<EClassId> walk{root};
            while (!walk.empty()) {
                EClassId c = egraph.find(walk.back());
                walk.pop_back();
                if (!seen.insert(c).second) {
                    continue;
                }
                const ENode* node = extractor.chosenNode(c);
                if (node == nullptr) {
                    continue;
                }
                chosenApp[c] = appPatternId(egraph, *node);
                for (EClassId child : node->children) {
                    walk.push_back(child);
                }
            }
        }

        // Recompute Eq. 1-3 exactly on the extracted uses: a use counts
        // when its class is reachable and was extracted as this pattern's
        // App.  Overlapping patterns and shared subexpressions can claim
        // the same software work twice (the known optimism of Eq. 1's
        // per-use sum), so the claimed saving in each basic block is
        // capped at 90% of the time the profile actually spent there.
        Solution sol;
        sol.program = extraction.term;
        std::unordered_map<uint64_t, double> claimedPerBlock;
        auto blockKey = [](int func, ir::BlockId block) {
            return (static_cast<uint64_t>(func) << 32) | block;
        };
        for (const PatternEval& cand : candidates) {
            double refined = 0;
            size_t useSites = 0;  // program spots accelerated (reuse)
            for (const UseSite& u : cand.uses) {
                EClassId c = egraph.find(u.klass);
                auto it = chosenApp.find(c);
                if (it != chosenApp.end() && it->second == cand.id) {
                    const uint64_t key = blockKey(u.func, u.block);
                    const double budget =
                        0.9 * cost.blockSoftwareNs(u.func, u.block) -
                        claimedPerBlock[key];
                    const double granted =
                        std::min(u.savedNs, std::max(0.0, budget));
                    claimedPerBlock[key] += granted;
                    refined += granted;
                    ++useSites;
                }
            }
            if (useSites == 0) {
                continue;
            }
            sol.patternIds.push_back(cand.id);
            sol.useCounts.push_back(useSites);
            sol.deltaNs += refined;
            sol.areaUm2 += cand.hw.areaUm2;
        }
        sol.speedup = cost.speedup(sol.deltaNs);
        solutions.push_back(std::move(sol));
    }

    // Always include the empty (no custom instruction) solution so the
    // front starts at (1.0x, 0 area).
    Solution none;
    solutions.push_back(none);
    return paretoFilter(std::move(solutions));
}

}  // namespace rii
}  // namespace isamore
