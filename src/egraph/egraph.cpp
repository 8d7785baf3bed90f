#include "egraph/egraph.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "support/check.hpp"
#include "support/hashing.hpp"
#include "support/telemetry.hpp"

namespace isamore {

uint64_t
ENode::hash() const
{
    uint64_t h = mix64(static_cast<uint64_t>(op));
    h = hashCombine(h, payload.hash());
    for (EClassId child : children) {
        h = hashCombine(h, child);
    }
    return h;
}

std::string
ENode::str() const
{
    std::ostringstream os;
    os << '(' << opName(op);
    if (payload.kind != Payload::Kind::None) {
        os << '[' << payload.str() << ']';
    }
    for (EClassId child : children) {
        os << ' ' << child;
    }
    os << ')';
    return os.str();
}

EClassId
EGraph::find(EClassId id) const
{
    // After a rebuild every link is a self-loop or points directly at a
    // root (compressPaths), making this O(1) until the next merge.
    ISAMORE_CHECK(id < parent_.size());
    while (parent_[id] != id) {
        id = parent_[id];
    }
    return id;
}

EClassId
EGraph::findMutable(EClassId id)
{
    ISAMORE_CHECK(id < parent_.size());
    while (parent_[id] != id) {
        parent_[id] = parent_[parent_[id]];  // path halving
        id = parent_[id];
    }
    return id;
}

ENode
EGraph::canonicalize(const ENode& node) const
{
    ENode out = node;
    for (EClassId& child : out.children) {
        child = find(child);
    }
    return out;
}

EClassId
EGraph::lookup(const ENode& node) const
{
    const auto it = memo_.find(canonicalize(node));
    return it == memo_.end() ? kInvalidClass : find(it->second);
}

EClassId
EGraph::add(ENode node)
{
    for (EClassId& child : node.children) {
        child = find(child);
    }
    if (const auto it = memo_.find(node); it != memo_.end()) {
        return find(it->second);
    }
    const auto id = static_cast<EClassId>(parent_.size());
    parent_.push_back(id);
    stamps_.emplace_back().fill(++clock_);
    for (const EClassId child : node.children) {
        classes_[child]->parents.emplace_back(node, id);
    }
    classes_.emplace_back().reset(new EClass{{node}, {}});
    memo_.emplace(std::move(node), id);
    ++classCount_;
    ++nodeCount_;
    cachesStale_ = true;
    return id;
}

EClassId
EGraph::addTerm(const TermPtr& term)
{
    std::vector<EClassId> children;
    children.reserve(term->children.size());
    for (const auto& child : term->children) {
        children.push_back(addTerm(child));
    }
    return add(ENode(term->op, term->payload, std::move(children)));
}

bool
EGraph::merge(EClassId a, EClassId b)
{
    a = findMutable(a);
    b = findMutable(b);
    if (a == b) {
        return false;
    }
    // Union by size: keep the class with more nodes + parents canonical.
    if (classes_[a]->nodes.size() + classes_[a]->parents.size() <
        classes_[b]->nodes.size() + classes_[b]->parents.size()) {
        std::swap(a, b);
    }
    EClass& winner = *classes_[a];
    EClass& loser = *classes_[b];
    parent_[b] = a;
    winner.nodes.insert(winner.nodes.end(),
                        std::make_move_iterator(loser.nodes.begin()),
                        std::make_move_iterator(loser.nodes.end()));
    winner.parents.insert(winner.parents.end(),
                          std::make_move_iterator(loser.parents.begin()),
                          std::make_move_iterator(loser.parents.end()));
    classes_[b].reset();
    --classCount_;
    worklist_.push_back(a);
    dirtySeeds_.push_back(a);
    ++version_;
    stamps_[a].fill(++clock_);
    cachesStale_ = true;
    return true;
}

void
EGraph::repair(EClassId id,
               std::vector<std::pair<EClassId, EClassId>>& unions)
{
    // Re-canonicalize the parent nodes and fix the hashcons.  Congruent
    // parents are not merged here: repair reads the union-find as it
    // stood at the start of the round, and the caller applies the unions
    // after every class of the round is repaired.
    EClass& data = *classes_[id];
    auto parents = std::move(data.parents);
    data.parents.clear();

    // First-seen dedup of canonical parent nodes; the map carries the
    // index into freshParents so the order never depends on the hash
    // map's layout.
    std::unordered_map<ENode, size_t, ENodeHash> fresh;
    fresh.reserve(parents.size());
    std::vector<std::pair<ENode, EClassId>> freshParents;
    freshParents.reserve(parents.size());
    for (auto& [pnode, pclass] : parents) {
        memo_.erase(pnode);
        ENode canonical = canonicalize(pnode);
        const EClassId canonicalClass = find(pclass);
        const auto it = fresh.find(canonical);
        if (it != fresh.end()) {
            unions.emplace_back(freshParents[it->second].second,
                                canonicalClass);
        } else {
            fresh.emplace(canonical, freshParents.size());
            freshParents.emplace_back(std::move(canonical), canonicalClass);
        }
    }
    for (const auto& [node, klass] : freshParents) {
        memo_[node] = klass;
    }
    data.parents = std::move(freshParents);

    // Deduplicate this class's own nodes after canonicalization.
    std::unordered_set<uint64_t> hashes;
    std::vector<ENode> uniqueNodes;
    uniqueNodes.reserve(data.nodes.size());
    for (const ENode& node : data.nodes) {
        ENode canonical = canonicalize(node);
        const uint64_t h = canonical.hash();
        if (!hashes.insert(h).second &&
            std::find(uniqueNodes.begin(), uniqueNodes.end(), canonical) !=
                uniqueNodes.end()) {
            continue;
        }
        uniqueNodes.push_back(std::move(canonical));
    }
    const size_t removed = data.nodes.size() - uniqueNodes.size();
    data.nodes = std::move(uniqueNodes);
    if (removed != 0) {
        // Collapsing duplicates changed the class's own node list, which
        // is match-visible at distance 0 exactly like a merge append, so
        // it seeds the dirty propagation (merges seed themselves).
        nodeCount_ -= removed;
        dirtySeeds_.push_back(id);
    }
}

void
EGraph::rebuild()
{
    struct RoundRecord {
        size_t frontier = 0;
        size_t repaired = 0;
        size_t unions = 0;
    };
    RebuildStats stats;
    std::vector<RoundRecord> rounds;

    while (!worklist_.empty()) {
        std::vector<EClassId> todo;
        todo.swap(worklist_);
        ++stats.rounds;

        // Stable-dedup to canonical ids, in first-occurrence (merge)
        // order.
        std::vector<EClassId> classes;
        classes.reserve(todo.size());
        {
            std::unordered_set<EClassId> seen;
            seen.reserve(todo.size() * 2);
            for (EClassId id : todo) {
                const EClassId canonical = findMutable(id);
                if (seen.insert(canonical).second) {
                    classes.push_back(canonical);
                }
            }
        }

        // Repair every class of the round, then apply the congruences
        // found in (class, discovery) order; their merges refill the
        // worklist for the next round.
        std::vector<std::pair<EClassId, EClassId>> found;
        for (EClassId id : classes) {
            repair(id, found);
        }
        size_t unions = 0;
        for (const auto& [x, y] : found) {
            if (merge(x, y)) {
                ++unions;
            }
        }
        stats.repaired += classes.size();
        stats.unions += unions;
        if (telemetry::enabled()) {
            rounds.push_back({todo.size(), classes.size(), unions});
        }
    }

    propagateDirty();
    // Snapshot canonical ids into every link: post-rebuild find() is a
    // single load until the next merge.
    compressPaths();
    if (cachesStale_) {
        refreshCaches();
    }
    lastRebuild_ = stats;

    if (telemetry::enabled()) {
        auto& registry = telemetry::Registry::instance();
        size_t round = 0;
        for (const RoundRecord& record : rounds) {
            registry.appendRecord(
                "eqsat.rebuild",
                "{\"round\": " + std::to_string(++round) +
                    ", \"frontier\": " + std::to_string(record.frontier) +
                    ", \"repaired\": " + std::to_string(record.repaired) +
                    ", \"unions\": " + std::to_string(record.unions) + "}");
        }
    }
}

void
EGraph::propagateDirty()
{
    if (dirtySeeds_.empty()) {
        return;
    }
    // A merged class's new node set changes the match behaviour of every
    // ancestor reachable through parent lists, so the stamp propagates
    // upward until it meets classes already stamped at this clock value.
    // Parent entries of untouched classes may hold stale ids; findMutable
    // resolves them (a superset of true ancestors is harmless: stamping a
    // class conservatively only costs a redundant re-match).
    //
    // Propagation is a layered BFS so every class learns its *distance*
    // from the nearest change: a class first reached at distance d gets
    // stamp buckets [min(d, last)..last] bumped, leaving the shallower
    // buckets untouched -- a pattern that reads only r levels deep can
    // then skip a class whose nearest change sits more than r edges
    // below it, even though the unbounded bucket is dirty.  Multi-source
    // BFS visits each class at its minimal distance first, which is
    // exactly the bucket boundary the skip proof needs.
    const uint64_t now = ++clock_;
    std::vector<EClassId> frontier;
    std::vector<EClassId> next;
    frontier.reserve(dirtySeeds_.size());
    auto visit = [&](EClassId c, size_t dist, std::vector<EClassId>& out) {
        Stamps& stamps = stamps_[c];
        if (stamps[kStampDepths - 1] == now) {
            return;  // already reached at a smaller or equal distance
        }
        for (size_t j = std::min(dist, kStampDepths - 1); j < kStampDepths;
             ++j) {
            stamps[j] = now;
        }
        out.push_back(c);
    };
    for (EClassId seed : dirtySeeds_) {
        visit(findMutable(seed), 0, frontier);
    }
    dirtySeeds_.clear();
    for (size_t dist = 1; !frontier.empty(); ++dist) {
        next.clear();
        for (EClassId c : frontier) {
            for (const auto& [pnode, pclass] : classes_[c]->parents) {
                visit(findMutable(pclass), dist, next);
            }
        }
        frontier.swap(next);
    }
}

void
EGraph::compressPaths()
{
    for (EClassId& parent : parent_) {
        parent = findMutable(parent);
    }
}

const EClass&
EGraph::cls(EClassId id) const
{
    ISAMORE_CHECK_MSG(id < classes_.size() && classes_[id] != nullptr,
                      "cls() requires a canonical id; call find() first");
    return *classes_[id];
}

void
EGraph::refreshCaches() const
{
    classIdsCache_.clear();
    classIdsCache_.reserve(classCount_);
    for (EClassId id = 0; id < classes_.size(); ++id) {
        if (classes_[id] != nullptr) {
            classIdsCache_.push_back(id);
        }
    }

    opIndex_.assign(kNumOps, {});
    opStampCache_.assign(kNumOps * kStampDepths, 0);
    for (EClassId id : classIdsCache_) {
        // Emit each (op, class) pair once even when a class holds several
        // nodes with the same root op; ids come out ascending because the
        // outer walk is ascending.  The per-(op, depth) stamp watermarks
        // ride the same walk: stamps are final here (rebuild() propagates
        // them before refreshing), so the max over emitted classes is
        // exact.
        uint64_t emitted = 0;  // bitset over ops (kNumOps < 64)
        static_assert(kNumOps <= 64);
        const Stamps& stamps = stamps_[id];
        for (const ENode& node : classes_[id]->nodes) {
            const uint64_t bit = uint64_t{1} << static_cast<size_t>(node.op);
            if ((emitted & bit) == 0) {
                emitted |= bit;
                const size_t op = static_cast<size_t>(node.op);
                opIndex_[op].push_back(id);
                uint64_t* marks = &opStampCache_[op * kStampDepths];
                for (size_t j = 0; j < kStampDepths; ++j) {
                    marks[j] = std::max(marks[j], stamps[j]);
                }
            }
        }
    }
    cachesStale_ = false;
}

const std::vector<EClassId>&
EGraph::classIds() const
{
    if (cachesStale_) {
        refreshCaches();
    }
    return classIdsCache_;
}

const std::vector<EClassId>&
EGraph::classesWithOp(Op op) const
{
    if (cachesStale_) {
        refreshCaches();
    }
    return opIndex_[static_cast<size_t>(op)];
}

uint64_t
EGraph::maxStampWithOp(Op op, size_t depth) const
{
    if (cachesStale_) {
        refreshCaches();
    }
    return opStampCache_[static_cast<size_t>(op) * kStampDepths +
                         std::min(depth, kStampDepths - 1)];
}

uint64_t
EGraph::classStamp(EClassId id) const
{
    return stamps_[id][kStampDepths - 1];
}

uint64_t
EGraph::classStampAtDepth(EClassId id, size_t depth) const
{
    return stamps_[id][std::min(depth, kStampDepths - 1)];
}

std::vector<EClassId>
EGraph::classesDirtySince(uint64_t version) const
{
    std::vector<EClassId> out;
    for (EClassId id : classIds()) {
        if (stamps_[id][kStampDepths - 1] > version) {
            out.push_back(id);
        }
    }
    return out;
}

}  // namespace isamore
