/**
 * @file
 * The e-graph data structure (paper §2.2, Fig. 2; egg-style implementation).
 *
 * An e-graph compactly represents sets of equivalent terms.  E-classes group
 * equivalent e-nodes; each e-node is a constructor applied to child e-class
 * ids.  Congruence closure is maintained lazily: merge() records pending
 * unions and rebuild() repairs the hashcons and parent lists to a fixpoint
 * (the deferred-rebuilding design from egg).
 *
 * Threading contract (DESIGN.md "E-graph threading contract"): mutation
 * -- add(), addTerm(), merge(), rebuild() -- is serial; a graph has one
 * mutator at a time and no reader runs while it mutates.  Reads of a
 * rebuilt graph that nobody mutates -- find(), canonicalize(), lookup(),
 * cls(), classIds(), classesWithOp(), the stamp queries and copy
 * construction -- are safe from many threads at once: rebuild() leaves
 * every union-find link pointing at its root and refreshes the read
 * caches eagerly, so no read writes anything.  The AU sweep and the
 * daemon's shared analyzed graph rely on this.
 *
 * Determinism: class ids, stamps, and merge outcomes depend only on the
 * order of add()/merge() calls, which the EqSat driver keeps fixed (rule
 * order, then match order), so output does not depend on the pool width.
 */
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dsl/term.hpp"

namespace isamore {

/** Identifier of an e-class. */
using EClassId = uint32_t;

/** Sentinel invalid e-class id. */
inline constexpr EClassId kInvalidClass = ~0u;

/** One constructor application: op + payload + child e-class ids. */
struct ENode {
    Op op = Op::Lit;
    Payload payload;
    std::vector<EClassId> children;

    ENode() = default;
    ENode(Op op_, Payload payload_, std::vector<EClassId> children_)
        : op(op_), payload(payload_), children(std::move(children_))
    {}

    bool
    operator==(const ENode& other) const
    {
        return op == other.op && payload == other.payload &&
               children == other.children;
    }

    uint64_t hash() const;

    /** Whether this node is a leaf (no children). */
    bool isLeaf() const { return children.empty(); }

    /** Printable form for debugging. */
    std::string str() const;
};

/** Hash functor for hashcons maps. */
struct ENodeHash {
    size_t operator()(const ENode& n) const { return n.hash(); }
};

/** Per-class storage. */
struct EClass {
    /** Canonicalized member e-nodes (deduplicated after rebuild()). */
    std::vector<ENode> nodes;

    /**
     * Uses of this class: (parent node as last canonicalized, parent class).
     * Maintained for congruence repair.
     */
    std::vector<std::pair<ENode, EClassId>> parents;
};

/** Rebuild introspection for the last rebuild() call (telemetry). */
struct RebuildStats {
    size_t rounds = 0;       ///< repair rounds until fixpoint
    size_t repaired = 0;     ///< classes repaired across all rounds
    size_t unions = 0;       ///< congruence merges discovered
};

/**
 * E-graph with deferred congruence repair.
 *
 * Beyond the core egg design, the graph maintains three derived
 * structures for the e-matching engine (see DESIGN.md "Matching engine"):
 *
 *  - an **op index** mapping each root operator to the ascending list of
 *    canonical classes containing a node with that operator, so pattern
 *    searches seed their root candidates without scanning every class;
 *  - **per-class modification stamps** on a monotone clock, propagated
 *    upward through parent lists at the rebuild() fixpoint, so a class's
 *    stamp bounds the last change anywhere in its reachable sub-DAG and
 *    incremental searches can skip classes untouched since a snapshot;
 *  - a **cached canonical-id snapshot** (classIds()) and an incrementally
 *    maintained node count, both O(1) on the hot read paths.
 *
 * The caches refresh lazily; rebuild() always leaves them fresh, so
 * concurrent readers of a rebuilt graph never hit a refresh.
 */
class EGraph {
 public:
    /** @name Construction
     *  @{ */

    /**
     * Add (hashcons) a node; children must be existing class ids.
     * @return the canonical class containing the node.
     */
    EClassId add(ENode node);

    /** Recursively encode a DSL term. Returns the root class. */
    EClassId addTerm(const TermPtr& term);

    /**
     * Merge two e-classes; repair is deferred until rebuild().
     * @return true when the classes were distinct.
     */
    bool merge(EClassId a, EClassId b);

    /**
     * Restore the hashcons/congruence invariants after merges.  Also
     * points every union-find link at its root, so post-rebuild find()
     * is O(1), and refreshes the read caches.
     */
    void rebuild();

    /** @} */

    /** @name Queries
     *  @{ */

    /**
     * Canonical representative of @p id.  A read-only walk; after a
     * rebuild() every link points directly at its root, so this is O(1)
     * until the next merge.
     */
    EClassId find(EClassId id) const;

    /** Canonicalize a node's children. */
    ENode canonicalize(const ENode& node) const;

    /**
     * Look a canonicalized node up without inserting.
     * @return the containing class or kInvalidClass.
     */
    EClassId lookup(const ENode& node) const;

    /** Class data.  @pre @p id is canonical (call find() first).  The
     *  reference survives add() but not a merge() that absorbs the class. */
    const EClass& cls(EClassId id) const;

    /** Number of live (canonical) e-classes. */
    size_t numClasses() const { return classCount_; }

    /** Number of e-nodes across live classes (maintained incrementally). */
    size_t numNodes() const { return nodeCount_; }

    /** Total ids ever allocated (canonical or merged away). */
    size_t numIds() const { return parent_.size(); }

    /**
     * Snapshot of all canonical class ids (stable order: ascending).
     * Cached; recomputed lazily after mutations.  The reference stays
     * valid until the next mutation.
     */
    const std::vector<EClassId>& classIds() const;

    /**
     * Canonical classes containing at least one node with root operator
     * @p op, ascending.  Same caching contract as classIds().
     */
    const std::vector<EClassId>& classesWithOp(Op op) const;

    /** Whether there are pending merges not yet rebuilt. */
    bool needsRebuild() const { return !worklist_.empty(); }

    /** Monotone counter of merges performed (for saturation detection). */
    uint64_t version() const { return version_; }

    /** Introspection for the most recent rebuild() call. */
    const RebuildStats& lastRebuild() const { return lastRebuild_; }

    /** @name Dirty tracking (incremental e-matching)
     *  @{ */

    /**
     * Monotone modification clock: bumps on every class creation or
     * merge.  Snapshot it after a rebuild(); classes whose stamp exceeds
     * the snapshot may match differently than they did then.
     */
    uint64_t matchClock() const { return clock_; }

    /**
     * Number of dirty-stamp distance buckets.  Bucket @c j < kStampDepths-1
     * covers changes within @c j parent-edges below a class; the last
     * bucket covers the whole reachable sub-DAG (the classic unbounded
     * stamp).  A pattern that reads class data @c r levels deep only
     * needs bucket min(r, kStampDepths-1) -- a change far below a class
     * cannot alter the matches of a shallow pattern rooted there.
     */
    static constexpr size_t kStampDepths = 4;

    /**
     * Last-modification stamp of class @p id, upward-propagated: covers
     * changes anywhere in the class's reachable sub-DAG as of the last
     * rebuild().  @pre @p id is canonical.
     */
    uint64_t classStamp(EClassId id) const;

    /**
     * Depth-bounded stamp of class @p id: covers changes within
     * @p depth parent-edges below the class (clamped to the last,
     * unbounded bucket).  classStampAtDepth(id, kStampDepths-1) ==
     * classStamp(id).  @pre @p id is canonical.
     */
    uint64_t classStampAtDepth(EClassId id, size_t depth) const;

    /**
     * Canonical ids (ascending) whose stamp exceeds @p version.  A class
     * absent from the result is guaranteed to produce exactly the same
     * matches, for every pattern, as it did when @p version was
     * snapshotted (provided the graph was rebuilt at both points).
     */
    std::vector<EClassId> classesDirtySince(uint64_t version) const;

    /**
     * Maximum classStampAtDepth(id, @p depth) over classesWithOp(@p op)
     * -- the op's dirty watermark at that read depth.  O(1): maintained
     * alongside the op index, so a scheduler can ask "was any candidate
     * of this root op touched, as far as a depth-d pattern can see,
     * since clock c?" without re-walking the candidate list every
     * iteration.  Returns 0 when no class carries the op.  Same caching
     * contract as classIds().
     */
    uint64_t maxStampWithOp(Op op, size_t depth) const;

    /** @} */

 private:
    /**
     * Owning class pointer that deep-copies: class addresses stay put as
     * the id table grows (cls() references survive add()), and the
     * graph's copy and move stay defaulted.
     */
    struct ClassPtr : std::unique_ptr<EClass> {
        using std::unique_ptr<EClass>::unique_ptr;
        ClassPtr() = default;
        ClassPtr(ClassPtr&&) noexcept = default;
        ClassPtr& operator=(ClassPtr&&) noexcept = default;
        ClassPtr(const ClassPtr& other)
            : std::unique_ptr<EClass>(
                  other ? std::make_unique<EClass>(*other) : nullptr)
        {}
        ClassPtr&
        operator=(const ClassPtr& other)
        {
            reset(other ? new EClass(*other) : nullptr);
            return *this;
        }
    };

    /**
     * Dirty stamps by distance bucket: stamps[j] is the latest clock at
     * which anything within j parent-edges below a class (the class
     * itself at j == 0) changed; the last bucket is unbounded.  Monotone
     * in j by construction.
     */
    using Stamps = std::array<uint64_t, kStampDepths>;

    /** Repair one class: re-canonicalize its parents and nodes, fix the
     *  hashcons, and append the congruences it finds to @p unions. */
    void repair(EClassId id,
                std::vector<std::pair<EClassId, EClassId>>& unions);
    /** find() with path halving; only valid from mutation paths. */
    EClassId findMutable(EClassId id);
    /** Rebuild classIds/op-index caches when stale. */
    void refreshCaches() const;
    /** Propagate dirty stamps from merge winners up to all ancestors. */
    void propagateDirty();
    /** Point every id's parent link directly at its root. */
    void compressPaths();

    // Per id: union-find link, dirty stamps, and class storage (null
    // once the id is merged away).
    std::vector<EClassId> parent_;
    std::vector<Stamps> stamps_;
    std::vector<ClassPtr> classes_;
    std::unordered_map<ENode, EClassId, ENodeHash> memo_;  // hashcons

    size_t classCount_ = 0;
    size_t nodeCount_ = 0;  // Σ nodes over live classes
    uint64_t version_ = 0;
    uint64_t clock_ = 0;    // modification clock

    std::vector<EClassId> worklist_;
    std::vector<EClassId> dirtySeeds_;  // merge winners awaiting propagation

    RebuildStats lastRebuild_;

    // Lazily refreshed read caches (see refreshCaches()).  Mutable so the
    // const read path can refresh them; rebuild() always refreshes
    // eagerly, which keeps concurrent reads of a rebuilt graph
    // refresh-free.
    mutable std::vector<EClassId> classIdsCache_;
    mutable std::vector<std::vector<EClassId>> opIndex_;  // by Op value
    /** Max stamp per (op, depth bucket), flat [op * kStampDepths + j]. */
    mutable std::vector<uint64_t> opStampCache_;
    mutable bool cachesStale_ = true;
};

}  // namespace isamore
