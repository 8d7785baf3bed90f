/**
 * @file
 * Deterministic fault injection for robustness testing.
 *
 * Instrumented code declares *named sites* -- `fault::tripped("au.pair")`
 * -- at the exact points where a resource trip or failure is possible.
 * Tests (or an operator, via the `ISAMORE_FAULTS` environment variable or
 * the CLI's `--inject` flag) arm faults against those sites:
 *
 *     site=kind[@hit[+]] [; site=kind[@hit[+]] ...]
 *
 * where `kind` is one of
 *   - `trip`   (alias `timeout`): tripped() returns true, which the site
 *              interprets as its local budget expiring (a soft fault);
 *   - `alloc`:     tripped() throws std::bad_alloc;
 *   - `invariant`: tripped() throws InternalError;
 * and `@hit` (1-based, default 1) selects the exact site visit on which
 * the fault fires -- `@3` fires on the third visit only, `@3+` on the
 * third and every later visit.  Hit counters are per site and global to
 * the process, so a given invocation trips at exactly one deterministic
 * point regardless of timing.
 *
 * When nothing is armed, a site check is a single relaxed bool load; the
 * registry is meant to stay compiled into production builds.
 *
 * Known sites: eqsat.search, eqsat.apply, eqsat.nodes, au.sweep, au.pair,
 * au.candidate, select.round, select.refine, rii.phase, profile.run,
 * backend.emit.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace isamore {
namespace fault {

/** What an armed fault does when it fires. */
enum class FaultKind { Trip, BadAlloc, Invariant };

/** One armed fault. */
struct FaultArm {
    std::string site;
    FaultKind kind = FaultKind::Trip;
    uint64_t hit = 1;     ///< 1-based site visit on which the fault fires
    bool repeat = false;  ///< fire on every visit >= hit, not just one
};

/**
 * Process-wide fault registry.  Thread-safe: sites are visited from
 * several threads (daemon lanes run whole pipelines side by side), so
 * the site map is mutex-guarded, hit counters are atomic, and the
 * enabled flag read by the fast path is a relaxed load.
 * Hit indices stay deterministic for serial visit orders; concurrent
 * visits to the *same* site race only for which visit gets which index,
 * never for whether exactly one visit fires a `@N` fault.
 */
class Registry {
 public:
    /** The singleton; first use arms faults from $ISAMORE_FAULTS. */
    static Registry& instance();

    /**
     * Parse @p spec (the grammar above) and arm every fault in it.
     * @throws UserError on malformed input.
     */
    void configure(const std::string& spec);

    /** Arm one fault. */
    void arm(FaultArm arm);

    /** Disarm everything and zero all hit/fired counters. */
    void reset();

    /** Whether any fault is armed (the site-check fast path). */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Faults fired since construction or the last reset(). */
    uint64_t
    firedCount() const
    {
        return fired_.load(std::memory_order_relaxed);
    }

    /** Visits recorded for @p site (0 when never visited while armed). */
    uint64_t hitCount(const std::string& site) const;

    /** Snapshot of the currently armed faults (for scoped re-arming). */
    std::vector<FaultArm> arms() const;

    /**
     * Record a visit to @p site and fire any armed fault that matches.
     * Trip faults return true; BadAlloc/Invariant faults throw.
     */
    bool shouldTrip(const char* site);

 private:
    Registry();

    struct SiteState {
        std::atomic<uint64_t> hits{0};
    };

    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> fired_{0};
    mutable std::mutex mutex_;  // guards arms_ and the sites_ map itself
    std::vector<FaultArm> arms_;
    std::unordered_map<std::string, SiteState> sites_;
};

/**
 * Scoped fault arming for per-request injection in long-lived processes.
 *
 * The registry is process-global and its `@N` hit counters only count
 * while something is armed, so a daemon serving many requests needs each
 * request's injection to see a *fresh* registry: construction snapshots
 * the currently armed faults, clears the registry (arms, hit counters,
 * fired count) and arms @p spec; destruction clears again and re-arms the
 * snapshot.  `@N` indices are therefore relative to the scope, exactly as
 * they are relative to the process in single-shot CLI runs.
 *
 * Scopes do not nest across threads: the caller must guarantee that no
 * other thread arms faults or depends on armed faults while a Scope is
 * alive (the server runs fault-injected requests under an exclusive
 * isolation lock for exactly this reason; see src/server/serve.cpp).
 */
class Scope {
 public:
    /** @throws UserError when @p spec is malformed (nothing is armed). */
    explicit Scope(const std::string& spec);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

 private:
    std::vector<FaultArm> saved_;
};

/**
 * The site check used by instrumented code.  Returns true when a Trip
 * fault fires at @p site; throws for BadAlloc/Invariant faults; returns
 * false (without even counting the visit) when nothing is armed.
 */
inline bool
tripped(const char* site)
{
    Registry& registry = Registry::instance();
    if (!registry.enabled()) {
        return false;
    }
    return registry.shouldTrip(site);
}

}  // namespace fault
}  // namespace isamore
