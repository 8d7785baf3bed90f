/**
 * @file
 * The lightweight HLS engine (paper §5.4.1 and §6; substitute for the
 * XLS delay/area estimators plus ASAP scheduling).
 *
 * Given a candidate pattern (a DSL term, possibly with holes as inputs),
 * estimates the hardware implementation at a 1 GHz target clock:
 *  - latency: ASAP schedule with operator chaining inside the 1000 ps
 *    clock period; the cycle count is ceil(criticalPath / period);
 *  - Loop patterns are pipelined: the initiation interval is bounded by
 *    the loop-carried dependence recurrence, and total latency is
 *    depth + (trips - 1) * II for a profiled/assumed trip count;
 *  - area: sum of per-operator areas (vector ops pay per lane; control
 *    adds multiplexing).
 *
 * The absolute numbers are calibrated to ASAP7-flavored relative costs
 * (multipliers ~13x an adder, dividers ~45x); only these ratios matter to
 * the Pareto study.
 */
#pragma once

#include <functional>

#include "dsl/term.hpp"

namespace isamore {
namespace hls {

/** Target accelerator clock. */
inline constexpr double kClockPeriodPs = 1000.0;  // 1 GHz

/** Hardware cost estimate for one pattern. */
struct HwCost {
    int cycles = 0;         ///< pipeline latency in clock cycles
    double latencyNs = 0;   ///< cycles at the 1 GHz target clock
    double areaUm2 = 0;     ///< synthesized area estimate
    int initiationInterval = 1;  ///< for pipelined Loop patterns
};

/** Resolves previously-registered pattern bodies for App nodes. */
using PatternResolver = std::function<TermPtr(int64_t patternId)>;

/** Combinational delay of one operator instance in picoseconds. */
double opDelayPs(Op op);

/** Area of one operator instance in square micrometers. */
double opAreaUm2(Op op);

/**
 * Estimate the hardware cost of @p pattern.
 *
 * @param pattern candidate instruction behaviour (holes = operand ports)
 * @param resolver optional resolver for App(previous-pattern) nodes;
 *        it must not call estimatePattern (the walk's per-thread memo
 *        is not re-entrant)
 * @param loopTripHint assumed trip count for pipelined Loop patterns
 */
HwCost estimatePattern(const TermPtr& pattern,
                       const PatternResolver& resolver = nullptr,
                       int loopTripHint = 16);

/**
 * The scalar feature used by smart-AU pattern sampling (§5.2): estimated
 * latency (prioritized) with area as a secondary tie-breaker.
 */
double patternFeature(const TermPtr& pattern);

}  // namespace hls
}  // namespace isamore
