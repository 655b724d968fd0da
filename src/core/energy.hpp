/**
 * @file
 * Analytical power / area / energy model of the UDP implementation.
 *
 * The paper synthesizes the lane in 28 nm TSMC with Synopsys DC and models
 * memories with CACTI 6.5 (Section 6, Table 3).  We cannot re-run an ASIC
 * flow, so this module encodes the paper's reported component numbers as
 * model constants and derives every figure the evaluation needs from them:
 * system power for throughput-per-watt (Figs 13-22), the Table 3 breakdown,
 * and the Fig 11c per-reference memory energies.  The *derivations* (not
 * the constants) are what our tests validate.
 */
#pragma once

#include "local_memory.hpp"
#include "stats.hpp"
#include "types.hpp"

#include <string>
#include <vector>

namespace udp {

/// One row of the Table 3 breakdown.
struct ComponentCost {
    std::string name;
    double power_mw = 0;
    double area_mm2 = 0;
};

/// Power/area model constants (28 nm; Table 3 of the paper).
struct UdpCostModel {
    // Per-lane units.
    double dispatch_unit_mw = 0.71;
    double sbp_unit_mw = 0.24;
    double stream_buffer_mw = 0.22;
    double action_unit_mw = 0.68;
    double dispatch_unit_mm2 = 0.022;
    double sbp_unit_mm2 = 0.008;
    double stream_buffer_mm2 = 0.002;
    double action_unit_mm2 = 0.021;
    double lane_total_mw = 1.88;   // paper rounds the unit sum up
    double lane_total_mm2 = 0.054;

    // Shared infrastructure.
    double lanes64_mw = 120.56;
    double vector_regs_mw = 8.47;
    double dlt_engine_mw = 19.29;
    double local_mem_mw = 715.36;
    double system_mw = 863.68;
    double lanes64_mm2 = 3.430;
    double vector_regs_mm2 = 0.256;
    double dlt_engine_mm2 = 0.138;
    double local_mem_mm2 = 4.864;
    double system_mm2 = 8.688;

    // Reference CPU (Xeon E5620 Westmere-EP; Section 4.4 and Table 3).
    double cpu_tdp_w = 80.0;
    double cpu_core_l1_mw = 9700.0;
    double cpu_core_l1_mm2 = 19.0;

    double clock_ghz = 1.0;

    /// Whole-system power in watts (the paper's perf/W denominator).
    double system_power_w() const { return system_mw / 1000.0; }

    /// Table 3 rows, in paper order.
    std::vector<ComponentCost> lane_breakdown() const;
    std::vector<ComponentCost> system_breakdown() const;
};

/**
 * Dynamic-energy estimate of a run, in joules: lane logic energy scales
 * with active cycles; memory energy with references at the Fig 11c cost of
 * the addressing mode; the remainder is static system power over the
 * wall-clock of the run.
 */
double run_energy_joules(const UdpCostModel &model, const LaneStats &total,
                         Cycles wall_cycles, unsigned active_lanes,
                         AddressingMode mode);

/// Throughput (MB/s) per watt of UDP system power.
double tput_per_watt(const UdpCostModel &model, double throughput_mbps);

/// Throughput (MB/s) per watt for the reference CPU at TDP.
double cpu_tput_per_watt(const UdpCostModel &model, double throughput_mbps);

} // namespace udp
