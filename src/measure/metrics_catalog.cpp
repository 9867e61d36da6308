#include "measure/metrics_catalog.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"

namespace varpred::measure {
namespace {

std::vector<MetricInfo> build(const std::vector<std::string>& names) {
  std::vector<MetricInfo> out;
  out.reserve(names.size());
  int id = 0;
  for (const auto& name : names) {
    out.push_back(MetricInfo{id++, name, categorize_metric(name)});
  }
  return out;
}

bool contains(const std::string& text, const char* needle) {
  return text.find(needle) != std::string::npos;
}

}  // namespace

std::string to_string(MetricCategory category) {
  switch (category) {
    case MetricCategory::kCompute:
      return "compute";
    case MetricCategory::kBranch:
      return "branch";
    case MetricCategory::kCache:
      return "cache";
    case MetricCategory::kTlb:
      return "tlb";
    case MetricCategory::kOs:
      return "os";
    case MetricCategory::kDuration:
      return "duration";
  }
  VARPRED_CHECK_ARG(false, "unknown metric category");
}

MetricCategory categorize_metric(const std::string& name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "duration_time") return MetricCategory::kDuration;
  if (contains(lower, "tlb")) return MetricCategory::kTlb;
  if (contains(lower, "branch") || contains(lower, "br_") ||
      contains(lower, "bp_")) {
    return MetricCategory::kBranch;
  }
  if (contains(lower, "cache") || contains(lower, "l1") ||
      contains(lower, "l2") || contains(lower, "l3") ||
      contains(lower, "llc") || contains(lower, "mem") ||
      contains(lower, "node") || contains(lower, "fills") ||
      contains(lower, "11") || contains(lower, "12") ||
      contains(lower, "13") || contains(lower, "ls_") ||
      contains(lower, "unc_cha") || contains(lower, "longest_lat")) {
    return MetricCategory::kCache;
  }
  if (contains(lower, "fault") || contains(lower, "switch") ||
      contains(lower, "migration") || contains(lower, "clock") ||
      contains(lower, "cgroup") || contains(lower, "bpf") ||
      contains(lower, "interrupt") || contains(lower, "ls_int") ||
      contains(lower, "steal") || contains(lower, "vmexit") ||
      contains(lower, "throttle") || contains(lower, "preempt")) {
    return MetricCategory::kOs;
  }
  return MetricCategory::kCompute;
}

const std::vector<MetricInfo>& intel_metrics() {
  static const std::vector<MetricInfo> metrics = build({
      // Table II, ids 0..67.
      "branch-instructions",
      "branch-misses",
      "bus-cycles",
      "cache-misses",
      "cache-references",
      "cpu-cycles",
      "instructions",
      "ref-cycles",
      "alignment-faults",
      "bpf-output",
      "cgroup-switches",
      "context-switches",
      "cpu-clock",
      "cpu-migrations",
      "emulation-faults",
      "major-faults",
      "minor-faults",
      "page-faults",
      "task-clock",
      "duration_time",
      "L1-dcache-load-misses",
      "L1-dcache-loads",
      "L1-dcache-stores",
      "l1d.replacement",
      "L1-icache-load-misses",
      "l2_lines_in.all",
      "l2_rqsts.all_demand_miss",
      "l2_rqsts.all_rfo",
      "l2_trans.l2_wb",
      "LLC-load-misses",
      "LLC-loads",
      "LLC-store-misses",
      "LLC-stores",
      "longest_lat_cache.miss",
      "mem_inst_retired.all_loads",
      "mem_inst_retired.all_stores",
      "mem_inst_retired.lock_loads",
      "branch-load-misses",
      "branch-loads",
      "dTLB-load-misses",
      "dTLB-loads",
      "dTLB-store-misses",
      "dTLB-stores",
      "iTLB-load-misses",
      "node-load-misses",
      "node-loads",
      "node-store-misses",
      "node-stores",
      "mem-loads",
      "mem-stores",
      "slots",
      "assists.fp",
      "cycle_activity.stalls_l3_miss",
      "assists.any",
      "topdown.backend_bound_slots",
      "br_inst_retired.all_branches",
      "br_misp_retired.all_branches",
      "cpu_clk_unhalted.distributed",
      "cycle_activity.stalls_total",
      "inst_retired.any",
      "lsd.uops",
      "resource_stalls.sb",
      "resource_stalls.scoreboard",
      "dtlb_load_misses.stlb_hit",
      "dtlb_store_misses.stlb_hit",
      "itlb_misses.stlb_hit",
      "unc_cha_tor_inserts.io_hit",
      "unc_cha_tor_inserts.io_miss",
  });
  return metrics;
}

const std::vector<MetricInfo>& amd_metrics() {
  static const std::vector<MetricInfo> metrics = build({
      // Table III, ids 0..74. The paper's table repeats several generic
      // hardware events (perf reports them under two event groups on this
      // machine); the duplication is preserved deliberately.
      "branch-instructions",
      "branch-misses",
      "cache-misses",
      "cache-references",
      "cpu-cycles",
      "instructions",
      "stalled-cycles-backend",
      "stalled-cycles-frontend",
      "alignment-faults",
      "bpf-output",
      "cgroup-switches",
      "context-switches",
      "cpu-clock",
      "cpu-migrations",
      "emulation-faults",
      "major-faults",
      "minor-faults",
      "page-faults",
      "task-clock",
      "duration_time",
      "L1-dcache-load-misses",
      "L1-dcache-loads",
      "L1-dcache-prefetches",
      "L1-icache-load-misses",
      "L1-icache-loads",
      "branch-load-misses",
      "branch-loads",
      "dTLB-load-misses",
      "dTLB-loads",
      "iTLB-load-misses",
      "iTLB-loads",
      "branch-instructions:u",
      "branch-misses:u",
      "cache-misses:u",
      "cache-references:u",
      "cpu-cycles:u",
      "stalled-cycles-backend:u",
      "stalled-cycles-frontend:u",
      "bp_l2_btb_correct",
      "bp_tlb_rel",
      "bp_l1_tlb_miss_l2_tlb_hit",
      "bp_l1_tlb_miss_l2_tlb_miss",
      "ic_fetch_stall.ic_stall_any",
      "ic_tag_hit_miss.instruction_cache_hit",
      "ic_tag_hit_miss.instruction_cache_miss",
      "op_cache_hit_miss.all_op_cache_accesses",
      "fp_ret_sse_avx_ops.all",
      "fpu_pipe_assignment.total",
      "l1_data_cache_fills_all",
      "l1_data_cache_fills_from_external_ccx_cache",
      "l1_data_cache_fills_from_memory",
      "l1_data_cache_fills_from_remote_node",
      "l1_data_cache_fills_from_within_same_ccx",
      "l1_dtlb_misses",
      "l2_cache_accesses_from_dc_misses",
      "l2_cache_accesses_from_ic_misses",
      "l2_cache_hits_from_dc_misses",
      "l2_cache_hits_from_ic_misses",
      "l2_cache_hits_from_l2_hwpf",
      "l2_cache_misses_from_dc_misses",
      "l2_cache_misses_from_ic_miss",
      "l2_dtlb_misses",
      "l2_itlb_misses",
      "macro_ops_retired",
      "sse_avx_stalls",
      "l3_cache_accesses",
      "l3_misses",
      "ls_sw_pf_dc_fills.mem_io_local",
      "ls_sw_pf_dc_fills.mem_io_remote",
      "ls_hw_pf_dc_fills.mem_io_local",
      "ls_hw_pf_dc_fills.mem_io_remote",
      "ls_int_taken",
      "all_tlbs_flushed",
      "instructions:u",
      "bp_l1_btb_correct",
  });
  return metrics;
}

const std::vector<MetricInfo>& arm_metrics() {
  static const std::vector<MetricInfo> metrics = build({
      // Extension: Neoverse-class PMU events (not a paper table).
      "branch-instructions",
      "branch-misses",
      "cache-misses",
      "cache-references",
      "cpu-cycles",
      "instructions",
      "stalled-cycles-backend",
      "stalled-cycles-frontend",
      "alignment-faults",
      "bpf-output",
      "cgroup-switches",
      "context-switches",
      "cpu-clock",
      "cpu-migrations",
      "emulation-faults",
      "major-faults",
      "minor-faults",
      "page-faults",
      "task-clock",
      "duration_time",
      "L1-dcache-load-misses",
      "L1-dcache-loads",
      "L1-icache-load-misses",
      "L1-icache-loads",
      "branch-load-misses",
      "branch-loads",
      "dTLB-load-misses",
      "dTLB-loads",
      "iTLB-load-misses",
      "iTLB-loads",
      "l1d_cache",
      "l1d_cache_refill",
      "l1d_cache_wb",
      "l1i_cache",
      "l1i_cache_refill",
      "l1d_tlb",
      "l1d_tlb_refill",
      "l1i_tlb",
      "l1i_tlb_refill",
      "l2d_cache",
      "l2d_cache_refill",
      "l2d_cache_wb",
      "l2d_tlb",
      "l2d_tlb_refill",
      "l3d_cache",
      "l3d_cache_refill",
      "ll_cache_rd",
      "ll_cache_miss_rd",
      "mem_access",
      "mem_access_rd",
      "mem_access_wr",
      "remote_access",
      "bus_access",
      "bus_cycles",
      "br_mis_pred",
      "br_pred",
      "br_retired",
      "br_mis_pred_retired",
      "inst_retired",
      "inst_spec",
      "op_retired",
      "op_spec",
      "stall_backend_mem",
      "stall_frontend",
      "stall_slot",
      "dtlb_walk",
      "itlb_walk",
      "exc_taken",
      "exc_return",
      "vfp_spec",
      "ase_spec",
      "crypto_spec",
  });
  return metrics;
}

}  // namespace varpred::measure
