# Benchmark targets, included from the top-level CMakeLists so that
# build/bench/ holds only the runnable binaries (the documented
# `for b in build/bench/*; do $b; done` loop stays clean).

add_library(bpsim_bench_common bench/common/bench_common.cc)
target_include_directories(bpsim_bench_common
    PUBLIC ${CMAKE_SOURCE_DIR}/bench)
target_link_libraries(bpsim_bench_common
    PUBLIC bpsim_analysis bpsim_campaign bpsim_sim bpsim_core
           bpsim_predictors bpsim_workload bpsim_trace bpsim_util)

function(bpsim_bench name)
    add_executable(${name} bench/${name}.cc)
    target_link_libraries(${name} PRIVATE bpsim_bench_common)
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

bpsim_bench(table2_branch_stats)
bpsim_bench(fig2_avg_curves)
bpsim_bench(fig3_spec_curves)
bpsim_bench(fig4_ibs_curves)
bpsim_bench(table3_normalized_counts)
bpsim_bench(fig5_bias_gshare)
bpsim_bench(fig6_bias_bimode)
bpsim_bench(table4_class_changes)
bpsim_bench(fig7_breakdown_gcc)
bpsim_bench(fig8_breakdown_go)
bpsim_bench(ablation_bimode)
bpsim_bench(interference_taxonomy)
bpsim_bench(scheme_comparison)
bpsim_bench(perf_replay)
bpsim_bench(perf_multiconfig)
