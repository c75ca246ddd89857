# Perf-baseline regression gate. Runs one perf suite fresh and diffs
# it against its committed BENCH_<suite>.json with svd-bench-diff:
# every deterministic field (event counts, pruned/filtered counts,
# proven CUs, shadow-page counts, instruction totals) must match the
# baseline byte-for-byte; the wall-clock insts_per_sec rate is
# advisory only. Invoke with:
#
#   cmake -DBENCH=<svd-bench> -DDIFF=<svd-bench-diff>
#         -DBASELINE=<BENCH_<suite>.json> -DOUTDIR=<scratch-dir>
#         [-DSUITE=<suite>]      # default table1
#         -P BenchDiffCheck.cmake

if(NOT SUITE)
  set(SUITE table1)
endif()

file(MAKE_DIRECTORY "${OUTDIR}")
set(CURRENT "${OUTDIR}/${SUITE}_perf.json")

execute_process(COMMAND "${BENCH}" --suite ${SUITE} --perf --json
                OUTPUT_FILE "${CURRENT}"
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "svd-bench --suite ${SUITE} --perf --json exited ${RC}")
endif()

execute_process(COMMAND "${DIFF}" "${BASELINE}" "${CURRENT}"
                OUTPUT_VARIABLE OUT
                RESULT_VARIABLE RC)
message(STATUS "svd-bench-diff output:\n${OUT}")
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "deterministic perf fields drifted from ${BASELINE} "
                      "(svd-bench-diff exited ${RC})")
endif()
