# End-to-end check of svd-serve's JSON sinks. Runs the serve suite
# through the ingestion-fault chaos matrix, requires a clean exit
# (every serve robustness invariant holds), validates the --report and
# --metrics-json files with svd-json-check, requires stdout (--json) to
# be byte-identical to the report file — one emitter, two sinks — and
# requires the metrics dump to carry the serve.* counter schema, a
# per-shard shadow.shard<k>.bytes footprint line and the
# serve.stage.* timers. Invoke with:
#
#   cmake -DSERVE=<svd-serve> -DCHECK=<svd-json-check> -DOUTDIR=<scratch>
#         -P ServeCheck.cmake

file(MAKE_DIRECTORY "${OUTDIR}")
set(REPORT "${OUTDIR}/serve_chaos.json")
set(METRICS "${OUTDIR}/serve_metrics.json")

execute_process(COMMAND "${SERVE}" --suite serve --chaos --jobs 2
                        --json --report "${REPORT}"
                        --metrics-json "${METRICS}"
                OUTPUT_VARIABLE STDOUT_DOC
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "svd-serve exited ${RC} (serve robustness invariant "
                      "violated or crash)")
endif()

execute_process(COMMAND "${CHECK}" "${REPORT}"
                OUTPUT_QUIET
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "svd-json-check rejected ${REPORT}")
endif()

execute_process(COMMAND "${CHECK}" "${METRICS}"
                OUTPUT_QUIET
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "svd-json-check rejected ${METRICS}")
endif()

file(READ "${REPORT}" FILE_DOC)
if(NOT STDOUT_DOC STREQUAL FILE_DOC)
  message(FATAL_ERROR "--json stdout differs from the --report file")
endif()

file(READ "${METRICS}" METRICS_DOC)
foreach(KEY "serve.sessions" "serve.frames_delivered" "serve.rejects."
        "shadow.shard0.bytes" "shadow.shard0.pages" "serve.stage.produce"
        "serve.stage.encode" "serve.stage.stream" "serve.stage.detect")
  string(FIND "${METRICS_DOC}" "\"${KEY}" AT)
  if(AT EQUAL -1)
    message(FATAL_ERROR "metrics dump is missing the '${KEY}' instrument")
  endif()
endforeach()
