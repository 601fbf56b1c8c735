# Runs a bench binary with the shared observability flags and fails unless
# it exits 0 and writes each file they name, non-empty: <NAME>.trace.json
# (--trace-out), <NAME>.profile.jsonl (--profile-out) and
# <NAME>.metrics.json (--metrics-out), all in WORK_DIR.
#
#   cmake -DBENCH=<binary> "-DARGS=<args>" -DNAME=<name> -DWORK_DIR=<dir>
#         -P run_with_outputs.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
set(outputs
  "${WORK_DIR}/${NAME}.trace.json"
  "${WORK_DIR}/${NAME}.profile.jsonl"
  "${WORK_DIR}/${NAME}.metrics.json")
file(REMOVE ${outputs})
list(GET outputs 0 trace_out)
list(GET outputs 1 profile_out)
list(GET outputs 2 metrics_out)
execute_process(
  COMMAND "${BENCH}" ${args} --trace-out "${trace_out}"
          --profile-out "${profile_out}" --metrics-out "${metrics_out}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "`${BENCH} ${ARGS}` exited ${rc}")
endif()
foreach(f ${outputs})
  if(NOT EXISTS "${f}")
    message(FATAL_ERROR "missing: ${f}")
  endif()
  file(SIZE "${f}" size)
  if(size EQUAL 0)
    message(FATAL_ERROR "empty: ${f}")
  endif()
endforeach()
