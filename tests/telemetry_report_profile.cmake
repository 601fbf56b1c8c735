# End-to-end check of the profile renderer: generate a small dataset, train
# two epochs with `--profile-out`, then render the file with
# `telemetry_report --profile`. Every step must exit 0 and the rendered
# tree must carry a fit_epoch row.
#
#   cmake -DCLI=<taxorec_cli> -DREPORT=<telemetry_report> -DWORK_DIR=<dir>
#         -P telemetry_report_profile.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_step)
  execute_process(COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "`${ARGN}` exited ${rc}\n${out}\n${err}")
  endif()
  set(step_out "${out}" PARENT_SCOPE)
endfunction()

run_step("${CLI}" generate --users 300 --items 500 --tags 24 --seed 5
         --out data.tsv)
run_step("${CLI}" train --data data.tsv --model TaxoRec --epochs 2
         --threads 1 --seed 7 --profile-out profile.jsonl)
run_step("${REPORT}" --profile profile.jsonl)
message("${step_out}")
if(NOT step_out MATCHES "\n *fit_epoch ")
  message(FATAL_ERROR "rendered profile has no fit_epoch row")
endif()
