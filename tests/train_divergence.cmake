# End-to-end check that divergence is reported at the tool surface:
# generate a small dataset, then train BPRMF and LightGCN at a learning rate
# that drives their scores to NaN. Neither keeps a training state to roll
# back to, so each run must exit non-zero and name the divergence; a clean
# BPRMF run on the same data must exit 0.
#
#   cmake -DCLI=<taxorec_cli> -DWORK_DIR=<dir> -P train_divergence.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_step)
  execute_process(COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  set(step_rc "${rc}" PARENT_SCOPE)
  set(step_out "${out}${err}" PARENT_SCOPE)
endfunction()

run_step("${CLI}" generate --users 300 --items 500 --tags 24 --seed 5
         --out data.tsv)
if(NOT step_rc EQUAL 0)
  message(FATAL_ERROR "generate exited ${step_rc}\n${step_out}")
endif()

foreach(model BPRMF LightGCN)
  run_step("${CLI}" train --data data.tsv --model=${model} --lr=1e200
           --epochs=3 --threads=1)
  if(step_rc EQUAL 0)
    message(FATAL_ERROR "${model} at --lr=1e200 exited 0\n${step_out}")
  endif()
  if(NOT step_out MATCHES "diverged")
    message(FATAL_ERROR "${model} at --lr=1e200 exited ${step_rc} without "
                        "naming the divergence\n${step_out}")
  endif()
  message("${model} at --lr=1e200: exit ${step_rc}")
endforeach()

run_step("${CLI}" train --data data.tsv --model=BPRMF --epochs=2 --threads=1)
if(NOT step_rc EQUAL 0)
  message(FATAL_ERROR "clean BPRMF run exited ${step_rc}\n${step_out}")
endif()
