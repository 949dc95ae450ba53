# Trace determinism check driven by ctest (see tools/CMakeLists.txt): two
# same-seed qa_trace runs must write byte-identical trace.json. The trace
# carries no wall-clock bytes, so the files are compared raw. The golden
# and qa_diff checks run with --no-trace, so this is the test that pins
# trace bytes.
# Inputs: QA_TRACE (executable), WORK_DIR.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(run a b)
  execute_process(
    COMMAND ${QA_TRACE} --out-dir ${WORK_DIR}/${run} --seed 1
            --duration-s 10 --layers 4
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "qa_trace run '${run}' failed with ${rc}")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/a/trace.json ${WORK_DIR}/b/trace.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "same-seed runs wrote different trace.json bytes: "
                      "${WORK_DIR}/a vs ${WORK_DIR}/b")
endif()
file(SIZE ${WORK_DIR}/a/trace.json size)
message(STATUS "same-seed trace.json identical (${size} bytes)")
