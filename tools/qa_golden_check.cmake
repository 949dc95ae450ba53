# Golden-run check driven by ctest (see tools/CMakeLists.txt): re-run a
# pinned scenario and diff its metrics against the checked-in golden.
# Counters compare exactly; double-valued fields get a loose relative
# tolerance to absorb libm variation across hosts/compilers.
# Inputs: QA_DIFF (executable), WORK_DIR, GOLDEN (metrics.json), and the
# scenario: either QA_TRACE (the fig-2 run; BACKEND names its congestion-
# control backend, default rap) or QA_FARM (the farm; PRESET names its
# preset, default smoke).

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "golden artifact missing: ${GOLDEN} "
          "(regenerate with tools/update_goldens.sh)")
endif()
if(NOT BACKEND)
  set(BACKEND rap)
endif()
if(NOT PRESET)
  set(PRESET smoke)
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Must match tools/update_goldens.sh exactly.
if(QA_FARM)
  set(scenario "farm ${PRESET}")
  set(run ${QA_FARM} --preset ${PRESET} --out-dir ${WORK_DIR}/run)
else()
  set(scenario "fig-2 (${BACKEND})")
  set(run ${QA_TRACE} --out-dir ${WORK_DIR}/run --backend ${BACKEND}
          --seed 1 --duration-s 10 --layers 4 --kmax 1
          --no-trace --no-profile)
endif()
execute_process(
  COMMAND ${run}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "golden scenario ${scenario} failed with ${rc}")
endif()

execute_process(
  COMMAND ${QA_DIFF} ${WORK_DIR}/run/metrics.json ${GOLDEN} --rel-tol 1e-4
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run drifted from golden (qa_diff exit ${rc}):\n${out}")
endif()
message(STATUS "golden ${scenario} diff clean:\n${out}")
