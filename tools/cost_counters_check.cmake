# Exact cost counters, driven by ctest (see tools/CMakeLists.txt): a short
# T1 run and a fig-2 run with the scheduler profiler and metrics on, and
# every scheduler.<category>.dispatches row plus the bottleneck's
# delivered packets pinned exactly. A speed change that must not alter
# which events run leaves every number here alone; a change that adds or
# removes events on purpose re-pins them here and says why.
# Inputs: QA_TRACE (executable), WORK_DIR.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(failures "")

# Runs qa_trace with `flags` and checks each "metric=value" of `pins`
# against the run's metrics.json.
function(check_counters name flags pins)
  execute_process(
    COMMAND ${QA_TRACE} --out-dir ${WORK_DIR}/${name} --seed 1 --no-trace
            ${flags}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "qa_trace ${name} run failed with ${rc}")
  endif()
  file(READ "${WORK_DIR}/${name}/metrics.json" json)
  foreach(pin IN LISTS pins)
    string(FIND "${pin}" "=" eq)
    string(SUBSTRING "${pin}" 0 ${eq} key)
    math(EXPR from "${eq} + 1")
    string(SUBSTRING "${pin}" ${from} -1 want)
    string(JSON got ERROR_VARIABLE err GET "${json}" "${key}" value)
    if(err)
      string(APPEND failures "  ${name}: ${key} missing\n")
    elseif(NOT got STREQUAL want)
      string(APPEND failures "  ${name}: ${key} = ${got}, pinned ${want}\n")
    endif()
  endforeach()
  set(failures "${failures}" PARENT_SCOPE)
endfunction()

# T1 (ExperimentParams::t1, seed 1) cut to 60 sim-s.
check_counters(t1
  "--duration-s;60;--rap-flows;10;--tcp-flows;10;--bottleneck-kbps;800;--layer-rate;1250;--kmax;2"
  "scheduler.link_tx.dispatches=145396;scheduler.link_wire.dispatches=145380;scheduler.transport.dispatches=16836;scheduler.probe.dispatches=600;scheduler.adapter.dispatches=0;scheduler.fault.dispatches=0;scheduler.generic.dispatches=0;link.bottleneck.delivered_packets=23948")

# qa_trace's default fig-2 scenario, 20 sim-s.
check_counters(fig2
  "--duration-s;20"
  "scheduler.link_tx.dispatches=14709;scheduler.link_wire.dispatches=14704;scheduler.transport.dispatches=2980;scheduler.probe.dispatches=200;scheduler.adapter.dispatches=0;scheduler.fault.dispatches=0;scheduler.generic.dispatches=0;link.bottleneck.delivered_packets=2357")

if(failures)
  message(FATAL_ERROR "cost counters moved:\n${failures}")
endif()
message(STATUS "cost counters match their pins")
