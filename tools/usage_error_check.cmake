# Usage-error check driven by ctest (see qa_add_usage_error_test in the
# top-level CMakeLists.txt): the command after `--` must exit 2, the status
# every tool gives a usage error, and print a match for EXPECT (a regular
# expression) on stdout or stderr.
# Inputs: EXPECT; the command line follows `--`.

set(cmd)
set(in_command FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_command)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()

execute_process(COMMAND ${cmd}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(output "${out}${err}")
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got ${rc}:\n${output}")
endif()
if(NOT output MATCHES "${EXPECT}")
  message(FATAL_ERROR "no match for '${EXPECT}' in:\n${output}")
endif()
