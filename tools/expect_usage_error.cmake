# Runs BINARY once per argument after `--` and fails unless every run exits
# with code 2, the usage error of util/flags.h. A value the binary rejects
# only mid-run (a TSF_CHECK abort exits 134) fails.
#
#   cmake -DBINARY=<path> -P expect_usage_error.cmake -- <arg>...
set(cases)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND cases "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT BINARY OR NOT cases)
  message(FATAL_ERROR "usage: cmake -DBINARY=<path> -P ${CMAKE_CURRENT_LIST_FILE} -- <arg>...")
endif()
set(failures 0)
foreach(arg IN LISTS cases)
  execute_process(COMMAND "${BINARY}" "${arg}"
                  RESULT_VARIABLE code
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(code STREQUAL "2")
    message(STATUS "exit 2: ${arg}")
  else()
    message(SEND_ERROR "expected exit 2 for '${arg}', got '${code}':\n${err}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} case(s) did not exit with a usage error")
endif()
