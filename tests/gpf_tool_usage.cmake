# Runs `gpf_tool <SIM_ARGS...>` (comma-separated) in an empty work
# directory and requires a usage error: exit status 2, a "usage:" line on
# stderr, and no file left behind.
#
#   cmake -DTOOL=<gpf_tool> -DWORK=<dir> -DSIM_ARGS=simulate,--help -P gpf_tool_usage.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
string(REPLACE "," ";" args "${SIM_ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                WORKING_DIRECTORY "${WORK}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "gpf_tool ${args}: exit ${rc}, expected 2\n${out}${err}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "gpf_tool ${args}: no usage line on stderr\n${err}")
endif()
file(GLOB left "${WORK}/*")
if(left)
  message(FATAL_ERROR "gpf_tool ${args} wrote files: ${left}")
endif()
file(REMOVE_RECURSE "${WORK}")
