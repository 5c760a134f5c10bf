# ctest check for CLI input validation:
#   cmake -DPROGRAM=<exe> "-DARGS=<space-separated args>" -DMESSAGE=<regex>
#         -P expect_usage_error.cmake
# Passes iff PROGRAM exits 2 and its stderr matches MESSAGE and lists the
# usage.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "exit '${rc}', expected 2\n${out}${err}")
endif()
if(NOT err MATCHES "${MESSAGE}" OR NOT err MATCHES "usage:")
  message(FATAL_ERROR "stderr does not match '${MESSAGE}' plus the usage:\n${err}")
endif()
