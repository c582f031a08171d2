# Runs one experiment binary for ctest and checks how it ends:
#
#   cmake -DBIN=<binary> -DOUT=<file> [-DEXPECTED=<file>] [-DEXIT_CODE=<n>]
#         [-DSTDERR_REGEX=<regex>] -P check_output.cmake
#
# The binary's stdout is written to OUT. EXPECTED: OUT must equal that file
# byte for byte. EXIT_CODE (default 0): the exact exit status, so a crash or
# an abort never matches. STDERR_REGEX: stderr must match it. Environment
# knobs (DSSP_BENCH_*) come from the test's ENVIRONMENT property.
if(NOT DEFINED EXIT_CODE)
  set(EXIT_CODE 0)
endif()
execute_process(COMMAND ${BIN} OUTPUT_FILE ${OUT} ERROR_VARIABLE err
                RESULT_VARIABLE code)
if(NOT code STREQUAL "${EXIT_CODE}")
  message(FATAL_ERROR "${BIN} ended with '${code}', expected ${EXIT_CODE}\n"
                      "${err}")
endif()
if(DEFINED STDERR_REGEX AND NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "${BIN} stderr does not match '${STDERR_REGEX}':\n"
                      "${err}")
endif()
if(DEFINED EXPECTED)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${OUT}
                  RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${OUT} differs from the golden ${EXPECTED}; "
                        "compare them with diff -u")
  endif()
endif()
